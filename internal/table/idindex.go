package table

import "repro/internal/value"

// MaxID is the largest object id a table accepts. Ids index the id→row
// directory directly, so the bound caps the directory at
// (MaxID+1)/idPageSize page pointers: 8 MiB on a 64-bit host.
const MaxID value.ID = 1<<30 - 1

// A page covers 1024 ids (4 KiB): one page holds a small world's whole
// extent, and a world of many classes pays a few KiB per class.
const (
	idPageBits = 10
	idPageSize = 1 << idPageBits
)

// idPage maps the ids of one page to row+1 (0 = absent); live counts the
// present ids.
type idPage struct {
	rows [idPageSize]int32
	live int32
}

// idIndex is the id→row index. World ids are issued ascending and never
// reused, so a lookup is a directory load and a page load, with no hashing.
// A page is allocated on the first insert into it and released when its
// last id leaves, so memory follows the live pages, not the largest id
// ever issued.
type idIndex struct {
	dir []*idPage
}

// get returns the row of id, or -1. Any id, including negative ones and
// refs decoded from arbitrary floats, is safe to look up.
func (x *idIndex) get(id value.ID) int {
	p := uint64(id) >> idPageBits
	if p >= uint64(len(x.dir)) {
		return -1
	}
	pg := x.dir[p]
	if pg == nil {
		return -1
	}
	return int(pg.rows[id&(idPageSize-1)]) - 1
}

// put maps an absent id in [0, MaxID] to row.
func (x *idIndex) put(id value.ID, row int) {
	p := int(id >> idPageBits)
	for len(x.dir) <= p {
		x.dir = append(x.dir, nil)
	}
	pg := x.dir[p]
	if pg == nil {
		pg = new(idPage)
		x.dir[p] = pg
	}
	pg.rows[id&(idPageSize-1)] = int32(row + 1)
	pg.live++
}

// del unmaps a present id, releasing its page when it empties.
func (x *idIndex) del(id value.ID) {
	p := id >> idPageBits
	pg := x.dir[p]
	pg.rows[id&(idPageSize-1)] = 0
	if pg.live--; pg.live == 0 {
		x.dir[p] = nil
	}
}

// clear releases every page.
func (x *idIndex) clear() { clear(x.dir) }
