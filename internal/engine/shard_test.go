package engine

import (
	"testing"

	"repro/internal/vexpr"
)

// TestShardRows pins the partitioning contract the sharded executor relies
// on: shards cover [0, capRows) exactly once, in order, never outnumber the
// requested maximum, and every boundary except the last falls on a batch
// multiple (a mid-batch split would pay two partial batches per kernel).
func TestShardRows(t *testing.T) {
	cases := []struct{ capRows, maxShards int }{
		{0, 4}, {1, 4}, {1023, 4}, {1024, 4}, {1025, 4},
		{4096, 4}, {4097, 4}, {100_000, 8}, {2048, 1}, {3000, 16},
		{512, 0}, // maxShards clamps to 1
	}
	for _, c := range cases {
		shards := shardRows(c.capRows, c.maxShards, nil)
		if c.capRows == 0 {
			if len(shards) != 0 {
				t.Fatalf("cap=0: got %v", shards)
			}
			continue
		}
		maxShards := c.maxShards
		if maxShards < 1 {
			maxShards = 1
		}
		if len(shards) > maxShards {
			t.Fatalf("cap=%d max=%d: %d shards", c.capRows, c.maxShards, len(shards))
		}
		next := 0
		for i, sh := range shards {
			if sh.lo != next || sh.hi <= sh.lo {
				t.Fatalf("cap=%d max=%d: shard %d = %+v, want lo=%d", c.capRows, c.maxShards, i, sh, next)
			}
			if i < len(shards)-1 && sh.hi%vexpr.BatchSize != 0 {
				t.Fatalf("cap=%d max=%d: shard %d boundary %d not batch-aligned", c.capRows, c.maxShards, i, sh.hi)
			}
			next = sh.hi
		}
		if next != c.capRows {
			t.Fatalf("cap=%d max=%d: shards end at %d", c.capRows, c.maxShards, next)
		}
	}
}

// TestNextRun pins the (shard, row) merge: whatever the split, walking the
// runs visits every entry of every stream exactly once in globally ascending
// row order, entries of one row staying together in their stream's order;
// streams whose row ranges do not overlap are each one run.
func TestNextRun(t *testing.T) {
	cases := []struct {
		name    string
		streams [][]int32
		runs    int // expected run count; -1 = not pinned
	}{
		{"no sinks", nil, 0},
		{"all empty", [][]int32{{}, {}, nil}, 0},
		{"single sink", [][]int32{{0, 0, 3, 7, 7, 7, 9}}, 1},
		{"contiguous", [][]int32{{0, 1, 1, 5}, {1024, 1024, 1030}, {}, {3072}}, 3},
		{"disjoint, out of shard order", [][]int32{{50, 51}, {}, {0, 0, 9}, {20}}, 3},
		{"interleaved", [][]int32{{0, 4, 4, 8, 9}, {1, 2, 10}, {3, 5, 5, 6, 7, 11, 12}}, -1},
		{"alternating", [][]int32{{0, 2, 4, 6}, {1, 3, 5, 7}}, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			total := 0
			for _, rs := range c.streams {
				total += len(rs)
			}
			idx := make([]int, len(c.streams))
			seen, runs, last := 0, 0, int32(-1)
			for {
				si, from, to := nextRun(c.streams, idx)
				if si < 0 {
					break
				}
				if to <= from || idx[si] != to {
					t.Fatalf("run %d: stream %d [%d, %d), idx %d", runs, si, from, to, idx[si])
				}
				for _, r := range c.streams[si][from:to] {
					if r < last {
						t.Fatalf("run %d: row %d after %d", runs, r, last)
					}
					last = r
				}
				seen += to - from
				runs++
			}
			if seen != total {
				t.Fatalf("visited %d of %d entries", seen, total)
			}
			if c.runs >= 0 && runs != c.runs {
				t.Fatalf("%d runs, want %d", runs, c.runs)
			}
		})
	}
}
