package engine

// The per-tick change feed behind incremental subscription views
// (internal/views): every state write that survives the update step —
// the commit of the next-epoch columns, spawns, kills, out-of-tick
// SetState — marks the physical row it changed, and the
// accumulated marks drain as one deterministic, sorted changefeed per class.
//
// Two properties make the feed usable as a view-maintenance substrate:
//
//   - It is driven by the writes themselves, at the one commit every
//     execution mode funnels through (commitStaged, which writes the
//     next-epoch columns of kernel rules, closure rules and components), so
//     the same marks fall out of any
//     Workers/Partitions/Exec configuration and of DisableStats — statistics
//     collection never feeds execution (the PR 3 grid-sizing rule).
//   - Marks are value-diffed on raw bits: a rule that rewrites x to the same
//     payload marks nothing, so feed volume tracks rows that actually
//     changed, not rows that have update rules.
//
// Marking uses a generation-stamped per-row array (no clearing between
// ticks) plus an append log, and the log sorts ascending at drain time, so
// the drained row order is a pure function of committed state — bit-identical
// across worker counts, partition layouts and exec modes.

import (
	"math"
	"slices"

	"repro/internal/table"
	"repro/internal/value"
)

// changeLog accumulates one class's state changes between drains.
type changeLog struct {
	gen   uint64   // current accumulation generation
	stamp []uint64 // per-row: generation the row was last marked in
	rows  []int32  // rows marked this generation, unsorted until drain

	killed []value.ID // ids deleted since the last drain

	// accounted is the table's structure version after the last mutation
	// this log witnessed (spawn/kill/drain). A drain that finds the live
	// structure version elsewhere means rows were inserted or deleted behind
	// the engine's back — the consumer must resync from a full rescan.
	accounted uint64

	// resync forces consumers to rebuild from a rescan: set by checkpoint
	// restore, where every row's payload may have changed and physical rows
	// were compacted.
	resync bool
}

func (l *changeLog) mark(row int) {
	for len(l.stamp) <= row {
		l.stamp = append(l.stamp, 0)
	}
	if l.stamp[row] != l.gen {
		l.stamp[row] = l.gen
		l.rows = append(l.rows, int32(row))
	}
}

// ClassDelta is one class's drained changefeed for the ticks since the last
// drain: the alive rows whose state changed or that were spawned (physical
// row order, ascending) and the ids that were killed (ascending). When
// Resync is set the row/kill lists are meaningless — consumers must rebuild
// their derived state from a full rescan (checkpoint restore, or a
// structure-version bump the feed cannot account for).
type ClassDelta struct {
	Class  string
	Rows   []int32
	Killed []value.ID
	Resync bool
}

// EnableChangeFeed turns on per-class change logging. Idempotent; there is
// no way to turn the feed off short of discarding the world (the marking
// cost is one stamped append per actually-changed row).
func (w *World) EnableChangeFeed() {
	for _, rt := range w.order {
		if rt.vlog == nil {
			rt.vlog = &changeLog{gen: 1, accounted: rt.tab.StructVersion()}
		}
	}
}

// ChangeFeedEnabled reports whether the feed is on.
func (w *World) ChangeFeedEnabled() bool {
	return len(w.order) > 0 && w.order[0].vlog != nil
}

// DrainChangeFeed finalizes and hands each class's accumulated changes to
// fn in class declaration order, then resets the logs. The slices inside
// the ClassDelta alias engine-owned scratch: they are valid only during the
// callback and must be copied out to retain. Call between ticks only.
func (w *World) DrainChangeFeed(fn func(d ClassDelta)) {
	for _, rt := range w.order {
		l := rt.vlog
		if l == nil {
			continue
		}
		// A structure version the log did not witness means direct table
		// mutation: fall back to resync rather than serve a feed with holes.
		if rt.tab.StructVersion() != l.accounted {
			l.resync = true
		}
		d := ClassDelta{Class: rt.name, Resync: l.resync}
		if !l.resync {
			// Drop rows that died after being marked (their kill is in
			// killed); what remains is sorted ascending for a canonical,
			// configuration-independent order.
			live := l.rows[:0]
			for _, r := range l.rows {
				if rt.tab.Alive(int(r)) {
					live = append(live, r)
				}
			}
			l.rows = live
			slices.Sort(l.rows)
			slices.Sort(l.killed)
			d.Rows = l.rows
			d.Killed = l.killed
		}
		fn(d)
		l.rows = l.rows[:0]
		l.killed = l.killed[:0]
		l.resync = false
		l.gen++
		l.accounted = rt.tab.StructVersion()
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// noteSpawn records a freshly inserted row. The row enters the feed as an
// ordinary changed-row candidate — subscriptions discover it by evaluating
// their predicate — and the log's accounted structure version advances so
// the drain-time resync check stays quiet.
func (l *changeLog) noteSpawn(row int, structVer uint64) {
	l.mark(row)
	l.accounted = structVer
}

// noteKill records a deletion by id (the physical row is already dead and
// may be reused by a same-boundary spawn).
func (l *changeLog) noteKill(id value.ID, structVer uint64) {
	l.killed = append(l.killed, id)
	l.accounted = structVer
}

// markResync flags every class log for consumer-side rebuild (checkpoint
// restore).
func (w *World) markResync() {
	for _, rt := range w.order {
		if rt.vlog != nil {
			rt.vlog.resync = true
			rt.vlog.accounted = rt.tab.StructVersion()
		}
	}
}

// ClassTable exposes a class's columnar table for read-only consumers —
// subscription-view maintenance, inspectors, debuggers. Callers must not
// write through it; all mutation goes through the engine so the change feed
// stays complete.
func (w *World) ClassTable(class string) *table.Table {
	if rt, ok := w.classes[class]; ok {
		return rt.tab
	}
	return nil
}

// ViewTick is one views.Registry.Apply's accounting. Nanos is the whole
// Apply; ProbeNanos, MaintainNanos and EmitNanos are its probe fan-out (with
// bucketing), its maintain fan-out and its in-order delta callbacks. The
// rest of Nanos is serial preparation.
type ViewTick struct {
	Subs, IndexedSubs               int64 // gauges: live subscriptions, and those in a subscription index
	DeltaRows, Rescans, IndexProbes int64
	Nanos                           int64
	ProbeNanos, MaintainNanos       int64
	EmitNanos                       int64
}

// NoteViewStats folds subscription-view maintenance counters into the
// world's execution statistics (no-op under DisableStats — the counters
// observe view maintenance, they never drive it).
func (w *World) NoteViewStats(v ViewTick) {
	if w.opts.DisableStats {
		return
	}
	w.execStats.ViewSubs = v.Subs
	w.execStats.ViewIndexedSubs = v.IndexedSubs
	w.execStats.ViewDeltaRows += v.DeltaRows
	w.execStats.ViewRescans += v.Rescans
	w.execStats.ViewIndexProbes += v.IndexProbes
	w.execStats.ViewMaintNanos += v.Nanos
	w.execStats.ViewProbeNanos += v.ProbeNanos
	w.execStats.ViewMaintainNanos += v.MaintainNanos
	w.execStats.ViewEmitNanos += v.EmitNanos
}
