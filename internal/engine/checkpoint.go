package engine

import (
	"fmt"

	"repro/internal/table"
	"repro/internal/value"
)

// CheckpointVersion is the current checkpoint layout version. Version 2
// carries columnar table snapshots (table.SnapshotVersion 2); earlier
// row-oriented checkpoints are rejected with a clear error rather than
// silently misread.
const CheckpointVersion = 2

// Checkpoint is a resumable snapshot of world state at a tick boundary
// (§3.3). Effects are transient and not captured: handler-armed effects for
// the next tick are reconstructed on Restore by re-running the (pure)
// handlers against the restored state. The many-world server also uses
// checkpoints as the hibernation format — a hibernated world is exactly a
// Checkpoint with its World discarded.
type Checkpoint struct {
	Version int                       `json:"version"`
	Tick    int64                     `json:"tick"`
	NextID  value.ID                  `json:"nextId"`
	Tables  map[string]table.Snapshot `json:"tables"`
}

// Checkpoint captures the world between ticks.
func (w *World) Checkpoint() (*Checkpoint, error) {
	if w.inTick {
		return nil, fmt.Errorf("engine: checkpoint is only valid at tick boundaries")
	}
	c := &Checkpoint{
		Version: CheckpointVersion,
		Tick:    w.tick,
		NextID:  w.nextID,
		Tables:  make(map[string]table.Snapshot, len(w.order)),
	}
	for _, rt := range w.order {
		c.Tables[rt.name] = rt.tab.Snapshot()
	}
	return c, nil
}

// Restore replaces the world state with a checkpoint and re-arms reactive
// handlers, resuming execution exactly where the checkpoint was taken. The
// checkpoint is validated — version, class membership, per-table snapshot
// shape — before any world state is touched, so a corrupt or truncated
// checkpoint leaves the world unchanged.
func (w *World) Restore(c *Checkpoint) error {
	if w.inTick {
		return fmt.Errorf("engine: restore is only valid at tick boundaries")
	}
	if c.Version != CheckpointVersion {
		return fmt.Errorf("engine: unsupported checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	for name := range c.Tables { //sglvet:allow maprange: membership validation only, no state mutated
		if _, ok := w.classes[name]; !ok {
			return fmt.Errorf("engine: checkpoint has unknown class %q", name)
		}
	}
	// Beyond each table's shape, the id space: NextID within the id index's
	// bound, every id in [1, NextID) so no later Spawn can collide with a
	// restored object, and no id in two classes.
	if c.NextID < 1 || c.NextID > table.MaxID+1 {
		return fmt.Errorf("engine: checkpoint NextID %d outside [1, %d]", c.NextID, table.MaxID+1)
	}
	var owner map[value.ID]string // ids are unique within a class already
	if len(c.Tables) > 1 {
		owner = make(map[value.ID]string)
	}
	for _, rt := range w.order {
		snap, ok := c.Tables[rt.name]
		if !ok {
			continue
		}
		if err := rt.tab.Validate(snap); err != nil {
			return fmt.Errorf("engine: checkpoint class %s: %w", rt.name, err)
		}
		for _, id := range snap.IDs {
			if id < 1 || id >= c.NextID {
				return fmt.Errorf("engine: checkpoint class %s: id %d outside [1, NextID %d)", rt.name, id, c.NextID)
			}
			if other, dup := owner[id]; dup {
				return fmt.Errorf("engine: checkpoint class %s: id %d also belongs to class %s", rt.name, id, other)
			}
			if owner != nil {
				owner[id] = rt.name
			}
		}
	}
	for _, rt := range w.order {
		if snap, ok := c.Tables[rt.name]; !ok {
			rt.tab.Clear()
		} else if err := rt.tab.Restore(snap); err != nil {
			return fmt.Errorf("engine: checkpoint class %s: %w", rt.name, err)
		}
		for i := range rt.fx {
			rt.fx[i].Clear()
			rt.fx[i].Grow(rt.tab.Cap())
		}
	}
	w.tick = c.Tick
	w.nextID = c.NextID
	w.pendingSpawn = w.pendingSpawn[:0]
	w.pendingKill = w.pendingKill[:0]
	w.clearTxns()
	// Every row's payload may have changed and physical rows were
	// compacted: the changefeed cannot express that as a delta, so flag
	// subscription views for a full resync.
	w.markResync()
	// Handlers are pure functions of post-update state; re-running them
	// reconstructs the effects that were armed for the next tick. They may
	// probe accum sites, so the replay holds a tick arena like RunTick, and
	// on partitions they run by ownership, which must cover the compacted rows.
	if w.parts != nil {
		w.ensurePartitionLayouts()
		w.assignPartitions(false)
	}
	w.acquireArena()
	w.runHandlers()
	w.releaseArena()
	return nil
}
