package engine

import (
	"fmt"

	"repro/internal/value"
)

// UpdateComponent updates the state attributes it owns during the update
// step (§2.2). State attributes are strictly partitioned: the engine
// rejects writes to attributes a component does not own. Components read
// tick-start state and ⊕-combined effects through the UpdateCtx and stage
// the owned attributes' next epoch; all staged writes commit atomically
// after every component ran, and none does when a component errs.
type UpdateComponent interface {
	// Name must match the `by <name>` owner in class declarations.
	Name() string
	// Update stages new values for owned attributes.
	Update(ctx *UpdateCtx) error
}

// TxnPolicy decides which collected transactions commit (§3.1). The engine
// gives the policy the tick's transactions in deterministic order; the
// policy marks losers via Txn.Aborted and is responsible for leaving the
// effect accumulators consistent with the commit set. The engine recycles
// the intents: the *Txn pointers are valid only until Admit returns and
// must not be retained.
type TxnPolicy interface {
	Admit(ctx *UpdateCtx, txns []*Txn) error
}

// UpdateCtx is the update-step view handed to components: read old state
// and combined effects, stage new state for owned attributes — a class at a
// time through Class, or one cell at a time by name through State, Effect
// and Stage. Both stage into the same next-epoch columns.
type UpdateCtx struct {
	w     *World
	owner string // component being run; "" for the built-in rule evaluator
}

// World returns the world (for read access such as Count/IDs).
func (u *UpdateCtx) World() *World { return u.w }

// Tick returns the tick being computed.
func (u *UpdateCtx) Tick() int64 { return u.w.tick }

// ClassCols is a component's columnar view of one class, resolved once per
// Update call. Columns are indexed by physical row and only rows Alive marks
// live commit. Number, bool and ref attributes are float64 payloads (bool 0
// or 1, ref the object id). Read columns alias engine storage: read-only,
// valid during the Update call.
type ClassCols struct {
	u  *UpdateCtx
	rt *classRT
}

// Class resolves a class to its columnar view.
func (u *UpdateCtx) Class(class string) (ClassCols, error) {
	rt, ok := u.w.classes[class]
	if !ok {
		return ClassCols{}, fmt.Errorf("engine: unknown class %q", class)
	}
	return ClassCols{u, rt}, nil
}

// Alive returns the live mask.
func (c ClassCols) Alive() []bool { return c.rt.tab.AliveMask() }

// IDs returns the object id of every physical row (stale on dead rows).
func (c ClassCols) IDs() []value.ID { return c.rt.tab.RawIDs() }

// State returns the tick-start payload column of a number, bool or ref
// state attribute.
func (c ClassCols) State(attr string) ([]float64, error) {
	i, err := c.u.stateAttr(c.rt, attr, false, true)
	if err != nil {
		return nil, err
	}
	return c.rt.tab.NumColumn(i), nil
}

// Effect returns the ⊕-combined result payloads of a number-, bool- or
// ref-valued effect attribute: 0 (the null ref for refs) on rows nothing
// was emitted to this tick.
func (c ClassCols) Effect(attr string) ([]float64, error) {
	i := c.rt.cls.EffectIndex(attr)
	if i < 0 {
		return nil, fmt.Errorf("engine: class %s has no effect attribute %q", c.rt.name, attr)
	}
	if e := c.rt.cls.Effects[i]; e.Comb.ResultKind(e.Kind) == value.KindString || e.Comb.ResultKind(e.Kind) == value.KindSet {
		return nil, fmt.Errorf("engine: effect %s.%s has no payload column", c.rt.name, attr)
	}
	return c.rt.bindFxVec(i, c.rt.tab.Cap()), nil
}

// Stage returns the next-epoch column of a number, bool or ref state
// attribute the running component owns, checking ownership and kind once.
// The first call in a tick prefills it with the tick-start payloads (keeping
// cells staged one by one before), so rows the component leaves alone
// commit unchanged; later calls and cell-wise Stage write the same column,
// and the last write to a row wins.
func (c ClassCols) Stage(attr string) ([]float64, error) {
	i, err := c.u.stateAttr(c.rt, attr, true, true)
	if err != nil {
		return nil, err
	}
	return c.rt.stageColumn(i), nil
}

// State reads a tick-start state attribute.
func (u *UpdateCtx) State(class string, id value.ID, attr string) (value.Value, bool) {
	return u.w.Get(class, id, attr)
}

// Effect reads the ⊕-combined effect contribution for an object; ok is
// false when nothing was emitted this tick.
func (u *UpdateCtx) Effect(class string, id value.ID, attr string) (value.Value, bool) {
	return u.w.EffectValue(class, id, attr)
}

// IDs lists live objects of a class in storage order.
func (u *UpdateCtx) IDs(class string) []value.ID { return u.w.IDs(class) }

// Stage records a new value for one cell of a state attribute. Only the
// owning component may stage an attribute; violations return an error,
// enforcing the paper's strict partition.
func (u *UpdateCtx) Stage(class string, id value.ID, attr string, v value.Value) error {
	c, err := u.Class(class)
	if err != nil {
		return err
	}
	i, err := u.stateAttr(c.rt, attr, true, false)
	if err != nil {
		return err
	}
	if k := c.rt.cls.State[i].Kind; v.Kind() != k {
		return fmt.Errorf("engine: staging %s into %s.%s (%s)", v.Kind(), class, attr, k)
	}
	row := c.rt.tab.Row(id)
	if row < 0 {
		return nil // no such object: nothing to write
	}
	col := &c.rt.stage[i]
	col.ensure(c.rt.tab.Cap())
	if col.boxed {
		col.vals[row] = v
	} else {
		col.num[row] = payloadOf(v)
	}
	if !col.full {
		col.rows = append(col.rows, int32(row))
	}
	return nil
}

// stateAttr resolves a state attribute of rt: one the running component
// owns when stage is set, one with a float64 payload when payload is.
func (u *UpdateCtx) stateAttr(rt *classRT, attr string, stage, payload bool) (int, error) {
	i := rt.cls.StateIndex(attr)
	switch owner := rt.plan.OwnedBy[attr]; {
	case i < 0:
		return -1, fmt.Errorf("engine: class %s has no state attribute %q", rt.name, attr)
	case stage && owner != u.owner && u.owner == "":
		return -1, fmt.Errorf("engine: attribute %s.%s is owned by %q; the rule evaluator may not stage it", rt.name, attr, owner)
	case stage && owner != u.owner:
		return -1, fmt.Errorf("engine: component %q may not stage %s.%s (owner %q)", u.owner, rt.name, attr, owner)
	case payload && rt.stage[i].boxed:
		return -1, fmt.Errorf("engine: %s.%s is a %s attribute, not a payload column", rt.name, attr, rt.cls.State[i].Kind)
	}
	return i, nil
}
