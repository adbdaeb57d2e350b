package engine

import (
	"fmt"

	"repro/internal/value"
)

// UpdateComponent updates the state attributes it owns during the update
// step (§2.2). State attributes are strictly partitioned: the engine
// rejects writes to attributes a component does not own. Components read
// tick-start state and ⊕-combined effects through the UpdateCtx and stage
// new values; all staged writes apply atomically after every component ran.
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
// and combined effects, stage new state for owned attributes.
type UpdateCtx struct {
	w     *World
	owner string // component being run; "" for the built-in rule evaluator
}

// World returns the world (for read access such as Count/IDs).
func (u *UpdateCtx) World() *World { return u.w }

// Tick returns the tick being computed.
func (u *UpdateCtx) Tick() int64 { return u.w.tick }

// State reads a tick-start state attribute.
func (u *UpdateCtx) State(class string, id value.ID, attr string) (value.Value, bool) {
	rt, row := u.w.lookup(class, id)
	if row < 0 {
		return value.Value{}, false
	}
	i := rt.cls.StateIndex(attr)
	if i < 0 {
		return value.Value{}, false
	}
	return rt.tab.At(row, i), true
}

// Effect reads the ⊕-combined effect contribution for an object; ok is
// false when nothing was emitted this tick.
func (u *UpdateCtx) Effect(class string, id value.ID, attr string) (value.Value, bool) {
	return u.w.EffectValue(class, id, attr)
}

// IDs lists live objects of a class in storage order.
func (u *UpdateCtx) IDs(class string) []value.ID { return u.w.IDs(class) }

// Stage records a new value for a state attribute. Only the owning
// component may stage an attribute; violations return an error, enforcing
// the paper's strict partition.
func (u *UpdateCtx) Stage(class string, id value.ID, attr string, v value.Value) error {
	rt, ok := u.w.classes[class]
	if !ok {
		return fmt.Errorf("engine: unknown class %q", class)
	}
	i := rt.cls.StateIndex(attr)
	if i < 0 {
		return fmt.Errorf("engine: class %s has no state attribute %q", class, attr)
	}
	owner := rt.plan.OwnedBy[attr]
	if owner != u.owner {
		if u.owner == "" {
			return fmt.Errorf("engine: attribute %s.%s is owned by %q; the rule evaluator may not stage it", class, attr, owner)
		}
		return fmt.Errorf("engine: component %q may not stage %s.%s (owner %q)", u.owner, class, attr, owner)
	}
	if v.Kind() != rt.cls.State[i].Kind {
		return fmt.Errorf("engine: staging %s into %s.%s (%s)", v.Kind(), class, attr, rt.cls.State[i].Kind)
	}
	row := rt.tab.Row(id)
	if row < 0 {
		return nil // no such object: nothing to write
	}
	col := &rt.stage[i]
	col.ensure(rt.tab.Cap())
	col.vals[row] = v
	col.rows = append(col.rows, int32(row))
	return nil
}
