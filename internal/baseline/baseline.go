// Package baseline implements the object-at-a-time comparator the paper
// positions SGL against (§1–2): the "middleware" status quo in which each
// NPC's script is interpreted individually against a per-object store, and
// every accum-style aggregation scans all objects. It executes the same
// type-checked AST as the set-at-a-time engine under identical semantics
// (state-effect discipline, ⊕ combination, greedy transaction admission,
// phase counters, reactive handlers), so the two can be compared both for
// correctness (property tests assert equal trajectories) and for
// performance (benchmarks E1/E2).
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/combinator"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

// World is an object-at-a-time game world.
type World struct {
	info    *sem.Info
	classes map[string]*classBase
	order   []*classBase
	tick    int64
	nextID  value.ID
	inTick  bool

	pendSpawn []pendSpawn
	pendKill  []pendKill
	txns      []*txn
}

type pendSpawn struct {
	class string
	id    value.ID
	init  map[string]value.Value
}

type pendKill struct {
	class string
	id    value.ID
}

type classBase struct {
	name string
	cls  *schema.Class
	decl *ast.ClassDecl

	objs  map[value.ID]*object
	order []value.ID // spawn order; compacted on kill
}

type object struct {
	state []value.Value
	pc    int
	fx    []combinator.Accumulator
	// staged new-state values for the update step
	staged map[int]value.Value
}

type txn struct {
	class       string
	source      value.ID
	frame       []value.Value
	constraints []ast.Expr
	emissions   []emission
}

type emission struct {
	class   string
	target  value.ID
	attrIdx int
	val     value.Value
	key     float64
}

// New builds a baseline world from analyzed SGL.
func New(info *sem.Info) *World {
	w := &World{
		info:    info,
		classes: make(map[string]*classBase),
		nextID:  1,
	}
	for _, cd := range info.Program.Classes {
		cls, _ := info.Schema.Class(cd.Name)
		cb := &classBase{name: cd.Name, cls: cls, decl: cd, objs: make(map[value.ID]*object)}
		w.classes[cd.Name] = cb
		w.order = append(w.order, cb)
	}
	return w
}

// Tick returns the number of completed ticks.
func (w *World) Tick() int64 { return w.tick }

// Spawn creates an object (deferred to the tick boundary mid-tick).
func (w *World) Spawn(class string, init map[string]value.Value) (value.ID, error) {
	cb, ok := w.classes[class]
	if !ok {
		return value.NullID, fmt.Errorf("baseline: unknown class %q", class)
	}
	for name := range init {
		if cb.cls.StateIndex(name) < 0 {
			return value.NullID, fmt.Errorf("baseline: class %s has no state attribute %q", class, name)
		}
	}
	id := w.nextID
	w.nextID++
	if w.inTick {
		w.pendSpawn = append(w.pendSpawn, pendSpawn{class, id, init})
		return id, nil
	}
	w.doSpawn(cb, id, init)
	return id, nil
}

func (w *World) doSpawn(cb *classBase, id value.ID, init map[string]value.Value) {
	o := &object{
		state:  make([]value.Value, len(cb.cls.State)),
		fx:     make([]combinator.Accumulator, len(cb.cls.Effects)),
		staged: make(map[int]value.Value),
	}
	for i, a := range cb.cls.State {
		v := a.Default
		if ov, ok := init[a.Name]; ok {
			v = ov
		}
		if a.Kind == value.KindSet {
			v = value.SetVal(v.AsSet().Clone())
		}
		o.state[i] = v
	}
	for i, e := range cb.cls.Effects {
		o.fx[i] = combinator.New(e.Comb, e.Kind)
	}
	cb.objs[id] = o
	cb.order = append(cb.order, id)
}

// Kill removes an object (deferred mid-tick).
func (w *World) Kill(class string, id value.ID) error {
	cb, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("baseline: unknown class %q", class)
	}
	if w.inTick {
		w.pendKill = append(w.pendKill, pendKill{class, id})
		return nil
	}
	cb.kill(id)
	return nil
}

func (cb *classBase) kill(id value.ID) {
	if _, ok := cb.objs[id]; !ok {
		return
	}
	delete(cb.objs, id)
	for i, oid := range cb.order {
		if oid == id {
			cb.order = append(cb.order[:i], cb.order[i+1:]...)
			break
		}
	}
}

// Count returns the number of live objects of a class.
func (w *World) Count(class string) int {
	if cb, ok := w.classes[class]; ok {
		return len(cb.objs)
	}
	return 0
}

// IDs returns live ids in spawn order.
func (w *World) IDs(class string) []value.ID {
	if cb, ok := w.classes[class]; ok {
		return append([]value.ID(nil), cb.order...)
	}
	return nil
}

// Get reads a state attribute.
func (w *World) Get(class string, id value.ID, attr string) (value.Value, bool) {
	cb, ok := w.classes[class]
	if !ok {
		return value.Value{}, false
	}
	o, ok := cb.objs[id]
	if !ok {
		return value.Value{}, false
	}
	i := cb.cls.StateIndex(attr)
	if i < 0 {
		return value.Value{}, false
	}
	return o.state[i], true
}

// SetState assigns a state attribute between ticks (scenario setup).
func (w *World) SetState(class string, id value.ID, attr string, v value.Value) error {
	if w.inTick {
		return fmt.Errorf("baseline: SetState during a tick")
	}
	cb, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("baseline: unknown class %q", class)
	}
	o, ok := cb.objs[id]
	if !ok {
		return fmt.Errorf("baseline: no object %d", id)
	}
	i := cb.cls.StateIndex(attr)
	if i < 0 {
		return fmt.Errorf("baseline: no attribute %q", attr)
	}
	o.state[i] = v
	return nil
}

// PC returns an object's script phase.
func (w *World) PC(class string, id value.ID) int {
	if cb, ok := w.classes[class]; ok {
		if o, ok := cb.objs[id]; ok {
			return o.pc
		}
	}
	return -1
}

// RunTick executes one state-effect cycle, object at a time.
func (w *World) RunTick() error {
	w.inTick = true

	// Query/effect phase: interpret each object's current script phase.
	for _, cb := range w.order {
		if cb.decl.Run == nil {
			continue
		}
		phases := splitPhases(cb.decl.Run)
		for _, id := range cb.order {
			o := cb.objs[id]
			ev := &evalCtx{w: w, cb: cb, id: id, obj: o, frame: make([]value.Value, cb.decl.NumSlots)}
			ev.runStmts(phases[o.pc])
		}
	}

	// Transaction admission (greedy, deterministic order — §3.1).
	w.admitTxns()

	// Update step: expression rules over old state + combined effects.
	for _, cb := range w.order {
		for _, id := range cb.order {
			o := cb.objs[id]
			ev := &evalCtx{w: w, cb: cb, id: id, obj: o, effects: true}
			for _, r := range cb.decl.Updates {
				i := cb.cls.StateIndex(r.Attr)
				o.staged[i] = ev.eval(r.Expr)
			}
		}
	}
	for _, cb := range w.order {
		for _, id := range cb.order {
			o := cb.objs[id]
			for i, v := range o.staged {
				o.state[i] = v
				delete(o.staged, i)
			}
			// Advance the program counter (§3.2).
			if cb.decl.NumPhases > 1 {
				o.pc = (o.pc + 1) % cb.decl.NumPhases
			}
		}
	}

	// Clear effects, then run reactive handlers on the new state (§3.2).
	for _, cb := range w.order {
		for _, id := range cb.order {
			o := cb.objs[id]
			for i := range o.fx {
				o.fx[i].Reset()
			}
		}
	}
	w.txns = w.txns[:0]
	for _, cb := range w.order {
		if len(cb.decl.Handlers) == 0 {
			continue
		}
		for _, id := range cb.order {
			o := cb.objs[id]
			ev := &evalCtx{w: w, cb: cb, id: id, obj: o, frame: make([]value.Value, cb.decl.NumSlots)}
			for _, h := range cb.decl.Handlers {
				if ev.eval(h.Cond).AsBool() {
					ev.runStmts(h.Body.Stmts)
				}
			}
		}
	}

	w.inTick = false
	for _, p := range w.pendKill {
		w.classes[p.class].kill(p.id)
	}
	w.pendKill = w.pendKill[:0]
	for _, p := range w.pendSpawn {
		w.doSpawn(w.classes[p.class], p.id, p.init)
	}
	w.pendSpawn = w.pendSpawn[:0]
	w.tick++
	return nil
}

// Run executes n ticks.
func (w *World) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := w.RunTick(); err != nil {
			return err
		}
	}
	return nil
}

// splitPhases mirrors the engine's program-counter lowering: the run block
// is cut at top-level waitNextTick statements.
func splitPhases(run *ast.Block) [][]ast.Stmt {
	var phases [][]ast.Stmt
	var cur []ast.Stmt
	for _, s := range run.Stmts {
		if _, ok := s.(*ast.WaitStmt); ok {
			phases = append(phases, cur)
			cur = nil
			continue
		}
		cur = append(cur, s)
	}
	return append(phases, cur)
}

// admitTxns mirrors engine.AdmitOrdered: deterministic order, tentative
// application, constraint check against rule-replayed post-state, rollback
// on violation by restoring each touched accumulator to its saved state.
func (w *World) admitTxns() {
	sort.SliceStable(w.txns, func(i, j int) bool {
		if w.txns[i].class != w.txns[j].class {
			return w.txns[i].class < w.txns[j].class
		}
		return w.txns[i].source < w.txns[j].source
	})
	for _, t := range w.txns {
		type applied struct {
			o     *object
			attr  int
			saved combinator.Accumulator
		}
		var done []applied
		for _, e := range t.emissions {
			cb := w.classes[e.class]
			o, ok := cb.objs[e.target]
			if !ok {
				continue
			}
			done = append(done, applied{o, e.attrIdx, o.fx[e.attrIdx]})
			o.fx[e.attrIdx].Add(e.val, e.key)
		}
		cb := w.classes[t.class]
		o, live := cb.objs[t.source]
		ok := live
		if ok {
			ev := &evalCtx{w: w, cb: cb, id: t.source, obj: o, frame: t.frame, tentative: true}
			for _, c := range t.constraints {
				if !ev.eval(c).AsBool() {
					ok = false
					break
				}
			}
		}
		if !ok {
			for i := len(done) - 1; i >= 0; i-- {
				a := done[i]
				a.o.fx[a.attr] = a.saved
			}
		}
	}
}
