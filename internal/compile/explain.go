package compile

import (
	"fmt"
	"strings"

	"repro/internal/sgl/ast"
)

// Explain renders the relational-algebra view of a class plan: per phase,
// the selection on the hidden pc column, the join/aggregate structure of
// each accum, and the effect emissions. This is the output of `sglc -plan`
// and the debugger's script↔plan mapping aid (§3.3).
func Explain(cp *ClassPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %s: %d phase(s), %d local slot(s)\n", cp.Class.Name, cp.NumPhases, cp.NumSlots)
	for i, phase := range cp.Phases {
		if cp.NumPhases > 1 {
			fmt.Fprintf(&b, "phase %d: σ[pc=%d](%s)\n", i, i, cp.Class.Name)
		} else {
			fmt.Fprintf(&b, "phase 0: scan(%s)\n", cp.Class.Name)
		}
		explainSteps(&b, phase, cp, 1)
	}
	for i, h := range cp.Handlers {
		fmt.Fprintf(&b, "handler %d: σ[%s](%s) — post-update\n", i, ast.ExprString(h.Src.Cond), cp.Class.Name)
		explainSteps(&b, h.Body, cp, 1)
	}
	for _, u := range cp.Updates {
		fmt.Fprintf(&b, "update: %s ← %s\n", cp.Class.State[u.AttrIdx].Name, ast.ExprString(u.Src.Expr))
	}
	for _, a := range cp.Class.State {
		if owner, ok := cp.OwnedBy[a.Name]; ok {
			fmt.Fprintf(&b, "update: %s owned by component %q\n", a.Name, owner)
		}
	}
	return b.String()
}

func explainSteps(b *strings.Builder, steps []Step, cp *ClassPlan, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range steps {
		switch s := s.(type) {
		case *LetStep:
			fmt.Fprintf(b, "%sπ extend slot%d\n", ind, s.Slot)
		case *IfStep:
			fmt.Fprintf(b, "%sσ guard\n", ind)
			explainSteps(b, s.Then, cp, depth+1)
			if s.Else != nil {
				fmt.Fprintf(b, "%sσ ¬guard\n", ind)
				explainSteps(b, s.Else, cp, depth+1)
			}
		case *EmitStep:
			if s.AccumSlot >= 0 {
				fmt.Fprintf(b, "%s⊕ accum slot%d\n", ind, s.AccumSlot)
			} else {
				tgt := "self"
				if s.TargetFn != nil {
					tgt = "ref"
				}
				fmt.Fprintf(b, "%semit %s.%s[%s]\n", ind, s.Class, effectName(cp, s), tgt)
			}
		case *AtomicStep:
			fmt.Fprintf(b, "%stxn intent (%d constraint(s))\n", ind, len(s.Constraints))
			explainSteps(b, s.Body, cp, depth+1)
		case *AccumStep:
			src := s.SourceClass
			if s.SourceFn != nil {
				src = "set<ref<" + s.SourceClass + ">>"
			}
			fmt.Fprintf(b, "%sΓ[slot%d, %s](%s ⋈θ %s)\n", ind, s.Slot, s.Comb, cp.Class.Name, src)
			if s.Join != nil {
				if len(s.Join.Ranges) > 0 {
					var dims []string
					for _, r := range s.Join.Ranges {
						dims = append(dims, s.SourceClass+"."+attrName(cp, s.SourceClass, r.AttrIdx))
					}
					fmt.Fprintf(b, "%s  θ: rectangular range on (%s) — index-joinable\n", ind, strings.Join(dims, ", "))
				}
				if len(s.Join.Eqs) > 0 {
					var dims []string
					for _, e := range s.Join.Eqs {
						dims = append(dims, s.SourceClass+"."+attrName(cp, s.SourceClass, e.AttrIdx))
					}
					fmt.Fprintf(b, "%s  θ: equality on (%s) — hash-joinable\n", ind, strings.Join(dims, ", "))
				}
				if k := s.Join.Key; k != nil {
					fmt.Fprintf(b, "%s  θ: key %s.%s %s %s — in the index\n", ind, s.SourceClass,
						attrName(cp, s.SourceClass, k.AttrIdx), k.Op, cp.Class.State[k.SelfAttr].Name)
				}
				if s.Join.Residual != nil {
					fmt.Fprintf(b, "%s  θ: residual predicate\n", ind)
				}
				explainSteps(b, s.Join.Inner, cp, depth+1)
			} else {
				explainSteps(b, s.Body, cp, depth+1)
			}
		}
	}
}

func effectName(cp *ClassPlan, s *EmitStep) string {
	// The emission may target another class; resolve through the program
	// schema when available, else fall back to the index.
	if s.Class == cp.Class.Name && s.AttrIdx >= 0 && s.AttrIdx < len(cp.Class.Effects) {
		return cp.Class.Effects[s.AttrIdx].Name
	}
	return fmt.Sprintf("fx[%d]", s.AttrIdx)
}

func attrName(cp *ClassPlan, class string, idx int) string {
	if class == cp.Class.Name && idx >= 0 && idx < len(cp.Class.State) {
		return cp.Class.State[idx].Name
	}
	return fmt.Sprintf("attr[%d]", idx)
}
