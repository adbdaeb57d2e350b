package views

import "time"

// LastSplit returns the last Apply's wall time by step: the serial steps
// together, then the probe fan-out, the maintain fan-out and the emit.
func (r *Registry) LastSplit() [4]time.Duration { return r.split }

// MaxChunks returns the most maintain chunks any Apply cut the worklist into.
func (r *Registry) MaxChunks() int { return r.maxChunks }

// ProbedGroups counts the index groups the last Apply probed, and all of
// them.
func (r *Registry) ProbedGroups() (probed, groups int) {
	for _, cs := range r.classList {
		for _, g := range cs.groupList {
			if g.probed {
				probed++
			}
			groups++
		}
	}
	return probed, groups
}
