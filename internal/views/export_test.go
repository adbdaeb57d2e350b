package views

import "time"

// LastSplit returns the last Apply's wall time by step: the serial steps
// together, then the probe fan-out, the maintain fan-out and the emit.
func (r *Registry) LastSplit() [4]time.Duration { return r.split }

// MaxChunks returns the most maintain chunks any Apply cut the worklist into.
func (r *Registry) MaxChunks() int { return r.maxChunks }
