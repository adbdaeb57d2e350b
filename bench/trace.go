package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one frame (or
// round, or period) share ID; Parent indexes the span that caused this one,
// -1 for a frame root. Times are nanoseconds since the process started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same code path runs traced and untraced. It is used from
// one goroutine at a time: single-world workloads record from the driving
// goroutine (the engine calls its policy and component hooks there), and
// fleet workloads build their spans after the fact from per-world
// timestamp arrays.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// epoch is the zero of every recorded time: spans and the fleets' world
// records share one clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now(), Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = now()
	}
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int, id, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// covered is the length of the union of the children's intervals, clipped
// to the parent — children of a fleet frame run in parallel and overlap.
func covered(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := parent.Start
	for _, c := range children {
		s, e := max(c.Start, at), min(c.End, parent.End)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// attribution is what the traced pass prints: per layer (span name) the
// summed self time — duration minus the part its children cover — and the
// share of frame wall time the frames' direct children explain.
type attribution struct {
	selfNs    map[string]int64
	frameNs   int64
	explained float64
}

func (t *tracer) attribute() attribution {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	a := attribution{selfNs: make(map[string]int64)}
	var explainedNs int64
	for i, s := range t.spans {
		c := covered(s, kids[i])
		a.selfNs[s.Name] += s.End - s.Start - c
		if s.Parent < 0 {
			a.frameNs += s.End - s.Start
			explainedNs += c
		}
	}
	if a.frameNs > 0 {
		a.explained = float64(explainedNs) / float64(a.frameNs)
	}
	return a
}

func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
