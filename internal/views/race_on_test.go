//go:build race

package views_test

// raceEnabled reports the race detector is instrumenting this build: its
// shadow-memory cost grows with the working set, which makes wall-clock
// ratios between differently sized registries meaningless.
const raceEnabled = true
