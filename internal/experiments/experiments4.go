package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// E16 is the partitions-versus-workers table (§4.2): for each k the same
// headway-join traffic world ticks with Workers=k unpartitioned and with
// Workers=k, Partitions=k. The message, ghost and balance columns are the
// paper's open §4.2 questions answered from the engine's own counters; the
// wall-clock columns say whether partitioning buys time on the capturing
// host. Every partition runs in one address space, so a partitioned tick
// pays ownership rescans and ghost copies that a multi-process deployment
// would pay on the wire instead.
func E16(cars int, ks []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  fmt.Sprintf("partitions vs workers (traffic, %d cars)", cars),
		Header: []string{"workers", "parts", "ms/tick", "ticks/sec", "vs unpartitioned", "msgs/tick", "ghost rows/tick", "migr/tick", "imbalance", "max part index MB"},
		Notes: "same world per k (spawned stripe-major over k stripes); parts=0 is the unpartitioned sharded driver; " +
			"msgs = ghost refresh + foreign effects + migrations; every arm is bit-identical to Workers=1 unpartitioned; " +
			"vs unpartitioned = ms/tick over the Workers=k, parts=0 arm; - = not partitioned; captured on " + hostStamp(),
	}
	for _, k := range ks {
		var base time.Duration
		for _, parts := range []int{0, k} {
			w, err := stripedTrafficWorld(cars, k, engine.Options{Workers: k, Partitions: parts}, 17)
			if err != nil {
				return t, err
			}
			d, err := tickTime(w.RunTick, ticks)
			if err != nil {
				return t, err
			}
			if parts == 0 {
				base = d
			}
			st := w.ExecStats()
			n := int64(ticks)
			maxIdx := int64(0)
			for _, b := range w.PartitionIndexBytes() {
				maxIdx = max(maxIdx, b)
			}
			tps, rel := 0.0, 0.0
			if d > 0 {
				tps = float64(time.Second) / float64(d)
			}
			if base > 0 {
				rel = float64(d) / float64(base)
			}
			row := []string{
				fmt.Sprint(k), fmt.Sprint(parts), ms(d), fmt.Sprintf("%.1f", tps),
				fmt.Sprintf("%.2f", rel),
				fmt.Sprint(st.PartMessages() / n),
				fmt.Sprint(st.GhostRows / n),
				fmt.Sprint(st.MigratedRows / n),
				fmt.Sprintf("%.2f", st.PartImbalance(parts)),
				fmt.Sprintf("%.1f", float64(maxIdx)/(1<<20)),
			}
			if parts == 0 {
				for i := 5; i < len(row); i++ {
					row[i] = "-" // no partitions, nothing to account
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
