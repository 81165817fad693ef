package harness

// E19: churn — weak deletes + global rebuilding on the interval manager.
// The paper's metablock structures are semi-dynamic (deletion is its closing
// open problem); the engineering answer implemented in this repository is
// per-record tombstones filtered by the query emit funnel plus a full static
// rebuild once tombstones exceed alpha = 1/2 of the live count (see
// DESIGN.md). The reproducible claims measured here:
//
//   - amortized delete I/O stays within a small constant factor of insert
//     I/O at every scale (the tombstone is free; the B+-tree delete and the
//     rebuild share are the whole bill);
//   - query I/O under churn keeps the O(log_B n + t/B) shape — the physical
//     structure a query walks is never more than 1.5x the live set;
//   - space tracks the live count instead of the insert-ever count.

import (
	"fmt"
	"io"

	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

func runE19(w io.Writer) {
	b := 16
	const maxLenDiv = 256 // interval length <= span/256 keeps outputs small
	fmt.Fprintf(w, "B=%d; static build of n intervals, then 2n churn ops (3 ins : 3 del : 2 qry).\n", b)
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %9s %12s %12s\n",
		"n", "ins I/O", "del I/O", "del/ins", "qry I/O", "rebuilds", "blk before", "blk after")
	for _, n := range []int{4000, 16000, 64000} {
		span := int64(64 * n)
		maxLen := span / maxLenDiv
		ivs := workload.UniformIntervals(19, n, span, maxLen)
		mgr := intervals.New(intervals.Config{B: b}, ivs)
		ops := workload.ChurnOps(190+int64(n), workload.SeqIDs(n), uint64(n), 2*n, span, maxLen)
		spaceBefore := mgr.SpaceBlocks()

		var insIOs, delIOs, qryIOs int64
		var insN, delN, qryN int64
		for _, op := range ops {
			before := mgr.Stats()
			switch op.Kind {
			case workload.ChurnInsert:
				mgr.Insert(op.Iv)
				insIOs += mgr.Stats().Sub(before).ModelIOs()
				insN++
			case workload.ChurnDelete:
				if !mgr.Delete(op.ID) {
					panic("E19: churn stream deleted an absent id")
				}
				delIOs += mgr.Stats().Sub(before).ModelIOs()
				delN++
			case workload.ChurnStab:
				mgr.Stab(op.Q, func(geom.Interval) bool { return true })
				qryIOs += mgr.Stats().Sub(before).ModelIOs()
				qryN++
			case workload.ChurnIntersect:
				mgr.Intersect(op.QIv, func(geom.Interval) bool { return true })
				qryIOs += mgr.Stats().Sub(before).ModelIOs()
				qryN++
			}
		}
		insPer := float64(insIOs) / float64(insN)
		delPer := float64(delIOs) / float64(delN)
		qryPer := float64(qryIOs) / float64(qryN)
		fmt.Fprintf(w, "%8d %10.1f %10.1f %10.2f %10.1f %9d %12d %12d\n",
			n, insPer, delPer, delPer/insPer, qryPer, mgr.Rebuilds(),
			spaceBefore, mgr.SpaceBlocks())
	}
	fmt.Fprintln(w, "shape check: del/ins stays a small constant across scales (the delete is a")
	fmt.Fprintln(w, "B+-tree delete + a free tombstone + an amortized rebuild share, Lemma 3.6-style")
	fmt.Fprintln(w, "charging); rebuilds fire at the alpha threshold and keep space ~ live count.")
}
