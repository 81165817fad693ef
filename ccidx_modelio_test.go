package ccidx_test

import (
	"testing"

	"ccidx"
	"ccidx/internal/core"
	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// TestModelIOsMatchUncachedTraversal pins the paper-model I/O count —
// device I/Os plus the page reads the decoded control cache spared — on the
// E1, E5 and E20 benchmark inputs to the totals the same loops cost when
// every metablock visit read its control blob from its pages (measured at
// the commit before the cache existed). Equality means the cache changes no
// traversal decision: same pages consulted, some of them from memory.
func TestModelIOsMatchUncachedTraversal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 100k-record indexes")
	}
	check := func(name string, st ccidx.Stats, want int64) {
		t.Helper()
		if got := st.ModelIOs(); got != want {
			t.Errorf("%s: reads+writes+spared = %d+%d+%d = %d, want %d", name, st.Reads, st.Writes, st.Spared, got, want)
		}
		if st.Spared == 0 {
			t.Errorf("%s: no page read was spared; the cache never hit", name)
		}
	}

	n := 100000
	tr := core.New(core.Config{B: 32}, workload.DiagonalPoints(1, n, int64(4*n)))
	before := tr.Stats()
	for i := 0; i < 2*997; i++ {
		tr.DiagonalQuery(int64(i%997)*int64(4*n)/997, func(geom.Point) bool { return true })
	}
	check("E1", tr.Stats().Sub(before), 1962734)

	im := ccidx.NewIntervalManager(ccidx.Config{B: 32}, workload.UniformIntervals(5, 100000, 1<<30, 2000))
	before = im.Stats()
	for i := 0; i < 2*997; i++ {
		im.Stab(int64(i%997)*(1<<30)/997, func(ccidx.Interval) bool { return true })
	}
	check("E5", im.Stats().Sub(before), 40232)

	const span = 1 << 20
	base := workload.UniformIntervals(20, 100000, span, 1000)
	qs := workload.StabQueries(22, 2000, span)
	for _, arm := range []struct {
		name  string
		batch int
		want  int64
	}{{"E20 seq", 0, 60143}, {"E20 batch=16", 16, 44394}} {
		s := ccidx.NewShardedIntervalManager(ccidx.ShardConfig{
			Shards: 4, B: 16, Batch: 16,
			Partition: ccidx.PartitionRange, Span: span, PoolFrames: -1,
		}, base)
		before = s.Stats()
		if arm.batch == 0 {
			for _, q := range qs {
				s.Stab(q, func(ccidx.Interval) bool { return true })
			}
		} else {
			for _, bq := range workload.QueryBatches(qs, arm.batch) {
				s.StabBatch(bq, func(int, ccidx.Interval) bool { return true })
			}
		}
		check(arm.name, s.Stats().Sub(before), arm.want)
	}
}
