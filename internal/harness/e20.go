package harness

// E20: batched query execution — the read-side dual of E17's group commit.
// The identical stabbing-query stream runs against the sharded serving
// layer sequentially (one Stab per call) and batched (StabBatch) at batch
// sizes 1..1024, measuring device I/Os per query, allocations per query
// and throughput.
//
// The workload is E16-style: uniform intervals over a range-partitioned
// sharded manager, stabbing floods — with interval lengths at a quarter of
// E16's so the O(log_B n) search term, the part a shared traversal can
// amortize, dominates the un-amortizable output term t/B (longer intervals
// only raise that floor; the amortization of the search term is identical).
// Pooling is DISABLED (PoolFrames -1, the paper's bare
// every-access-is-an-I/O cost model) so the shared-traversal saving is
// visible in the I/O counters themselves rather than hidden behind buffer
// pool hits: sequentially, every query re-reads the structure's upper
// levels and replays the pending op log; batched, each shard-group pays
// those once per batch. The reproducible shapes: ios/query and
// allocs/query fall monotonically with the batch size (>= 2x fewer I/Os
// per query by batch 256), and batch=1 costs the sequential path's I/Os.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ccidx/internal/geom"
	"ccidx/internal/shard"
	"ccidx/internal/workload"
)

// E20BatchSizes is the batch-size sweep of E20; cmd/experiments overrides
// it with the -qbatch flag.
var E20BatchSizes = []int{1, 4, 16, 64, 256, 1024}

// E20Intervals scales the E20 interval count; cmd/experiments overrides it
// with -e20n (the CI smoke run uses a small value).
var E20Intervals = 100000

func runE20(w io.Writer) {
	n := E20Intervals
	const shards = 4
	nq := 8192
	if nq > 4*n {
		nq = 4 * n
	}
	s := shard.NewIntervals(shard.Config{
		Shards: shards, B: 16, Batch: 16, Partition: shard.PartitionRange,
		Span: e16Span, PoolFrames: -1,
	}, workload.UniformIntervals(20, n, e16Span, e16MaxLen/4))
	// A sprinkle of extra inserts keeps the pending op logs non-empty, so
	// the per-batch (vs per-query) replay is part of what is measured.
	for i, iv := range workload.UniformIntervals(21, 64, e16Span, e16MaxLen) {
		iv.ID = uint64(1)<<40 | uint64(i)
		s.Insert(iv)
	}
	qs := workload.StabQueries(22, nq, e16Span)

	fmt.Fprintf(w, "E16-style workload: n=%d uniform intervals (maxLen %d), B=16, %d range shards, pools off;\n",
		n, e16MaxLen/4, shards)
	fmt.Fprintf(w, "%d stabbing queries, identical stream per row.\n", nq)
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s %10s\n",
		"batch", "qry/sec", "ios/query", "allocs/query", "t/query", "vs seq")

	var results int64
	emit := func(int, geom.Interval) bool { results++; return true }
	run := func(label string, batch int) (iosPer, allocsPer float64) {
		results = 0
		before := s.Stats()
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if batch == 0 {
			for _, q := range qs {
				s.Stab(q, func(iv geom.Interval) bool { results++; return true })
			}
		} else {
			for _, b := range workload.QueryBatches(qs, batch) {
				s.StabBatch(b, emit)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		ios := s.Stats().Sub(before).ModelIOs()
		fq := float64(nq)
		iosPer = float64(ios) / fq
		allocsPer = float64(ms1.Mallocs-ms0.Mallocs) / fq
		fmt.Fprintf(w, "%10s %12.0f %12.2f %12.1f %12.1f", label,
			fq/elapsed.Seconds(), iosPer, allocsPer, float64(results)/fq)
		return iosPer, allocsPer
	}

	seqIOs, _ := run("seq", 0)
	fmt.Fprintf(w, "%10s\n", "1.00x")
	for _, k := range E20BatchSizes {
		iosPer, _ := run(fmt.Sprintf("%d", k), k)
		fmt.Fprintf(w, "%9.2fx\n", seqIOs/iosPer)
	}
	fmt.Fprintln(w, "shape check: ios/query and allocs/query fall monotonically with the batch")
	fmt.Fprintln(w, "size — the log_B search term, the lock acquisitions and the pending-log")
	fmt.Fprintln(w, "replays amortize across the batch — while t/query stays identical (the")
	fmt.Fprintln(w, "batched path answers exactly the sequential multiset per query). The")
	fmt.Fprintln(w, "residual floor is the output's own t/B plus the per-shard leaf touches.")
}
