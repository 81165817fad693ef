// Top-level benchmark harness: one testing.B target per experiment of
// DESIGN.md's index (E1..E15). The benchmarks report block I/Os per
// operation ("ios/op") through b.ReportMetric — the paper's cost model —
// alongside Go's usual ns/op and allocation figures. Run with
//
//	go test -bench=. -benchmem
//
// and regenerate the full tables with `go run ./cmd/experiments`.
package ccidx_test

import (
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"ccidx"
	"ccidx/internal/classindex"
	"ccidx/internal/core"
	"ccidx/internal/cql"
	"ccidx/internal/geom"
	"ccidx/internal/harness"
	"ccidx/internal/intervals"
	"ccidx/internal/lowerbound"
	"ccidx/internal/pst"
	"ccidx/internal/server"
	"ccidx/internal/shard"
	"ccidx/internal/threeside"
	"ccidx/internal/workload"
)

const benchB = 32

// BenchmarkE1MetablockQuery measures static diagonal-corner queries
// (Theorem 3.2).
func BenchmarkE1MetablockQuery(b *testing.B) {
	b.ReportAllocs()
	n := 100000
	tr := core.New(core.Config{B: benchB}, workload.DiagonalPoints(1, n, int64(4*n)))
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := int64(i%997) * int64(4*n) / 997
		tr.DiagonalQuery(a, func(geom.Point) bool { return true })
	}
	b.StopTimer()
	reportStats(b, tr.Stats().Sub(before))
}

// BenchmarkE2CornerStructure measures queries on a single-metablock tree,
// dominated by the Lemma 3.1 corner structure.
func BenchmarkE2CornerStructure(b *testing.B) {
	b.ReportAllocs()
	k := 2 * benchB * benchB
	tr := core.New(core.Config{B: benchB}, workload.DiagonalPoints(2, k, int64(6*k)))
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.DiagonalQuery(int64(i%199)*int64(6*k)/199, func(geom.Point) bool { return true })
	}
	b.StopTimer()
	reportStats(b, tr.Stats().Sub(before))
}

// BenchmarkE3MetablockInsert measures amortized semi-dynamic inserts
// (Theorem 3.7).
func BenchmarkE3MetablockInsert(b *testing.B) {
	b.ReportAllocs()
	tr := core.New(core.Config{B: benchB}, workload.DiagonalPoints(3, 50000, 1<<30))
	extra := workload.DiagonalPoints(4, b.N, 1<<30)
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(extra[i])
	}
	b.StopTimer()
	reportStats(b, tr.Stats().Sub(before))
}

// BenchmarkE4LowerBoundAdversary measures the Proposition 3.3 workload.
func BenchmarkE4LowerBoundAdversary(b *testing.B) {
	b.ReportAllocs()
	n := 100000
	tr := core.New(core.Config{B: benchB}, workload.LowerBoundSet(n))
	qs := workload.LowerBoundQueries(n)
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.DiagonalQuery(qs[i%len(qs)], func(geom.Point) bool { return true })
	}
	b.StopTimer()
	reportStats(b, tr.Stats().Sub(before))
}

// BenchmarkE5IntervalManagement measures stabbing queries through the
// public interval manager (Proposition 2.2).
func BenchmarkE5IntervalManagement(b *testing.B) {
	b.ReportAllocs()
	im := ccidx.NewIntervalManager(ccidx.Config{B: benchB},
		workload.UniformIntervals(5, 100000, 1<<30, 2000))
	before := im.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Stab(int64(i%997)*(1<<30)/997, func(ccidx.Interval) bool { return true })
	}
	b.StopTimer()
	reportStats(b, im.Stats().Sub(before))
}

// BenchmarkE5NaiveBaseline is the Theta(n/B) comparator for E5.
func BenchmarkE5NaiveBaseline(b *testing.B) {
	b.ReportAllocs()
	nv := intervals.NewNaive(benchB)
	for _, iv := range workload.UniformIntervals(5, 100000, 1<<30, 2000) {
		nv.Insert(iv)
	}
	before := nv.Pager().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nv.Stab(int64(i%997)*(1<<30)/997, func(geom.Interval) bool { return true })
	}
	b.StopTimer()
	reportStats(b, nv.Pager().Stats().Sub(before))
}

// BenchmarkE6ClassIndexSimple measures the Theorem 2.6 index.
func BenchmarkE6ClassIndexSimple(b *testing.B) {
	b.ReportAllocs()
	h := workload.RandomHierarchy(6, 255)
	idx := classindex.NewSimple(h, benchB)
	for _, o := range workload.Objects(7, h, 50000, 1<<20) {
		idx.Insert(o)
	}
	before := idx.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1 := int64(i%97) * (1 << 20) / 97
		idx.Query((i*31)%255, a1, a1+(1<<20)/20, func(int64, uint64) bool { return true })
	}
	b.StopTimer()
	reportStats(b, idx.Stats().Sub(before))
}

// BenchmarkE7ExternalPST measures the Lemma 4.1 structure.
func BenchmarkE7ExternalPST(b *testing.B) {
	b.ReportAllocs()
	tree := pst.Build(benchB, workload.UniformPoints(8, 100000, 1<<20))
	before := tree.Pager().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := int64(i%97) * (1 << 20) / 97
		tree.Query(geom.ThreeSidedQuery{X1: x1, X2: x1 + (1<<20)/50, Y: int64(i%89) * (1 << 20) / 89},
			func(geom.Point) bool { return true })
	}
	b.StopTimer()
	reportStats(b, tree.Pager().Stats().Sub(before))
}

// BenchmarkE8ThreeSidedMetablock measures the Lemma 4.3 structure.
func BenchmarkE8ThreeSidedMetablock(b *testing.B) {
	b.ReportAllocs()
	tree := threeside.New(threeside.Config{B: benchB}, workload.UniformPoints(9, 100000, 1<<20))
	before := tree.Pager().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := int64(i%97) * (1 << 20) / 97
		tree.Query(geom.ThreeSidedQuery{X1: x1, X2: x1 + (1<<20)/50, Y: int64(i%89) * (1 << 20) / 89},
			func(geom.Point) bool { return true })
	}
	b.StopTimer()
	reportStats(b, tree.Pager().Stats().Sub(before))
}

// BenchmarkE9ClassIndexFull measures the Theorem 4.7 index.
func BenchmarkE9ClassIndexFull(b *testing.B) {
	b.ReportAllocs()
	h := workload.RandomHierarchy(10, 255)
	idx := classindex.NewRakeContract(h, benchB)
	for _, o := range workload.Objects(11, h, 50000, 1<<20) {
		idx.Insert(o)
	}
	before := idx.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1 := int64(i%97) * (1 << 20) / 97
		idx.Query((i*17)%255, a1, a1+(1<<20)/20, func(int64, uint64) bool { return true })
	}
	b.StopTimer()
	reportStats(b, idx.Stats().Sub(before))
}

// BenchmarkE10Tessellation measures the Lemma 2.7 strategy evaluation.
func BenchmarkE10Tessellation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bb := range []int{16, 64} {
			lowerbound.StrategyReports(4*bb, bb)
		}
	}
}

// BenchmarkE11ClassLowerBound measures the Theorem 2.8 star instance.
func BenchmarkE11ClassLowerBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lowerbound.StrategyReports(64, 64)
	}
}

// BenchmarkE12RectangleIntersection measures Example 2.1 end to end.
func BenchmarkE12RectangleIntersection(b *testing.B) {
	b.ReportAllocs()
	pts := workload.UniformPoints(12, 300, 10000)
	rects := make([]geom.Rect, len(pts))
	for i, p := range pts {
		rects[i] = geom.Rect{Name: uint64(i + 1), X1: p.X, Y1: p.Y, X2: p.X + 300, Y2: p.Y + 300}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cql.IntersectingPairs(rects, cql.Config{B: benchB})
	}
}

// BenchmarkE13AblationNoTS quantifies the Type-IV amortization (E13).
func BenchmarkE13AblationNoTS(b *testing.B) {
	b.ReportAllocs()
	n := 100000
	pts := workload.DiagonalPoints(13, n, 1<<24)
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"withTS", core.Config{B: benchB}},
		{"noTS", core.Config{B: benchB, DisableTS: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			tr := core.New(cfg.c, pts)
			before := tr.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.DiagonalQuery(int64(i%199)*(1<<24)/199, func(geom.Point) bool { return true })
			}
			b.StopTimer()
			reportStats(b, tr.Stats().Sub(before))
		})
	}
}

// BenchmarkE14AblationNoCorner quantifies the Lemma 3.1 structure (E14):
// one metablock with mixed-height columns so that every vertical chunk
// straddles the query line (the harness experiment's workload).
func BenchmarkE14AblationNoCorner(b *testing.B) {
	b.ReportAllocs()
	n := benchB * benchB
	pts := make([]geom.Point, n)
	for i := range pts {
		x := int64(i) * 4
		y := x + int64(i%13)
		if i%benchB == 0 {
			y = x + (1 << 20)
		}
		pts[i] = geom.Point{X: x, Y: y, ID: uint64(i)}
	}
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"withCorner", core.Config{B: benchB}},
		{"noCorner", core.Config{B: benchB, DisableCorner: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			tr := core.New(cfg.c, pts)
			before := tr.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.DiagonalQuery(int64(i%199)*4*int64(n)/199+1, func(geom.Point) bool { return true })
			}
			b.StopTimer()
			reportStats(b, tr.Stats().Sub(before))
		})
	}
}

// BenchmarkE15ClassStrategies compares every class-indexing strategy on the
// same workload.
func BenchmarkE15ClassStrategies(b *testing.B) {
	b.ReportAllocs()
	h := workload.RandomHierarchy(15, 255)
	objs := workload.Objects(16, h, 30000, 1<<20)
	si := classindex.NewSimple(h, benchB)
	fe := classindex.NewFullExtent(h, benchB)
	st := classindex.NewSingleTreeFilter(h, benchB)
	rc := classindex.NewRakeContract(h, benchB)
	type strat struct {
		name string
		idx  interface {
			Insert(classindex.Object)
			Query(int, int64, int64, classindex.EmitObject)
		}
		ios func() int64
	}
	strategies := []strat{
		{"simple", si, func() int64 { return si.Stats().IOs() }},
		{"fullExtent", fe, func() int64 { return fe.Stats().IOs() }},
		{"singleTreeFilter", st, func() int64 { return st.Stats().IOs() }},
		{"rakeContract", rc, func() int64 { return rc.Stats().IOs() }},
	}
	for _, s := range strategies {
		for _, o := range objs {
			s.idx.Insert(o)
		}
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			before := s.ios()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a1 := int64(i%97) * (1 << 20) / 97
				s.idx.Query((i*13)%255, a1, a1+(1<<20)/20, func(int64, uint64) bool { return true })
			}
			b.StopTimer()
			report(b, s.ios()-before)
		})
	}
}

// BenchmarkE16ShardScaling measures mixed insert/query throughput of the
// concurrent sharded serving layer per shard count (E16): range-partitioned
// shards, 1 insert per 8 stabbing queries, parallel workers.
func BenchmarkE16ShardScaling(b *testing.B) {
	b.ReportAllocs()
	const span = 1 << 20
	base := workload.UniformIntervals(16, 100000, span, 4000)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			s := ccidx.NewShardedIntervalManager(ccidx.ShardConfig{
				Shards: shards, B: benchB, Batch: 16,
				Partition: ccidx.PartitionRange, Span: span,
			}, base)
			before := s.Stats()
			var workers atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seed := workers.Add(1)
				rng := rand.New(rand.NewSource(seed))
				i := 0
				for pb.Next() {
					if i%8 == 7 {
						lo := rng.Int63n(span)
						s.Insert(ccidx.Interval{Lo: lo, Hi: lo + rng.Int63n(4000),
							ID: uint64(seed)<<32 | uint64(i)})
					} else {
						s.Stab(rng.Int63n(span), func(ccidx.Interval) bool { return true })
					}
					i++
				}
			})
			b.StopTimer()
			report(b, s.Stats().Sub(before).IOs())
		})
	}
}

// BenchmarkE17BatchedInsert measures concurrent insert throughput per
// group-commit batch size (E17); ios/op shows the amortized block I/O is
// unchanged by batching.
func BenchmarkE17BatchedInsert(b *testing.B) {
	b.ReportAllocs()
	const span = 1 << 20
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			s := ccidx.NewShardedIntervalManager(ccidx.ShardConfig{
				Shards: 4, B: benchB, Batch: batch,
				Partition: ccidx.PartitionRange, Span: span,
			}, nil)
			before := s.Stats()
			var workers atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seed := workers.Add(1)
				rng := rand.New(rand.NewSource(seed))
				i := 0
				for pb.Next() {
					lo := rng.Int63n(span)
					s.Insert(ccidx.Interval{Lo: lo, Hi: lo + rng.Int63n(4000),
						ID: uint64(seed)<<32 | uint64(i)})
					i++
				}
			})
			b.StopTimer()
			s.Flush()
			report(b, s.Stats().Sub(before).IOs())
		})
	}
}

// BenchmarkE19Churn measures mixed insert/delete/query churn through the
// public interval manager (E19): weak deletes + global rebuilding. Each
// 4-op cycle inserts a fresh interval, stabs, deletes it again and stabs,
// so deletes always target live ids at any b.N.
func BenchmarkE19Churn(b *testing.B) {
	b.ReportAllocs()
	const span = int64(1 << 30)
	im := ccidx.NewIntervalManager(ccidx.Config{B: benchB},
		workload.UniformIntervals(19, 100000, span, 2000))
	rng := rand.New(rand.NewSource(19))
	before := im.Stats()
	b.ResetTimer()
	var cur uint64
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0:
			lo := rng.Int63n(span)
			cur = uint64(1<<32) + uint64(i)
			im.Insert(ccidx.Interval{Lo: lo, Hi: lo + rng.Int63n(2000), ID: cur})
		case 2:
			if !im.Delete(cur) {
				b.Fatal("churn delete failed")
			}
		default:
			im.Stab(rng.Int63n(span), func(ccidx.Interval) bool { return true })
		}
	}
	b.StopTimer()
	reportStats(b, im.Stats().Sub(before))
}

// BenchmarkE20BatchedStab measures batched query execution through the
// sharded serving layer (E20): the identical stabbing stream issued
// sequentially and at increasing batch sizes. ios/op is the headline — the
// shared traversal amortizes the per-query search term, locks and pending
// replays across the batch. Pools are disabled so the saving shows in the
// I/O counters (the paper's bare cost model), exactly like the E20 table.
func BenchmarkE20BatchedStab(b *testing.B) {
	b.ReportAllocs()
	const span = 1 << 20
	base := workload.UniformIntervals(20, 100000, span, 1000)
	for _, batch := range []int{0, 1, 16, 256} {
		name := "seq"
		if batch > 0 {
			name = fmt.Sprintf("batch=%d", batch)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := ccidx.NewShardedIntervalManager(ccidx.ShardConfig{
				Shards: 4, B: 16, Batch: 16,
				Partition: ccidx.PartitionRange, Span: span, PoolFrames: -1,
			}, base)
			qs := workload.StabQueries(22, b.N, span)
			before := s.Stats()
			b.ResetTimer()
			if batch == 0 {
				for _, q := range qs {
					s.Stab(q, func(ccidx.Interval) bool { return true })
				}
			} else {
				for _, bq := range workload.QueryBatches(qs, batch) {
					s.StabBatch(bq, func(int, ccidx.Interval) bool { return true })
				}
			}
			b.StopTimer()
			reportStats(b, s.Stats().Sub(before))
		})
	}
}

// BenchmarkStabPendingReplay isolates the pending-op-log replay against a
// deliberately large group-commit buffer: the per-query path (one full log
// scan per Stab, unchanged by the batching work) versus the batched path
// (one grouped replay per batch). Guards the sequential path against
// regressions while the batch path amortizes.
func BenchmarkStabPendingReplay(b *testing.B) {
	b.ReportAllocs()
	const span = 1 << 20
	mk := func() *ccidx.ShardedIntervalManager {
		s := ccidx.NewShardedIntervalManager(ccidx.ShardConfig{
			Shards: 1, B: benchB, Batch: 4096, // large: the buffer never flushes
			Partition: ccidx.PartitionRange, Span: span,
		}, workload.UniformIntervals(23, 20000, span, 2000))
		rng := rand.New(rand.NewSource(24))
		for i := 0; i < 2048; i++ { // a fat pending op log
			lo := rng.Int63n(span)
			s.Insert(ccidx.Interval{Lo: lo, Hi: lo + rng.Int63n(2000), ID: uint64(1)<<40 | uint64(i)})
		}
		return s
	}
	b.Run("perQuery", func(b *testing.B) {
		b.ReportAllocs()
		s := mk()
		qs := workload.StabQueries(25, b.N, span)
		b.ResetTimer()
		for _, q := range qs {
			s.Stab(q, func(ccidx.Interval) bool { return true })
		}
	})
	b.Run("batch=256", func(b *testing.B) {
		b.ReportAllocs()
		s := mk()
		qs := workload.StabQueries(25, b.N, span)
		b.ResetTimer()
		for _, bq := range workload.QueryBatches(qs, 256) {
			s.StabBatch(bq, func(int, ccidx.Interval) bool { return true })
		}
	})
}

// BenchmarkE22ServerStab measures stabbing queries through the HTTP
// serving front-end (E22). The sequential arm runs one client with
// batching off and pools off, so its ios/op is deterministic and gated
// like every other tier-1 benchmark; the concurrent arm reports wall-clock
// only (its per-query I/O depends on how the auto-batcher coalesces the
// racing clients, which is timing-dependent by nature).
func BenchmarkE22ServerStab(b *testing.B) {
	const span = 1 << 20
	base := workload.UniformIntervals(26, 100000, span, 1000)
	mk := func(disableBatching bool) (*shard.Intervals, *httptest.Server, func()) {
		s := shard.NewIntervals(shard.Config{
			Shards: 4, B: 16, Batch: 16,
			Partition: shard.PartitionRange, Span: span, PoolFrames: -1,
		}, base)
		srv, err := server.New(server.Backend{Intervals: s}, server.Config{
			DisableBatching: disableBatching,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return s, ts, func() { ts.Close(); srv.Close() }
	}
	get := func(client *http.Client, url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		s, ts, stop := mk(true)
		defer stop()
		qs := workload.StabQueries(27, b.N, span)
		client := &http.Client{}
		before := s.Stats()
		b.ResetTimer()
		for _, q := range qs {
			get(client, fmt.Sprintf("%s/v1/stab?q=%d", ts.URL, q))
		}
		b.StopTimer()
		reportStats(b, s.Stats().Sub(before))
	})
	b.Run("concurrent=32", func(b *testing.B) {
		b.ReportAllocs()
		_, ts, stop := mk(false)
		defer stop()
		var next atomic.Int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < 32; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(28 + c)))
				client := &http.Client{}
				for next.Add(1) <= int64(b.N) {
					get(client, fmt.Sprintf("%s/v1/stab?q=%d", ts.URL, rng.Int63n(span)))
				}
			}(c)
		}
		wg.Wait()
		// No ios/op: coalescing depth (and so per-query I/O) is
		// scheduling-dependent under concurrency.
	})
}

// BenchmarkHarnessE1Table regenerates the E1 table (kept cheap by writing to
// io.Discard); the other tables run through cmd/experiments.
// BenchmarkE21DurableStab measures stabbing queries against the
// FILE-BACKED interval manager (E21): the ios/op must match
// BenchmarkE5IntervalManagement's in-memory figure (the structures are
// device-oblivious); the ns/op difference is the price of real page reads.
func BenchmarkE21DurableStab(b *testing.B) {
	b.ReportAllocs()
	n := 100000
	ivs := workload.UniformIntervals(5, n, int64(1<<20), 1<<14)
	m, err := intervals.CreateAt(b.TempDir(), intervals.Config{B: benchB}, ivs, intervals.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.CloseFiles()
	before := m.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := int64(i%997) * int64(1<<20) / 997
		m.Stab(q, func(geom.Interval) bool { return true })
	}
	b.StopTimer()
	reportStats(b, m.Stats().Sub(before))
}

// BenchmarkE21ColdOpen measures restartable serving: reopening a
// checkpointed durable manager (recovery + root reattachment + the O(n/B)
// id-directory rebuild scan), reporting the block reads per open.
func BenchmarkE21ColdOpen(b *testing.B) {
	b.ReportAllocs()
	n := 100000
	ivs := workload.UniformIntervals(7, n, int64(1<<20), 1<<14)
	dir := b.TempDir()
	m, err := intervals.CreateAt(dir, intervals.Config{B: benchB}, ivs, intervals.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m.CloseFiles()
	var ios int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := intervals.OpenAt(dir, intervals.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ios += r.Stats().IOs()
		r.CloseFiles()
	}
	b.StopTimer()
	report(b, ios)
}

// BenchmarkE23WalAppend measures a WAL-logged insert on the durable
// manager under the default group-commit policy: one tree insert plus one
// log append, with fsync deferred to the checkpoint boundary. Compare
// ns/op against a DisableWAL run to see the logging overhead E23 tables.
func BenchmarkE23WalAppend(b *testing.B) {
	b.ReportAllocs()
	n := 50000
	span := int64(1 << 20)
	ivs := workload.UniformIntervals(11, n, span, 1<<14)
	m, err := intervals.CreateAt(b.TempDir(), intervals.Config{B: benchB}, ivs, intervals.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.CloseFiles()
	m.AttachPool(4096, 8)
	rng := rand.New(rand.NewSource(13))
	before := m.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(span)
		m.Insert(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(1<<14) + 1, ID: uint64(n + i + 1)})
	}
	b.StopTimer()
	report(b, m.Stats().Sub(before).IOs())
}

// BenchmarkE25Ingest measures a WAL-logged insert on the durable manager in
// log-structured ingest mode: one log append plus a memtable write, with
// tree construction deferred to the background merge path. Compare ios/op
// against BenchmarkE23WalAppend — the same acked durability on the rebuild
// path — to see the foreground saving E25 tables.
func BenchmarkE25Ingest(b *testing.B) {
	b.ReportAllocs()
	n := 50000
	span := int64(1 << 20)
	ivs := workload.UniformIntervals(11, n, span, 1<<14)
	m, err := intervals.CreateAt(b.TempDir(), intervals.Config{
		B:      benchB,
		Ingest: &intervals.IngestConfig{MemtableSize: 4096, MaxRuns: 8},
	}, ivs, intervals.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.CloseFiles()
	rng := rand.New(rand.NewSource(13))
	before := m.Stats().IOs() + m.FileWrites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(span)
		m.Insert(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(1<<14) + 1, ID: uint64(n + i + 1)})
	}
	b.StopTimer()
	report(b, m.Stats().IOs()+m.FileWrites()-before)
}

// BenchmarkE25MergeAmplification measures the TOTAL device write cost of
// log-structured churn — WAL appends plus every flush, tiered merge, and
// dead-fraction compaction, drained synchronously so nothing is deferred
// past the timer. This is the write-amplification side of the E25 frontier;
// ios/op here bounds what the background merger pays for the foreground
// savings BenchmarkE25Ingest shows.
func BenchmarkE25MergeAmplification(b *testing.B) {
	b.ReportAllocs()
	n := 20000
	span := int64(1 << 20)
	ivs := workload.UniformIntervals(17, n, span, 1<<14)
	m, err := intervals.CreateAt(b.TempDir(), intervals.Config{
		B:      benchB,
		Ingest: &intervals.IngestConfig{MemtableSize: 1024, MaxRuns: 4, SyncCompaction: true},
	}, ivs, intervals.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.CloseFiles()
	rng := rand.New(rand.NewSource(19))
	live := make([]uint64, 0, n)
	for _, iv := range ivs {
		live = append(live, iv.ID)
	}
	next := uint64(n + 1)
	before := m.FileWrites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 3 && len(live) > 0 {
			j := rng.Intn(len(live))
			m.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		lo := rng.Int63n(span)
		m.Insert(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(1<<14) + 1, ID: next})
		live = append(live, next)
		next++
	}
	b.StopTimer()
	report(b, m.FileWrites()-before)
}

func BenchmarkHarnessE1Table(b *testing.B) {
	b.ReportAllocs()
	e, _ := harness.Lookup("E1")
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard)
	}
}

// BenchmarkCQLSatisfiability measures the exact-rational constraint solver.
func BenchmarkCQLSatisfiability(b *testing.B) {
	b.ReportAllocs()
	c := cql.NewConj(4, 0,
		cql.VarVar(0, cql.LE, 1), cql.VarVar(1, cql.LT, 2), cql.VarVar(2, cql.LE, 3),
		cql.VarConst(0, cql.GE, big.NewRat(1, 3)), cql.VarConst(3, cql.LE, big.NewRat(7, 2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Satisfiable() {
			b.Fatal("unsat")
		}
	}
}

// report attaches the ios/op metric.
func report(b *testing.B, ios int64) {
	b.ReportMetric(float64(ios)/float64(b.N), "ios/op")
}

// reportStats reports an unpooled structure's cost twice: ios/op is the
// paper-model count (device I/Os plus the page reads the decoded control
// cache spared: every page a traversal consults costs one), pages/op the
// accesses that actually reached the store. The two differ only where a
// metablock tree answers queries.
func reportStats(b *testing.B, st ccidx.Stats) {
	report(b, st.ModelIOs())
	b.ReportMetric(float64(st.IOs())/float64(b.N), "pages/op")
}
