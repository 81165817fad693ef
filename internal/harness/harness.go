// Package harness runs the reproduction experiments E1-E20 (see DESIGN.md
// for the mapping from the paper's theorems, lemmas and figures to
// experiment ids). E1-E15 print tables of measured block I/Os against the
// paper's bound formulas; E16-E17 measure the concurrent sharded serving
// layer; E18 ablates the read path; E19 measures churn through the weak
// delete + global rebuilding machinery; E20 measures batched query
// execution. EXPERIMENTS.md records the outputs.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"math/big"

	"ccidx/internal/classindex"
	"ccidx/internal/core"
	"ccidx/internal/cql"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/lowerbound"
	"ccidx/internal/pst"
	"ccidx/internal/threeside"
	"ccidx/internal/workload"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer)
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 3.2: static metablock tree query I/O", runE1},
		{"E2", "Lemma 3.1: corner structure query and space", runE2},
		{"E3", "Theorem 3.7: semi-dynamic metablock inserts", runE3},
		{"E4", "Proposition 3.3: lower-bound adversary", runE4},
		{"E5", "Proposition 2.2: interval management vs naive", runE5},
		{"E6", "Theorem 2.6: simple class index", runE6},
		{"E7", "Lemma 4.1: external priority search tree", runE7},
		{"E8", "Lemma 4.3: 3-sided metablock tree", runE8},
		{"E9", "Theorem 4.7: rake-and-contract class index", runE9},
		{"E10", "Lemma 2.7: tessellation lower bound (Fig 7)", runE10},
		{"E11", "Theorem 2.8: class-indexing tessellation bound", runE11},
		{"E12", "Example 2.1: CQL rectangle intersection", runE12},
		{"E13", "Ablation: metablock tree without TS structures", runE13},
		{"E14", "Ablation: metablock tree without corner structures", runE14},
		{"E15", "Class indexing strategy matrix", runE15},
		{"E16", "Shard scaling: query throughput vs shard count", runE16},
		{"E17", "Batched insert amortization (group commit)", runE17},
		{"E18", "Read-path ablation: copy vs zero-copy view vs buffer pool vs decoded control cache", runE18},
		{"E19", "Churn: weak deletes + global rebuilding", runE19},
		{"E20", "Batched query execution: shared-traversal reads", runE20},
		{"E21", "Durable storage: cold-open I/O, durable vs simulated throughput", runE21},
		{"E22", "Serving front-end: adaptive auto-batching under concurrent load", runE22},
		{"E23", "Write-ahead logging: mutation overhead and recovery time", runE23},
		{"E24", "Replicated reads: router scaling and kill-one-replica availability", runE24},
		{"E25", "Write-optimized ingest: log-structured decomposition frontier", runE25},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func logB(n, b int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log(float64(n)) / math.Log(float64(b))
}

func log2(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// --- E1 ----------------------------------------------------------------------

func runE1(w io.Writer) {
	b := 16
	fmt.Fprintf(w, "B=%d, uniform diagonal points; 64 random corner queries per n.\n", b)
	fmt.Fprintf(w, "%8s %10s %10s %12s %14s\n", "n", "avg t", "avg I/O", "logB(n)+t/B", "I/O per unit")
	for _, n := range []int{1000, 4000, 16000, 64000, 256000} {
		tr := core.New(core.Config{B: b}, workload.DiagonalPoints(1, n, int64(4*n)))
		var ios, tt int64
		queries := 64
		for i := 0; i < queries; i++ {
			a := int64(i) * int64(4*n) / int64(queries)
			before := tr.Stats()
			tr.DiagonalQuery(a, func(geom.Point) bool { tt++; return true })
			ios += tr.Stats().Sub(before).ModelIOs()
		}
		unit := logB(n, b) + float64(tt)/float64(queries)/float64(b)
		fmt.Fprintf(w, "%8d %10.1f %10.1f %12.1f %14.2f\n",
			n, float64(tt)/float64(queries), float64(ios)/float64(queries), unit,
			float64(ios)/float64(queries)/unit)
	}
	fmt.Fprintln(w, "shape check: I/O per unit must stay ~constant as n grows (Theorem 3.2).")
}

// --- E2 ----------------------------------------------------------------------

func runE2(w io.Writer) {
	fmt.Fprintf(w, "%4s %8s %12s %12s %14s\n", "B", "k", "starPts/k", "max I/O", "max 2t/B+c")
	for _, b := range []int{8, 16, 32} {
		tr := core.New(core.Config{B: b}, nil)
		k := 2 * b * b
		pts := workload.DiagonalPoints(2, k, int64(6*k))
		// Build a corner structure via a tree over exactly these points: the
		// root metablock of a small tree owns them all when k <= 2B^2... we
		// exercise it through stab queries on a dedicated tree instead.
		tr2 := core.New(core.Config{B: b}, pts)
		_ = tr
		maxRatio := 0.0
		worstIOs := int64(0)
		for q := 0; q < 200; q++ {
			a := int64(q) * int64(6*k) / 200
			before := tr2.Stats()
			t := 0
			tr2.DiagonalQuery(a, func(geom.Point) bool { t++; return true })
			ios := tr2.Stats().Sub(before).ModelIOs()
			bound := 2*float64(t)/float64(b) + 12
			if r := float64(ios) / bound; r > maxRatio {
				maxRatio = r
				worstIOs = ios
			}
		}
		fmt.Fprintf(w, "%4d %8d %12s %12d %14.2f\n", b, k, "(see test)", worstIOs, maxRatio)
	}
	fmt.Fprintln(w, "Lemma 3.1's 2t/B+4 bound is asserted exhaustively in internal/core corner tests;")
	fmt.Fprintln(w, "here the end-to-end query cost on one-metablock trees confirms the constant.")
}

// --- E3 ----------------------------------------------------------------------

func runE3(w io.Writer) {
	b := 16
	fmt.Fprintf(w, "B=%d; amortized insert I/O over trailing 25%% of inserts.\n", b)
	fmt.Fprintf(w, "%8s %12s %18s %10s\n", "n", "I/O per ins", "logB+logB^2/B", "ratio")
	for _, n := range []int{4000, 16000, 64000, 128000} {
		tr := core.New(core.Config{B: b}, workload.DiagonalPoints(3, 3*n/4, 1<<30))
		before := tr.Stats()
		extra := workload.DiagonalPoints(4, n/4, 1<<30)
		for _, p := range extra {
			tr.Insert(p)
		}
		per := float64(tr.Stats().Sub(before).ModelIOs()) / float64(len(extra))
		lb := logB(n, b)
		unit := lb + lb*lb/float64(b)
		fmt.Fprintf(w, "%8d %12.1f %18.1f %10.2f\n", n, per, unit, per/unit)
	}
	fmt.Fprintln(w, "shape check: ratio ~constant (Theorem 3.7, amortized).")
}

// --- E4 ----------------------------------------------------------------------

func runE4(w io.Writer) {
	b := 16
	fmt.Fprintf(w, "Proposition 3.3 adversary S={(x,x+1)}; singleton-output queries; B=%d.\n", b)
	fmt.Fprintf(w, "%8s %10s %12s %10s\n", "n", "avg I/O", "logB(n)", "ratio")
	for _, n := range []int{1000, 8000, 64000, 256000} {
		tr := core.New(core.Config{B: b}, workload.LowerBoundSet(n))
		qs := workload.LowerBoundQueries(n)
		var ios int64
		samples := 200
		for i := 0; i < samples; i++ {
			q := qs[i*len(qs)/samples]
			before := tr.Stats()
			cnt := 0
			tr.DiagonalQuery(q, func(geom.Point) bool { cnt++; return true })
			if cnt != 1 {
				fmt.Fprintf(w, "!! query %d returned %d points, want 1\n", q, cnt)
			}
			ios += tr.Stats().Sub(before).ModelIOs()
		}
		fmt.Fprintf(w, "%8d %10.1f %12.1f %10.2f\n",
			n, float64(ios)/float64(samples), logB(n, b), float64(ios)/float64(samples)/logB(n, b))
	}
	fmt.Fprintln(w, "shape check: I/O grows with log_B n and the ratio stays ~constant;")
	fmt.Fprintln(w, "the structure meets the Omega(log_B n + t/B) lower bound within a constant.")
}

// --- E5 ----------------------------------------------------------------------

func runE5(w io.Writer) {
	b := 16
	n := 50000
	fmt.Fprintf(w, "n=%d short intervals, B=%d; 100 stabbing queries.\n", n, b)
	ivs := workload.UniformIntervals(5, n, 1<<30, 2000)
	mgr := intervals.New(intervals.Config{B: b}, ivs)
	nv := intervals.NewNaive(b)
	for _, iv := range ivs {
		nv.Insert(iv)
	}
	var mIOs, nIOs, tt int64
	for i := 0; i < 100; i++ {
		q := int64(i) * (1 << 30) / 100
		before := mgr.Stats()
		mgr.Stab(q, func(geom.Interval) bool { tt++; return true })
		mIOs += mgr.Stats().Sub(before).ModelIOs()
		bn := nv.Pager().Stats()
		nv.Stab(q, func(geom.Interval) bool { return true })
		nIOs += nv.Pager().Stats().Sub(bn).ModelIOs()
	}
	fmt.Fprintf(w, "%-22s %12s %12s\n", "structure", "avg I/O", "space(blk)")
	fmt.Fprintf(w, "%-22s %12.1f %12d\n", "interval manager", float64(mIOs)/100, mgr.SpaceBlocks())
	fmt.Fprintf(w, "%-22s %12.1f %12d\n", "naive scan", float64(nIOs)/100, nv.Pager().Allocated())
	fmt.Fprintf(w, "avg output t=%.1f; manager ~ log_B n + t/B = %.1f\n",
		float64(tt)/100, logB(n, b)+float64(tt)/100/float64(b))
	fmt.Fprintln(w, "shape check: manager beats the Theta(n/B) scan by orders of magnitude (Prop 2.2).")
}

// --- E6 ----------------------------------------------------------------------

func runE6(w io.Writer) {
	b := 16
	n := 20000
	fmt.Fprintf(w, "n=%d objects, B=%d; sweep over hierarchy size c; 100 queries each.\n", n, b)
	fmt.Fprintf(w, "%6s %12s %14s %10s %12s\n", "c", "avg qry I/O", "log2c*logB+t/B", "ratio", "space(blk)")
	for _, c := range []int{3, 15, 63, 255, 1023} {
		h := workload.RandomHierarchy(6, c)
		idx := classindex.NewSimple(h, b)
		objs := workload.Objects(7, h, n, 1<<20)
		for _, o := range objs {
			idx.Insert(o)
		}
		var ios, tt int64
		for i := 0; i < 100; i++ {
			cls := (i * 31) % c
			a1 := int64(i) * (1 << 20) / 100
			a2 := a1 + (1<<20)/20
			before := idx.Stats()
			idx.Query(cls, a1, a2, func(int64, uint64) bool { tt++; return true })
			ios += idx.Stats().Sub(before).ModelIOs()
		}
		unit := log2(c)*logB(n, b) + float64(tt)/100/float64(b)
		fmt.Fprintf(w, "%6d %12.1f %14.1f %10.2f %12d\n",
			c, float64(ios)/100, unit, float64(ios)/100/unit, idx.SpaceBlocks())
	}
	fmt.Fprintln(w, "shape check: query I/O tracks log2(c)*log_B(n)+t/B; space grows with log2 c (Thm 2.6).")
}

// --- E7 ----------------------------------------------------------------------

func runE7(w io.Writer) {
	b := 16
	fmt.Fprintf(w, "B=%d, uniform points; 100 random 3-sided queries per n.\n", b)
	fmt.Fprintf(w, "%8s %10s %14s %10s\n", "n", "avg I/O", "log2n + t/B", "ratio")
	for _, n := range []int{1000, 8000, 64000, 256000} {
		tree := pst.Build(b, workload.UniformPoints(8, n, 1<<20))
		var ios, tt int64
		for i := 0; i < 100; i++ {
			x1 := int64(i) * (1 << 20) / 100
			q := geom.ThreeSidedQuery{X1: x1, X2: x1 + (1<<20)/50, Y: int64(i%100) * (1 << 20) / 100}
			before := tree.Pager().Stats()
			tree.Query(q, func(geom.Point) bool { tt++; return true })
			ios += tree.Pager().Stats().Sub(before).ModelIOs()
		}
		unit := log2(n) + float64(tt)/100/float64(b)
		fmt.Fprintf(w, "%8d %10.1f %14.1f %10.2f\n", n, float64(ios)/100, unit, float64(ios)/100/unit)
	}
	fmt.Fprintln(w, "shape check: cost per (log2 n + t/B) unit ~constant (Lemma 4.1; log2, not logB).")
}

// --- E8 ----------------------------------------------------------------------

func runE8(w io.Writer) {
	b := 16
	fmt.Fprintf(w, "B=%d, uniform points; 100 random 3-sided queries per n.\n", b)
	fmt.Fprintf(w, "%8s %10s %20s %10s\n", "n", "avg I/O", "logBn+log2B+t/B", "ratio")
	for _, n := range []int{1000, 8000, 64000, 256000} {
		tree := threeside.New(threeside.Config{B: b}, workload.UniformPoints(9, n, 1<<20))
		var ios, tt int64
		for i := 0; i < 100; i++ {
			x1 := int64(i) * (1 << 20) / 100
			q := geom.ThreeSidedQuery{X1: x1, X2: x1 + (1<<20)/50, Y: int64(i%100) * (1 << 20) / 100}
			before := tree.Pager().Stats()
			tree.Query(q, func(geom.Point) bool { tt++; return true })
			ios += tree.Pager().Stats().Sub(before).ModelIOs()
		}
		unit := logB(n, b) + log2(b) + float64(tt)/100/float64(b)
		fmt.Fprintf(w, "%8d %10.1f %20.1f %10.2f\n", n, float64(ios)/100, unit, float64(ios)/100/unit)
	}
	fmt.Fprintln(w, "shape check: the log_B n + log2 B shape of Lemma 4.3 (vs E7's log2 n).")
}

// --- E9 ----------------------------------------------------------------------

func runE9(w io.Writer) {
	b := 16
	n := 20000
	fmt.Fprintf(w, "n=%d objects, B=%d; rake-and-contract vs simple index; 100 queries each.\n", n, b)
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s\n", "c", "rake qry I/O", "simple qry I/O", "rake space", "simple space")
	for _, c := range []int{15, 63, 255, 1023} {
		h := workload.RandomHierarchy(10, c)
		rc := classindex.NewRakeContract(h, b)
		si := classindex.NewSimple(h, b)
		objs := workload.Objects(11, h, n, 1<<20)
		for _, o := range objs {
			rc.Insert(o)
			si.Insert(o)
		}
		var rcIOs, siIOs int64
		for i := 0; i < 100; i++ {
			cls := (i * 17) % c
			a1 := int64(i) * (1 << 20) / 100
			a2 := a1 + (1<<20)/20
			before := rc.Stats()
			rc.Query(cls, a1, a2, func(int64, uint64) bool { return true })
			rcIOs += rc.Stats().Sub(before).ModelIOs()
			before = si.Stats()
			si.Query(cls, a1, a2, func(int64, uint64) bool { return true })
			siIOs += si.Stats().Sub(before).ModelIOs()
		}
		fmt.Fprintf(w, "%6d %14.1f %14.1f %14d %14d\n",
			c, float64(rcIOs)/100, float64(siIOs)/100, rc.SpaceBlocks(), si.SpaceBlocks())
	}
	fmt.Fprintln(w, "shape check: the simple index degrades with log2 c while rake-and-contract")
	fmt.Fprintln(w, "stays flat in c (Theorem 4.7 vs Theorem 2.6), at comparable space.")
}

// --- E10 / E11 ---------------------------------------------------------------

func runE10(w io.Writer) {
	fmt.Fprintln(w, "Lemma 2.7 strategies (waste = blocks touched per q/B needed):")
	for _, b := range []int{4, 16, 64, 256} {
		p := 4 * b
		for _, r := range lowerbound.StrategyReports(p, b) {
			fmt.Fprintf(w, "  %v (sqrt B = %.1f)\n", r, math.Sqrt(float64(b)))
		}
	}
	fmt.Fprintln(w, "Exhaustive optimum on Fig 7's 8x8 grid with B=4:")
	best, count := lowerbound.OptimalSearch(8, 4)
	fmt.Fprintf(w, "  %d tessellations examined; optimal waste %.2f >= sqrt(B) = 2\n", count, best)
	fmt.Fprintln(w, "shape check: no strategy, including the true optimum, achieves constant waste;")
	fmt.Fprintln(w, "max(row,col) waste >= sqrt(B), matching the k^2 >= B contradiction of Lemma 2.7.")
}

func runE11(w io.Writer) {
	fmt.Fprintln(w, "Theorem 2.8: a star hierarchy with c leaves maps class indexing onto a c x p grid;")
	fmt.Fprintln(w, "the Lemma 2.7 measurement applies verbatim with rows = classes:")
	for _, c := range []int{16, 64} {
		b := c / 4 * 4
		if b < 4 {
			b = 4
		}
		for _, r := range lowerbound.StrategyReports(c, b) {
			fmt.Fprintf(w, "  c=p=%d: %v\n", c, r)
		}
	}
	fmt.Fprintln(w, "With one copy per object and rectangular blocks, some class query misses the")
	fmt.Fprintln(w, "k*q/B bound for every fixed k — hence the replicated designs of Sections 2.2/4.")
}

// --- E12 ---------------------------------------------------------------------

func runE12(w io.Writer) {
	// Measured in the cql package through the generalized index; here we
	// report the end-to-end I/O for the Example 2.1 workload.
	fmt.Fprintln(w, "Example 2.1: all intersecting rectangle pairs through the generalized index.")
	fmt.Fprintln(w, "(correctness asserted against exhaustive geometry in internal/cql tests)")
	fmt.Fprintf(w, "%8s %10s %14s\n", "rects", "pairs", "index I/O")
	for _, n := range []int{100, 400, 1600} {
		rects := makeRects(12, n)
		rel := rectRelationIOs(rects)
		fmt.Fprintf(w, "%8d %10d %14d\n", n, rel.pairs, rel.ios)
	}
	fmt.Fprintln(w, "shape check: I/O grows ~linearly in output pairs + n log_B n, not n^2.")
}

type rectResult struct {
	pairs int
	ios   int64
}

// rectRelationIOs runs the Example 2.1 query through the generalized index,
// measuring index I/O.
func rectRelationIOs(rects []geom.Rect) rectResult {
	rel := cql.RectRelation(rects)
	idx := cql.NewGeneralizedIndex(rel, cql.RectVarX, cql.Config{B: 16})
	byName := make(map[uint64]cql.Conj, len(rects))
	for _, c := range rel.Conjs {
		byName[c.ID] = c
	}
	var res rectResult
	before := idx.Stats()
	for _, rc := range rects {
		t1 := byName[rc.Name]
		cands := idx.Select(new(big.Rat).SetInt64(rc.X1), new(big.Rat).SetInt64(rc.X2))
		for _, t2 := range cands.Conjs {
			if t2.ID <= rc.Name {
				continue
			}
			joint := t1
			for _, a := range byName[t2.ID].Atoms {
				if a.Var != cql.RectVarZ {
					joint = joint.And(a)
				}
			}
			if joint.Satisfiable() {
				res.pairs++
			}
		}
	}
	res.ios = idx.Stats().Sub(before).ModelIOs()
	return res
}

func makeRects(seed int64, n int) []geom.Rect {
	pts := workload.UniformPoints(seed, n, 10000)
	rects := make([]geom.Rect, n)
	for i, p := range pts {
		rects[i] = geom.Rect{Name: uint64(i + 1), X1: p.X, Y1: p.Y, X2: p.X + 200, Y2: p.Y + 200}
	}
	return rects
}

// --- E13 / E14 (ablations) ---------------------------------------------------

func runE13(w io.Writer) {
	b := 16
	n := 64000
	fmt.Fprintf(w, "Comb point set, B=%d, n=%d: many Type IV siblings per level.\n", b, n)
	// One point in 16 rises a bounded height M above the diagonal, the
	// rest hug it. Because the offset is bounded, the raised points stay in
	// their leaves (the global top-B^2 selection prefers larger x, not the
	// local spikes), so ~M/childWidth children straddle every query line
	// while holding only a few answers each — the exact situation the TS
	// structures amortize (Theorem 3.2's Type IV accounting).
	const spikeM = 200000
	pts := make([]geom.Point, n)
	for i := range pts {
		x := int64(i) * 16
		y := x + int64(i%13)
		if i%16 == 0 {
			y = x + spikeM
		}
		pts[i] = geom.Point{X: x, Y: y, ID: uint64(i)}
	}
	full := core.New(core.Config{B: b}, pts)
	noTS := core.New(core.Config{B: b, DisableTS: true}, pts)
	var fullIOs, noIOs int64
	for i := 0; i < 100; i++ {
		a := int64(i)*16*int64(n)/100 + 3
		before := full.Stats()
		full.DiagonalQuery(a, func(geom.Point) bool { return true })
		fullIOs += full.Stats().Sub(before).ModelIOs()
		before = noTS.Stats()
		noTS.DiagonalQuery(a, func(geom.Point) bool { return true })
		noIOs += noTS.Stats().Sub(before).ModelIOs()
	}
	fmt.Fprintf(w, "with TS structures:    %8.1f I/O per query\n", float64(fullIOs)/100)
	fmt.Fprintf(w, "without TS structures: %8.1f I/O per query\n", float64(noIOs)/100)
	fmt.Fprintln(w, "note: the TS saving is a per-level constant-vs-B effect; when the t/B")
	fmt.Fprintln(w, "output term dominates (as here) the delta is small by design — the")
	fmt.Fprintln(w, "amortization argument of Theorem 3.2 charges exactly those reads to the")
	fmt.Fprintln(w, "output. The worst-case role of TS is exercised by the bound assertions")
	fmt.Fprintln(w, "in internal/core (TestStaticQueryIOBound).")
}

func runE14(w io.Writer) {
	b := 64
	n := b * b // a single metablock: Lemma 3.1 applies within one node
	fmt.Fprintf(w, "Single metablock with mixed-height columns, B=%d, n=%d.\n", b, n)
	// Every vertical B-chunk contains one point far above the diagonal, so
	// each chunk straddles each query line: the vertical-scan fallback
	// reads every chunk left of the corner, while the corner structure of
	// Lemma 3.1 pays 2t/B + O(1).
	pts := make([]geom.Point, n)
	for i := range pts {
		x := int64(i) * 4
		y := x + int64(i%13)
		if i%b == 0 {
			y = x + (1 << 20)
		}
		pts[i] = geom.Point{X: x, Y: y, ID: uint64(i)}
	}
	full := core.New(core.Config{B: b}, pts)
	noCorner := core.New(core.Config{B: b, DisableCorner: true}, pts)
	var fullIOs, noIOs int64
	for i := 0; i < 100; i++ {
		a := int64(i)*4*int64(n)/100 + 1
		before := full.Stats()
		full.DiagonalQuery(a, func(geom.Point) bool { return true })
		fullIOs += full.Stats().Sub(before).ModelIOs()
		before = noCorner.Stats()
		noCorner.DiagonalQuery(a, func(geom.Point) bool { return true })
		noIOs += noCorner.Stats().Sub(before).ModelIOs()
	}
	fmt.Fprintf(w, "with corner structures:    %8.1f I/O per query\n", float64(fullIOs)/100)
	fmt.Fprintf(w, "without corner structures: %8.1f I/O per query\n", float64(noIOs)/100)
	fmt.Fprintln(w, "shape check: without Lemma 3.1 the Type II metablock degrades toward Theta(B)")
	fmt.Fprintln(w, "wasted blocks per query.")
}

// --- E15 ---------------------------------------------------------------------

func runE15(w io.Writer) {
	b := 16
	n := 20000
	c := 255
	h := workload.RandomHierarchy(15, c)
	objs := workload.Objects(16, h, n, 1<<20)
	type strat struct {
		name string
		idx  interface {
			Insert(classindex.Object)
			Query(int, int64, int64, classindex.EmitObject)
		}
		stats func() disk.Stats
		space func() int64
	}
	si := classindex.NewSimple(h, b)
	fe := classindex.NewFullExtent(h, b)
	st := classindex.NewSingleTreeFilter(h, b)
	et := classindex.NewExtentTrees(h, b)
	rc := classindex.NewRakeContract(h, b)
	strategies := []strat{
		{"simple (Thm 2.6)", si, si.Stats, si.SpaceBlocks},
		{"full-extent (L 4.2)", fe, fe.Stats, fe.SpaceBlocks},
		{"single-tree filter", st, st.Stats, st.SpaceBlocks},
		{"extent trees", et, et.Stats, et.SpaceBlocks},
		{"rake-contract (4.7)", rc, rc.Stats, rc.SpaceBlocks},
	}
	var insIOs []float64
	for _, s := range strategies {
		before := s.stats()
		for _, o := range objs {
			s.idx.Insert(o)
		}
		insIOs = append(insIOs, float64(s.stats().Sub(before).ModelIOs())/float64(len(objs)))
	}
	fmt.Fprintf(w, "n=%d, c=%d, B=%d; 100 full-extent range queries.\n", n, c, b)
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "strategy", "qry I/O", "ins I/O", "space(blk)")
	for si2, s := range strategies {
		var ios int64
		for i := 0; i < 100; i++ {
			cls := (i * 13) % c
			a1 := int64(i) * (1 << 20) / 100
			a2 := a1 + (1<<20)/20
			before := s.stats()
			s.idx.Query(cls, a1, a2, func(int64, uint64) bool { return true })
			ios += s.stats().Sub(before).ModelIOs()
		}
		fmt.Fprintf(w, "%-22s %12.1f %12.1f %12d\n", s.name, float64(ios)/100, insIOs[si2], s.space())
	}
	fmt.Fprintln(w, "shape check (Section 2.2's discussion): the filter baseline wins no column;")
	fmt.Fprintln(w, "full extents buy queries with space; Thm 4.7 balances all three.")
}

// SortExperimentIDs returns all ids sorted (helper for CLIs).
func SortExperimentIDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
