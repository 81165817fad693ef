package core

import (
	"math/rand"
	"sort"
	"testing"

	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// sortPoints orders a result multiset canonically for comparison.
func sortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.ID < b.ID
	})
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertBatchOracle issues as both ways and compares per-query multisets.
func assertBatchOracle(t *testing.T, tr *Tree, as []int64, label string) {
	t.Helper()
	got := make([][]geom.Point, len(as))
	tr.DiagonalQueryBatch(as, func(qi int, p geom.Point) bool {
		got[qi] = append(got[qi], p)
		return true
	})
	for qi, a := range as {
		var want []geom.Point
		tr.DiagonalQuery(a, func(p geom.Point) bool {
			want = append(want, p)
			return true
		})
		sortPoints(got[qi])
		sortPoints(want)
		if !samePoints(got[qi], want) {
			t.Fatalf("%s: query %d (a=%d): batch %d points, sequential %d",
				label, qi, a, len(got[qi]), len(want))
		}
	}
}

func randomQueries(rng *rand.Rand, k int, span int64) []int64 {
	as := make([]int64, k)
	for i := range as {
		as[i] = rng.Int63n(span)
	}
	return as
}

// TestDiagonalQueryBatchOracle checks batch == sequential on static builds
// across configurations, including the TS and corner ablations whose
// fallback scan paths the batch must reproduce.
func TestDiagonalQueryBatchOracle(t *testing.T) {
	for _, cfg := range []Config{
		{B: 4},
		{B: 8},
		{B: 8, DisableTS: true},
		{B: 8, DisableCorner: true},
	} {
		for _, n := range []int{0, 3, 200, 5000} {
			span := int64(4*n + 16)
			tr := New(cfg, workload.DiagonalPoints(int64(n)+1, n, span))
			rng := rand.New(rand.NewSource(int64(n) + 2))
			for trial := 0; trial < 6; trial++ {
				k := rng.Intn(48) + 1
				assertBatchOracle(t, tr, randomQueries(rng, k, span+4), "static")
			}
		}
	}
}

// TestDiagonalQueryBatchChurnOracle checks batch == sequential on a tree
// carrying update blocks, TD structures and tombstones: inserts trigger the
// dynamic machinery, deletes leave per-copy tombstones (including points
// with live AND dead copies, the per-copy suppression case).
func TestDiagonalQueryBatchChurnOracle(t *testing.T) {
	const b = 4
	span := int64(4000)
	base := workload.DiagonalPoints(31, 800, span)
	tr := New(Config{B: b}, base)
	rng := rand.New(rand.NewSource(32))
	live := append([]geom.Point(nil), base...)
	for i := 0; i < 1200; i++ {
		switch {
		case rng.Intn(3) == 0 && len(live) > 10:
			j := rng.Intn(len(live))
			if !tr.Delete(live[j]) {
				t.Fatalf("delete of live point %v failed", live[j])
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			x := rng.Int63n(span)
			p := geom.Point{X: x, Y: x + rng.Int63n(span-x+1), ID: uint64(10000 + i)}
			if rng.Intn(8) == 0 && len(live) > 0 {
				// Duplicate-coordinate copy of a live point: exercises the
				// per-copy tombstone suppression.
				q := live[rng.Intn(len(live))]
				p.X, p.Y = q.X, q.Y
			}
			tr.Insert(p)
			live = append(live, p)
		}
		// Keep the control cache populated through the batch path too, and
		// coherent after every mutation.
		tr.StabBatch(randomQueries(rng, 3, span), func(int, geom.Point) bool { return true })
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%200 == 199 {
			assertBatchOracle(t, tr, randomQueries(rng, 40, span+8), "churn")
		}
	}
	if tr.DeadCount() == 0 {
		t.Fatalf("churn stream left no tombstones; the suppression path went untested")
	}
	assertBatchOracle(t, tr, randomQueries(rng, 300, span+8), "churn-final")
}

// TestDiagonalQueryBatchEarlyStop checks a per-query emit stop truncates
// only that query.
func TestDiagonalQueryBatchEarlyStop(t *testing.T) {
	span := int64(20000)
	tr := New(Config{B: 8}, workload.DiagonalPoints(33, 5000, span))
	as := []int64{span / 4, span / 4, span / 2}
	const cap0 = 5
	got := make([][]geom.Point, len(as))
	tr.DiagonalQueryBatch(as, func(qi int, p geom.Point) bool {
		got[qi] = append(got[qi], p)
		return !(qi == 0 && len(got[0]) >= cap0)
	})
	if len(got[0]) != cap0 {
		t.Fatalf("stopped query got %d points, want %d", len(got[0]), cap0)
	}
	for qi := 1; qi < len(as); qi++ {
		var want []geom.Point
		tr.DiagonalQuery(as[qi], func(p geom.Point) bool {
			want = append(want, p)
			return true
		})
		if len(got[qi]) != len(want) {
			t.Fatalf("query %d truncated by another query's stop: %d vs %d",
				qi, len(got[qi]), len(want))
		}
	}
}

// TestDiagonalQueryBatchSharesIOs asserts the amortization: a batch must
// cost well under the sequential sum, and a batch of one must not cost
// more I/Os than the sequential query.
func TestDiagonalQueryBatchSharesIOs(t *testing.T) {
	span := int64(200000)
	tr := New(Config{B: 8}, workload.DiagonalPoints(35, 50000, span))
	rng := rand.New(rand.NewSource(36))
	as := randomQueries(rng, 128, span)

	before := tr.Stats()
	for _, a := range as {
		tr.DiagonalQuery(a, func(geom.Point) bool { return true })
	}
	seq := tr.Stats().Sub(before).ModelIOs()
	before = tr.Stats()
	tr.DiagonalQueryBatch(as, func(int, geom.Point) bool { return true })
	batch := tr.Stats().Sub(before).ModelIOs()
	if batch*2 > seq {
		t.Fatalf("batched traversal shared too little: %d I/Os batched vs %d sequential", batch, seq)
	}

	for _, a := range as[:8] {
		before = tr.Stats()
		tr.DiagonalQuery(a, func(geom.Point) bool { return true })
		one := tr.Stats().Sub(before).ModelIOs()
		before = tr.Stats()
		tr.DiagonalQueryBatch([]int64{a}, func(int, geom.Point) bool { return true })
		b1 := tr.Stats().Sub(before).ModelIOs()
		if b1 > one {
			t.Fatalf("batch of one cost %d I/Os, sequential %d (a=%d)", b1, one, a)
		}
	}
}
