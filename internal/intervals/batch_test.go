package intervals

import (
	"math/rand"
	"sort"
	"testing"

	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

func sortIvs(ivs []geom.Interval) {
	sort.Slice(ivs, func(i, j int) bool {
		a, b := ivs[i], ivs[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.ID < b.ID
	})
}

func sameIvs(a, b []geom.Interval) bool {
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

func assertStabBatchOracle(t *testing.T, m *Manager, qs []int64, label string) {
	t.Helper()
	got := make([][]geom.Interval, len(qs))
	m.StabBatch(qs, func(qi int, iv geom.Interval) bool {
		got[qi] = append(got[qi], iv)
		return true
	})
	for qi, q := range qs {
		var want []geom.Interval
		m.Stab(q, func(iv geom.Interval) bool {
			want = append(want, iv)
			return true
		})
		sortIvs(got[qi])
		sortIvs(want)
		if !sameIvs(got[qi], want) {
			t.Fatalf("%s: stab %d (q=%d): batch %d intervals, sequential %d",
				label, qi, q, len(got[qi]), len(want))
		}
	}
}

func assertIntersectBatchOracle(t *testing.T, m *Manager, qs []geom.Interval, label string) {
	t.Helper()
	got := make([][]geom.Interval, len(qs))
	m.IntersectBatch(qs, func(qi int, iv geom.Interval) bool {
		got[qi] = append(got[qi], iv)
		return true
	})
	for qi, q := range qs {
		var want []geom.Interval
		m.Intersect(q, func(iv geom.Interval) bool {
			want = append(want, iv)
			return true
		})
		sortIvs(got[qi])
		sortIvs(want)
		if !sameIvs(got[qi], want) {
			t.Fatalf("%s: intersect %d (%v): batch %d intervals, sequential %d",
				label, qi, q, len(got[qi]), len(want))
		}
	}
}

// TestManagerBatchOracle runs the manager through churn (inserts, deletes,
// rebuilds) with a buffer pool attached — the serving configuration — and
// asserts batch == sequential for stabbing and intersection batches at
// every checkpoint.
func TestManagerBatchOracle(t *testing.T) {
	const b = 8
	span := int64(1 << 16)
	maxLen := span / 64
	ivs := workload.UniformIntervals(51, 2000, span, maxLen)
	m := New(Config{B: b}, ivs)
	m.AttachPool(64, 4)
	rng := rand.New(rand.NewSource(52))

	ops := workload.ChurnOps(53, workload.SeqIDs(2000), 2000, 3000, span, maxLen)
	for i, op := range ops {
		switch op.Kind {
		case workload.ChurnInsert:
			m.Insert(op.Iv)
		case workload.ChurnDelete:
			if !m.Delete(op.ID) {
				t.Fatalf("churn stream deleted an absent id %d", op.ID)
			}
		case workload.ChurnStab, workload.ChurnIntersect:
			// Queries are exercised via the batch checkpoints below.
		}
		if i%500 == 499 {
			qs := make([]int64, 64)
			for j := range qs {
				qs[j] = rng.Int63n(span)
			}
			assertStabBatchOracle(t, m, qs, "churn")
			iqs := make([]geom.Interval, 32)
			for j := range iqs {
				lo := rng.Int63n(span)
				hi := lo + rng.Int63n(maxLen+1)
				if j%8 == 7 {
					hi = lo - 1 // invalid: reports nothing
				}
				iqs[j] = geom.Interval{Lo: lo, Hi: hi}
			}
			assertIntersectBatchOracle(t, m, iqs, "churn")
		}
	}
}

// TestManagerStabBatchSharesIOs asserts the end-to-end amortization on the
// bare cost model (no pool): a sorted flood of stabbing queries must cost
// well under the sequential sum.
func TestManagerStabBatchSharesIOs(t *testing.T) {
	const b = 16
	span := int64(1 << 20)
	m := New(Config{B: b}, workload.UniformIntervals(55, 50000, span, 4000))
	rng := rand.New(rand.NewSource(56))
	qs := make([]int64, 256)
	for i := range qs {
		qs[i] = rng.Int63n(span)
	}
	before := m.Stats()
	for _, q := range qs {
		m.Stab(q, func(geom.Interval) bool { return true })
	}
	seq := m.Stats().Sub(before).ModelIOs()
	before = m.Stats()
	m.StabBatch(qs, func(int, geom.Interval) bool { return true })
	batch := m.Stats().Sub(before).ModelIOs()
	if batch*2 > seq {
		t.Fatalf("batched stab shared too little: %d I/Os batched vs %d sequential", batch, seq)
	}
}
