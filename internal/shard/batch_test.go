package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ccidx/internal/classindex"
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

func assertShardStabOracle(t *testing.T, s *Intervals, qs []int64, label string) {
	t.Helper()
	got := make([][]geom.Interval, len(qs))
	s.StabBatch(qs, func(qi int, iv geom.Interval) bool {
		got[qi] = append(got[qi], iv)
		return true
	})
	for qi, q := range qs {
		var want []geom.Interval
		s.Stab(q, func(iv geom.Interval) bool {
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

func assertShardIntersectOracle(t *testing.T, s *Intervals, qs []geom.Interval, label string) {
	t.Helper()
	got := make([][]geom.Interval, len(qs))
	s.IntersectBatch(qs, func(qi int, iv geom.Interval) bool {
		got[qi] = append(got[qi], iv)
		return true
	})
	for qi, q := range qs {
		var want []geom.Interval
		s.Intersect(q, func(iv geom.Interval) bool {
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

// TestShardBatchOracle drives both partitioning schemes (pools attached)
// through churn — with a large group-commit batch, so the pending op logs
// stay populated and the grouped replay is really exercised — asserting
// batch == sequential per query. The query batches span every shard.
func TestShardBatchOracle(t *testing.T) {
	const span = int64(1 << 16)
	maxLen := span / 64
	for _, part := range []Partition{PartitionRange, PartitionHash} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("part=%d/shards=%d", part, shards)
			base := workload.UniformIntervals(61, 3000, span, maxLen)
			s := NewIntervals(Config{
				Shards: shards, B: 8, Batch: 64, Partition: part, Span: span,
				PoolFrames: 128,
			}, base)
			rng := rand.New(rand.NewSource(62))
			ops := workload.ChurnOps(63, workload.SeqIDs(3000), 3000, 4000, span, maxLen)
			for i, op := range ops {
				switch op.Kind {
				case workload.ChurnInsert:
					s.Insert(op.Iv)
				case workload.ChurnDelete:
					if !s.Delete(op.ID) {
						t.Fatalf("%s: churn stream deleted an absent id %d", name, op.ID)
					}
				}
				if i%800 == 799 {
					qs := make([]int64, 96)
					for j := range qs {
						qs[j] = rng.Int63n(span) // spans every range shard
					}
					assertShardStabOracle(t, s, qs, name)
					iqs := make([]geom.Interval, 48)
					for j := range iqs {
						lo := rng.Int63n(span)
						hi := lo + rng.Int63n(span/8) // crosses shard boundaries
						if j%8 == 7 {
							hi = lo - 1 // invalid
						}
						iqs[j] = geom.Interval{Lo: lo, Hi: hi}
					}
					assertShardIntersectOracle(t, s, iqs, name)
				}
			}
		}
	}
}

// TestShardBatchRacingMutations runs stab/intersect batches concurrently
// with inserts and deletes (distinct ids per writer) and checks every
// reported interval actually satisfies its query — the invariant that must
// hold under any interleaving; run under -race this also proves the
// batched read path takes the locks it needs.
func TestShardBatchRacingMutations(t *testing.T) {
	const span = int64(1 << 16)
	for _, part := range []Partition{PartitionRange, PartitionHash} {
		base := workload.UniformIntervals(71, 2000, span, span/64)
		s := NewIntervals(Config{
			Shards: 4, B: 8, Batch: 16, Partition: part, Span: span,
		}, base)
		var wg sync.WaitGroup
		stopWriters := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(72 + w)))
				next := uint64(1<<32) | uint64(w)<<24
				var mine []uint64
				for i := 0; ; i++ {
					select {
					case <-stopWriters:
						return
					default:
					}
					if len(mine) > 0 && rng.Intn(2) == 0 {
						j := rng.Intn(len(mine))
						s.Delete(mine[j])
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					} else {
						lo := rng.Int63n(span)
						iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(span/64), ID: next}
						next++
						s.Insert(iv)
						mine = append(mine, iv.ID)
					}
				}
			}(w)
		}
		rng := rand.New(rand.NewSource(75))
		for round := 0; round < 30; round++ {
			qs := make([]int64, 32)
			for j := range qs {
				qs[j] = rng.Int63n(span)
			}
			s.StabBatch(qs, func(qi int, iv geom.Interval) bool {
				if !iv.Contains(qs[qi]) {
					t.Errorf("stab %d reported non-containing interval %v", qs[qi], iv)
				}
				return true
			})
			iqs := make([]geom.Interval, 16)
			for j := range iqs {
				lo := rng.Int63n(span)
				iqs[j] = geom.Interval{Lo: lo, Hi: lo + rng.Int63n(span/8)}
			}
			s.IntersectBatch(iqs, func(qi int, iv geom.Interval) bool {
				if !iv.Intersects(iqs[qi]) {
					t.Errorf("intersect %v reported non-intersecting interval %v", iqs[qi], iv)
				}
				return true
			})
		}
		close(stopWriters)
		wg.Wait()
	}
}

// TestShardClassQueryBatchOracle checks Classes.QueryBatch against the
// sequential Query for every strategy-independent shard configuration,
// with pending buffers populated.
func TestShardClassQueryBatchOracle(t *testing.T) {
	const attrSpan = int64(1 << 16)
	h := workload.RandomHierarchy(81, 63)
	for _, part := range []Partition{PartitionRange, PartitionHash} {
		s := NewClasses(Config{
			Shards: 4, B: 8, Batch: 64, Partition: part, Span: attrSpan,
		}, h, func() ClassIndex { return classindex.NewSimple(h, 8) })
		for _, o := range workload.Objects(82, h, 4000, attrSpan) {
			s.Insert(o) // Batch=64 keeps a rolling pending buffer populated
		}
		rng := rand.New(rand.NewSource(83))
		qs := make([]ClassQuery, 64)
		for j := range qs {
			a1 := rng.Int63n(attrSpan)
			a2 := a1 + rng.Int63n(attrSpan/4)
			if j%8 == 7 {
				a2 = a1 - 1 // inverted: reports nothing
			}
			qs[j] = ClassQuery{Class: rng.Intn(63), A1: a1, A2: a2}
		}
		got := make([][]attrID, len(qs))
		s.QueryBatch(qs, func(qi int, attr int64, id uint64) bool {
			got[qi] = append(got[qi], attrID{attr, id})
			return true
		})
		for qi, q := range qs {
			var want []attrID
			s.Query(q.Class, q.A1, q.A2, func(attr int64, id uint64) bool {
				want = append(want, attrID{attr, id})
				return true
			})
			sortAttrIDs(got[qi])
			sortAttrIDs(want)
			if len(got[qi]) != len(want) {
				t.Fatalf("class query %d %+v: batch %d objects, sequential %d",
					qi, q, len(got[qi]), len(want))
			}
			for i := range want {
				if got[qi][i] != want[i] {
					t.Fatalf("class query %d %+v: result %d differs", qi, q, i)
				}
			}
		}
	}
}

func sortAttrIDs(rs []attrID) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].attr != rs[j].attr {
			return rs[i].attr < rs[j].attr
		}
		return rs[i].id < rs[j].id
	})
}

// TestFanOutEarlyStop checks that stopping the enumeration mid-merge does
// not hang, truncates exactly where asked, and that collection on the
// not-yet-consumed shards can be abandoned (the results that do arrive
// stay in shard order).
func TestFanOutEarlyStop(t *testing.T) {
	const span = int64(1 << 16)
	base := workload.UniformIntervals(91, 5000, span, span/4)
	s := NewIntervals(Config{
		Shards: 8, B: 8, Batch: 1, Partition: PartitionHash, Span: span,
	}, base)
	for trial := 0; trial < 50; trial++ {
		want := trial % 7
		got := 0
		s.Stab(span/2, func(iv geom.Interval) bool {
			got++
			return got < want
		})
		if want > 0 && got != want {
			t.Fatalf("early stop after %d results, wanted stop at %d", got, want)
		}
	}
}

// TestShardStabBatchSharesIOs asserts the serving-layer amortization on
// the bare cost model: a batch across shard boundaries must cost well
// under the sequential sum.
func TestShardStabBatchSharesIOs(t *testing.T) {
	const span = int64(1 << 20)
	s := NewIntervals(Config{
		Shards: 4, B: 16, Batch: 16, Partition: PartitionRange, Span: span,
		PoolFrames: -1, // every access is a device I/O, the paper's model
	}, workload.UniformIntervals(95, 50000, span, 4000))
	rng := rand.New(rand.NewSource(96))
	qs := make([]int64, 256)
	for i := range qs {
		qs[i] = rng.Int63n(span)
	}
	before := s.Stats()
	for _, q := range qs {
		s.Stab(q, func(geom.Interval) bool { return true })
	}
	seq := s.Stats().Sub(before).ModelIOs()
	before = s.Stats()
	s.StabBatch(qs, func(int, geom.Interval) bool { return true })
	batch := s.Stats().Sub(before).ModelIOs()
	if batch*2 > seq {
		t.Fatalf("batched stab shared too little: %d I/Os batched vs %d sequential", batch, seq)
	}
}
