package intervals

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ccidx/internal/bptree"
	"ccidx/internal/geom"
)

func genIntervals(rng *rand.Rand, n int, coordRange int64) []geom.Interval {
	ivs := make([]geom.Interval, n)
	for i := range ivs {
		lo := rng.Int63n(coordRange)
		hi := lo + rng.Int63n(coordRange-lo+1)
		ivs[i] = geom.Interval{Lo: lo, Hi: hi, ID: uint64(i)}
	}
	return ivs
}

func collectIDs(f func(EmitInterval)) []uint64 {
	var ids []uint64
	f(func(iv geom.Interval) bool {
		ids = append(ids, iv.ID)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func stabOracle(ivs []geom.Interval, q int64) []uint64 {
	var ids []uint64
	for _, iv := range ivs {
		if iv.Contains(q) {
			ids = append(ids, iv.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func intersectOracle(ivs []geom.Interval, q geom.Interval) []uint64 {
	var ids []uint64
	for _, iv := range ivs {
		if iv.Intersects(q) {
			ids = append(ids, iv.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
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

func TestStabMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ivs := genIntervals(rng, 2000, 500)
	m := New(Config{B: 8}, ivs)
	for q := int64(-1); q <= 501; q += 3 {
		if !equalIDs(collectIDs(func(e EmitInterval) { m.Stab(q, e) }), stabOracle(ivs, q)) {
			t.Fatalf("stab %d mismatch", q)
		}
	}
}

func TestIntersectMatchesOracleNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ivs := genIntervals(rng, 1500, 300)
	m := New(Config{B: 8}, ivs)
	for trial := 0; trial < 400; trial++ {
		lo := rng.Int63n(304) - 2
		hi := lo + rng.Int63n(100)
		q := geom.Interval{Lo: lo, Hi: hi}
		var got []uint64
		seen := map[uint64]bool{}
		m.Intersect(q, func(iv geom.Interval) bool {
			if seen[iv.ID] {
				t.Fatalf("interval %d reported twice for %v", iv.ID, q)
			}
			seen[iv.ID] = true
			got = append(got, iv.ID)
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !equalIDs(got, intersectOracle(ivs, q)) {
			t.Fatalf("intersect %v mismatch: got %d want %d", q, len(got), len(intersectOracle(ivs, q)))
		}
	}
}

func TestIntersectReturnsFullEndpoints(t *testing.T) {
	ivs := []geom.Interval{{Lo: 2, Hi: 9, ID: 7}, {Lo: 5, Hi: 6, ID: 8}}
	m := New(Config{B: 4}, ivs)
	found := map[uint64]geom.Interval{}
	m.Intersect(geom.Interval{Lo: 4, Hi: 10}, func(iv geom.Interval) bool {
		found[iv.ID] = iv
		return true
	})
	if found[7] != ivs[0] || found[8] != ivs[1] {
		t.Fatalf("endpoints corrupted: %v", found)
	}
}

func TestInsertThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ivs := genIntervals(rng, 300, 200)
	m := New(Config{B: 4}, ivs[:100])
	for _, iv := range ivs[100:] {
		m.Insert(iv)
	}
	if m.Len() != 300 {
		t.Fatalf("Len=%d", m.Len())
	}
	for q := int64(0); q <= 200; q += 5 {
		if !equalIDs(collectIDs(func(e EmitInterval) { m.Stab(q, e) }), stabOracle(ivs, q)) {
			t.Fatalf("stab %d mismatch after inserts", q)
		}
	}
}

func TestEmptyManager(t *testing.T) {
	m := New(Config{B: 4}, nil)
	if got := collectIDs(func(e EmitInterval) { m.Intersect(geom.Interval{Lo: 0, Hi: 10}, e) }); len(got) != 0 {
		t.Fatalf("empty manager returned %v", got)
	}
}

func TestDegenerateIntervals(t *testing.T) {
	// Zero-length intervals and touching endpoints.
	ivs := []geom.Interval{
		{Lo: 5, Hi: 5, ID: 1},
		{Lo: 5, Hi: 7, ID: 2},
		{Lo: 3, Hi: 5, ID: 3},
	}
	m := New(Config{B: 4}, ivs)
	got := collectIDs(func(e EmitInterval) { m.Stab(5, e) })
	if !equalIDs(got, []uint64{1, 2, 3}) {
		t.Fatalf("stab 5 = %v", got)
	}
	got = collectIDs(func(e EmitInterval) { m.Intersect(geom.Interval{Lo: 5, Hi: 5}, e) })
	if !equalIDs(got, []uint64{1, 2, 3}) {
		t.Fatalf("intersect [5,5] = %v", got)
	}
}

func TestQueryIOBoundVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := 16
	n := 20000
	// Short intervals keep stab outputs small so the log_B n term (not the
	// t/B term) dominates, which is where the two structures differ.
	ivs := make([]geom.Interval, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 30)
		ivs[i] = geom.Interval{Lo: lo, Hi: lo + rng.Int63n(1000), ID: uint64(i)}
	}
	m := New(Config{B: b}, ivs)
	nv := NewNaive(b)
	for _, iv := range ivs {
		nv.Insert(iv)
	}
	var mTot, nvTot int64
	for trial := 0; trial < 30; trial++ {
		q := rng.Int63n(1 << 30)
		before := m.Stats()
		m.Stab(q, func(geom.Interval) bool { return true })
		mTot += m.Stats().Sub(before).ModelIOs()
		beforeN := nv.Pager().Stats()
		nv.Stab(q, func(geom.Interval) bool { return true })
		nvTot += nv.Pager().Stats().Sub(beforeN).IOs()
	}
	if mTot*10 >= nvTot {
		t.Fatalf("manager I/O %d not clearly better than naive %d", mTot, nvTot)
	}
	t.Logf("stab I/O over 30 queries: manager=%d naive=%d", mTot, nvTot)
}

func TestSpaceBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := 16
	n := 10000
	m := New(Config{B: b}, genIntervals(rng, n, 1<<30))
	if got, lim := m.SpaceBlocks(), int64(16*n/b); got > lim {
		t.Fatalf("space %d exceeds %d", got, lim)
	}
}

// TestEndpointBuildWritesEachPageOnce: the endpoint B+-tree is bulk-loaded,
// so building it reads no page and writes each allocated page exactly
// once, under both fill policies; the full policy (immutable runs) packs
// the entries into fewer pages than the slack one.
func TestEndpointBuildWritesEachPageOnce(t *testing.T) {
	ivs := genIntervals(rand.New(rand.NewSource(11)), 10000, 1_000_000)
	var pages [2]int64
	for i, m := range []*Manager{
		New(Config{B: 32}, ivs),
		newMem(Config{B: 32}, ivs, bptree.FillFull),
	} {
		ep := m.endpoints.Pager()
		st := ep.Stats()
		if st.Reads != 0 || st.Writes != ep.Allocated() {
			t.Fatalf("fill %d: endpoint build did %d reads and %d writes for %d pages",
				i, st.Reads, st.Writes, ep.Allocated())
		}
		if m.endpoints.Len() != len(ivs) {
			t.Fatalf("fill %d: endpoint tree holds %d entries, want %d", i, m.endpoints.Len(), len(ivs))
		}
		pages[i] = ep.Allocated()
	}
	if pages[1] >= pages[0] {
		t.Fatalf("full fill took %d endpoint pages, slack fill %d", pages[1], pages[0])
	}
}

func TestNaiveDelete(t *testing.T) {
	nv := NewNaive(4)
	for i := 0; i < 50; i++ {
		nv.Insert(geom.Interval{Lo: int64(i), Hi: int64(i + 10), ID: uint64(i)})
	}
	if !nv.Delete(25) || nv.Delete(25) {
		t.Fatal("delete semantics wrong")
	}
	if nv.Len() != 49 {
		t.Fatalf("Len=%d", nv.Len())
	}
	got := collectIDs(func(e EmitInterval) { nv.Stab(30, e) })
	for _, id := range got {
		if id == 25 {
			t.Fatal("deleted interval still reported")
		}
	}
}

func TestManagerAgainstNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := genIntervals(rng, 100+rng.Intn(300), 80)
		m := New(Config{B: 4 + rng.Intn(8)}, ivs[:50])
		nv := NewNaive(4)
		for _, iv := range ivs[:50] {
			nv.Insert(iv)
		}
		for _, iv := range ivs[50:] {
			m.Insert(iv)
			nv.Insert(iv)
			m.Stab(iv.Lo, func(geom.Interval) bool { return true })
			if m.CheckInvariants() != nil {
				return false
			}
		}
		for k := 0; k < 20; k++ {
			lo := rng.Int63n(84) - 2
			hi := lo + rng.Int63n(40)
			q := geom.Interval{Lo: lo, Hi: hi}
			a := collectIDs(func(e EmitInterval) { m.Intersect(q, e) })
			b := collectIDs(func(e EmitInterval) { nv.Intersect(q, e) })
			if !equalIDs(a, b) {
				return false
			}
		}
		return true
	}
	// Fixed-seed Rand keeps the property deterministic (testing/quick
	// defaults to a time-seeded generator).
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(75))}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New(Config{B: 4}, genIntervals(rng, 500, 50))
	count := 0
	m.Intersect(geom.Interval{Lo: 0, Hi: 50}, func(geom.Interval) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("early stop emitted %d", count)
	}
}
