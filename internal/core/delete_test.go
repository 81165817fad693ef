package core

import (
	"math/rand"
	"testing"

	"ccidx/internal/geom"
)

func collectQuery(t *Tree, a int64) map[geom.Point]int {
	got := map[geom.Point]int{}
	t.DiagonalQuery(a, func(p geom.Point) bool {
		got[p]++
		return true
	})
	return got
}

func TestDeleteWeakThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Point, 600)
	for i := range pts {
		x := rng.Int63n(1000)
		pts[i] = geom.Point{X: x, Y: x + rng.Int63n(1000), ID: uint64(i)}
	}
	tr := New(Config{B: 4}, pts)

	if tr.Delete(geom.Point{X: -5, Y: 7, ID: 999999}) {
		t.Fatal("deleted an absent point")
	}
	// Delete a third of the points (few enough that no rebuild triggers, so
	// the tombstone filter itself is what's under test).
	deleted := map[geom.Point]int{}
	for i := 0; i < 200; i++ {
		p := pts[i*3]
		if !tr.Delete(p) {
			t.Fatalf("delete of present point %v failed", p)
		}
		deleted[p]++
	}
	if tr.Len() != 400 {
		t.Fatalf("Len=%d after 200 deletes", tr.Len())
	}
	if tr.Delete(pts[0]) {
		t.Fatal("second delete of the same point succeeded")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Oracle: live multiset filtered per copy.
	for _, a := range []int64{0, 250, 500, 750, 1000, 1500} {
		want := map[geom.Point]int{}
		for _, p := range pts {
			if p.X <= a && p.Y >= a {
				want[p]++
			}
		}
		for p, d := range deleted {
			if p.X <= a && p.Y >= a {
				want[p] -= d
				if want[p] == 0 {
					delete(want, p)
				}
			}
		}
		got := collectQuery(tr, a)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d distinct points, want %d", a, len(got), len(want))
		}
		for p, k := range want {
			if got[p] != k {
				t.Fatalf("query %d: point %v reported %d times, want %d", a, p, got[p], k)
			}
		}
	}
}

func TestDeleteDuplicateCopies(t *testing.T) {
	p := geom.Point{X: 10, Y: 20, ID: 7}
	tr := New(Config{B: 4}, []geom.Point{p, p, {X: 5, Y: 30, ID: 1}})
	if !tr.Delete(p) {
		t.Fatal("delete failed")
	}
	if got := collectQuery(tr, 10)[p]; got != 1 {
		t.Fatalf("point with one live copy reported %d times", got)
	}
	if !tr.Delete(p) {
		t.Fatal("second copy not deletable")
	}
	if tr.Delete(p) {
		t.Fatal("third delete succeeded with no copies left")
	}
}

// TestDeleteGlobalRebuild drives deletes past the alpha threshold and
// asserts the tombstone state resets, space shrinks back to the live set,
// and the I/O counters stay sane (post-rebuild queries cost no more than
// pre-delete queries did).
func TestDeleteGlobalRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 2000
	pts := make([]geom.Point, n)
	for i := range pts {
		x := rng.Int63n(1 << 20)
		pts[i] = geom.Point{X: x, Y: x + rng.Int63n(1<<20), ID: uint64(i)}
	}
	tr := New(Config{B: 8}, pts)
	spaceBefore := tr.Pager().Allocated()

	queryIOs := func() int64 {
		before := tr.Stats()
		for i := 0; i < 20; i++ {
			tr.DiagonalQuery(int64(i)*(1<<20)/20, func(geom.Point) bool { return true })
		}
		return tr.Stats().Sub(before).ModelIOs()
	}
	iosBefore := queryIOs()

	// Delete 80% of the points: with alpha = 1/2 this must trigger at least
	// one global rebuild along the way.
	for i := 0; i < 4*n/5; i++ {
		if !tr.Delete(pts[i]) {
			t.Fatalf("delete %d failed", i)
		}
		// A cached path before every delete: the rebuilds among them must
		// leave no entry behind.
		stabAndCheck(t, tr, pts[i].X, "after delete")
	}
	if tr.Rebuilds() == 0 {
		t.Fatal("no global rebuild after deleting 80% of the points")
	}
	// After a rebuild the tombstone backlog is bounded by alpha * live.
	if 2*tr.DeadCount() > tr.Len() {
		t.Fatalf("dead=%d exceeds alpha*live (live=%d) after rebuild", tr.DeadCount(), tr.Len())
	}
	if tr.Len() != n/5 {
		t.Fatalf("Len=%d, want %d", tr.Len(), n/5)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Space: the rebuilt structure covers only live + bounded dead points.
	if space := tr.Pager().Allocated(); space > spaceBefore {
		t.Fatalf("space %d did not shrink from %d after rebuilding at 20%% live", space, spaceBefore)
	}
	// I/O sanity: a post-rebuild query sweep over the shrunken tree must not
	// cost more than the same sweep did over the full tree.
	if iosAfter := queryIOs(); iosAfter > iosBefore {
		t.Fatalf("query I/O grew after rebuild: %d > %d", iosAfter, iosBefore)
	}

	// Results still match the live oracle.
	live := map[geom.Point]int{}
	for _, p := range pts[4*n/5:] {
		live[p]++
	}
	got := map[geom.Point]int{}
	tr.Walk(func(p geom.Point) bool { got[p]++; return true })
	if len(got) != len(live) {
		t.Fatalf("walk found %d distinct points, want %d", len(got), len(live))
	}
	for p, k := range live {
		if got[p] != k {
			t.Fatalf("walk: %v seen %d times, want %d", p, got[p], k)
		}
	}
}

// TestDeleteInterleavedWithInserts churns inserts and deletes through the
// reorganisation ladder and checks invariants plus a query oracle.
func TestDeleteInterleavedWithInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := New(Config{B: 4}, nil)
	live := map[geom.Point]int{}
	var pool []geom.Point
	nextID := uint64(0)
	for op := 0; op < 3000; op++ {
		if rng.Intn(3) < 2 || len(pool) == 0 {
			x := rng.Int63n(4000)
			p := geom.Point{X: x, Y: x + rng.Int63n(4000), ID: nextID}
			nextID++
			tr.Insert(p)
			live[p]++
			pool = append(pool, p)
		} else {
			j := rng.Intn(len(pool))
			p := pool[j]
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if !tr.Delete(p) {
				t.Fatalf("op %d: delete of live point %v failed", op, p)
			}
			live[p]--
			if live[p] == 0 {
				delete(live, p)
			}
		}
		stabAndCheck(t, tr, rng.Int63n(8000), "after op")
	}
	for _, a := range []int64{0, 1000, 2000, 3000, 5000} {
		want := 0
		for p, k := range live {
			if p.X <= a && p.Y >= a {
				want += k
			}
		}
		got := 0
		tr.DiagonalQuery(a, func(geom.Point) bool { got++; return true })
		if got != want {
			t.Fatalf("query %d reported %d points, want %d", a, got, want)
		}
	}
}
