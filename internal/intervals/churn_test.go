package intervals

import (
	"math/rand"
	"testing"

	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// TestChurnOracleAgainstNaive replays a fixed-seed mixed
// insert/delete/stab/intersect stream through the optimal manager and the
// naive baseline and requires identical answers throughout.
func TestChurnOracleAgainstNaive(t *testing.T) {
	const span, maxLen = int64(4000), int64(400)
	ivs := workload.UniformIntervals(61, 800, span, maxLen)
	m := New(Config{B: 8}, ivs)
	nv := NewNaive(8)
	for _, iv := range ivs {
		nv.Insert(iv)
	}
	ops := workload.ChurnOps(62, workload.SeqIDs(len(ivs)), uint64(len(ivs)), 4000, span, maxLen)
	for i, op := range ops {
		switch op.Kind {
		case workload.ChurnInsert:
			m.Insert(op.Iv)
			nv.Insert(op.Iv)
		case workload.ChurnDelete:
			dm, dn := m.Delete(op.ID), nv.Delete(op.ID)
			if !dm || !dn {
				t.Fatalf("op %d: delete id %d: manager=%v naive=%v", i, op.ID, dm, dn)
			}
		case workload.ChurnStab:
			a := collectIDs(func(e EmitInterval) { m.Stab(op.Q, e) })
			b := collectIDs(func(e EmitInterval) { nv.Stab(op.Q, e) })
			if !equalIDs(a, b) {
				t.Fatalf("op %d: stab %d: manager %d ids, naive %d ids", i, op.Q, len(a), len(b))
			}
		case workload.ChurnIntersect:
			a := collectIDs(func(e EmitInterval) { m.Intersect(op.QIv, e) })
			b := collectIDs(func(e EmitInterval) { nv.Intersect(op.QIv, e) })
			if !equalIDs(a, b) {
				t.Fatalf("op %d: intersect %v: manager %d ids, naive %d ids", i, op.QIv, len(a), len(b))
			}
		}
		if m.Len() != nv.Len() {
			t.Fatalf("op %d: Len drift: manager %d naive %d", i, m.Len(), nv.Len())
		}
		// The stream's own queries keep the control cache populated; it
		// must stay coherent across every mutation and rebuild.
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if m.Delete(1 << 62) {
		t.Fatal("delete of absent id succeeded")
	}
	t.Logf("final n=%d, stabber rebuilds=%d", m.Len(), m.Rebuilds())
}

// TestManagerDeleteSpaceBounded checks that churn does not leak space in
// the optimal manager: after the global-rebuild machinery has run, live
// pages stay proportional to the live interval count.
func TestManagerDeleteSpaceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	b := 8
	ivs := genIntervals(rng, 4000, 1<<20)
	m := New(Config{B: b}, ivs)
	for _, iv := range ivs[:3600] {
		if !m.Delete(iv.ID) {
			t.Fatalf("delete id %d failed", iv.ID)
		}
	}
	if m.Len() != 400 {
		t.Fatalf("Len=%d", m.Len())
	}
	if m.Rebuilds() == 0 {
		t.Fatal("no global rebuild after deleting 90% of the intervals")
	}
	// Space for 400 live intervals (plus the bounded tombstone backlog and
	// the two structures' constant overheads) must be far below the space
	// the 4000-interval structure occupied.
	if space, lim := m.SpaceBlocks(), int64(40*400/b); space > lim {
		t.Fatalf("space %d blocks exceeds %d after shrinking to 400 live intervals", space, lim)
	}
}

// TestNaiveChurnSpaceLeak is the regression test for the Naive space leak:
// emptied pages used to stay allocated (and listed in nv.pages) and Insert
// only refilled the last page, so SpaceBlocks() and the O(n/B) scans grew
// without bound under churn.
func TestNaiveChurnSpaceLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	nv := NewNaive(4)
	nextID := uint64(0)
	var live []uint64
	// Sustained churn: cycles of inserts followed by deletes of random ids.
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 40; i++ {
			lo := rng.Int63n(1000)
			nv.Insert(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(100), ID: nextID})
			live = append(live, nextID)
			nextID++
		}
		for i := 0; i < 40 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			if !nv.Delete(live[j]) {
				t.Fatalf("delete id %d failed", live[j])
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if n := int64(nv.Len()); nv.SpaceBlocks() > max64(1, n) {
			t.Fatalf("cycle %d: %d pages for %d live intervals (empty pages leaked)",
				cycle, nv.SpaceBlocks(), n)
		}
	}
	// Deleting everything returns the space to zero.
	for _, id := range live {
		nv.Delete(id)
	}
	if nv.Len() != 0 || nv.SpaceBlocks() != 0 {
		t.Fatalf("after deleting all: n=%d space=%d", nv.Len(), nv.SpaceBlocks())
	}
	// And the freed pages are actually reusable.
	nv.Insert(geom.Interval{Lo: 1, Hi: 2, ID: nextID})
	if nv.SpaceBlocks() != 1 {
		t.Fatalf("space %d after one insert", nv.SpaceBlocks())
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestDuplicateIDInsertPanics pins the loud-failure contract: inserting a
// live id again would silently orphan the previous copy (the directory
// holds one entry per id), so it must panic instead. Reusing an id after
// deleting it is fine.
func TestDuplicateIDInsertPanics(t *testing.T) {
	m := New(Config{B: 4}, []geom.Interval{{Lo: 1, Hi: 5, ID: 9}})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate live id did not panic")
			}
		}()
		m.Insert(geom.Interval{Lo: 2, Hi: 3, ID: 9})
	}()
	if !m.Delete(9) {
		t.Fatal("delete failed")
	}
	m.Insert(geom.Interval{Lo: 2, Hi: 3, ID: 9}) // id free again: no panic
	if m.Len() != 1 {
		t.Fatalf("Len=%d", m.Len())
	}
}

// TestNaiveInsertReusesHoles pins the hole-refill behaviour: a delete that
// leaves a partial page must be compensated by a later insert without
// allocating a new page.
func TestNaiveInsertReusesHoles(t *testing.T) {
	nv := NewNaive(4)
	for i := 0; i < 8; i++ { // two full pages
		nv.Insert(geom.Interval{Lo: int64(i), Hi: int64(i + 1), ID: uint64(i)})
	}
	if nv.SpaceBlocks() != 2 {
		t.Fatalf("space %d after filling two pages", nv.SpaceBlocks())
	}
	if !nv.Delete(1) { // hole in the first page
		t.Fatal("delete failed")
	}
	nv.Insert(geom.Interval{Lo: 100, Hi: 101, ID: 100})
	if nv.SpaceBlocks() != 2 {
		t.Fatalf("insert did not reuse the hole: %d pages", nv.SpaceBlocks())
	}
	got := collectIDs(func(e EmitInterval) { nv.Intersect(geom.Interval{Lo: 0, Hi: 200}, e) })
	want := []uint64{0, 2, 3, 4, 5, 6, 7, 100}
	if !equalIDs(got, want) {
		t.Fatalf("contents after hole reuse: %v", got)
	}
}
