package core

import (
	"math/rand"
	"sync"
	"testing"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// stabAndCheck runs one query (so the control cache holds the path's
// entries when the next mutation lands) and then requires every invariant,
// cache coherence included.
func stabAndCheck(t *testing.T, tr *Tree, a int64, label string) {
	t.Helper()
	tr.Stab(a, func(geom.Point) bool { return true })
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestCtrlCacheBlobIDReuse frees a cached control blob and writes a
// different one that the pager places on the same page id: the query path
// must see the new content, never the old decode.
func TestCtrlCacheBlobIDReuse(t *testing.T) {
	tr := New(Config{B: 4}, nil)
	old := &metaCtrl{count: 3, bb: bbox{minX: 1, maxX: 2, minY: 3, maxY: 4, valid: true}}
	id := tr.storeCtrl(disk.NilBlock, old)
	if got := tr.ctrl(id); got.count != 3 {
		t.Fatalf("cached count = %d, want 3", got.count)
	}
	if hit := tr.ctrl(id); hit.count != 3 || tr.CtrlCacheStats().Hits != 1 {
		t.Fatalf("second lookup did not hit: %+v", tr.CtrlCacheStats())
	}
	entries := tr.CtrlCacheStats().Entries
	tr.freeBlob(id)
	if got := tr.CtrlCacheStats().Entries; got != entries-1 {
		t.Fatalf("entries after freeBlob = %d, want %d", got, entries-1)
	}
	id2 := tr.storeCtrl(disk.NilBlock, &metaCtrl{count: 7})
	if id2 != id {
		t.Fatalf("pager handed out page %d, not the freed %d: the test no longer forces reuse", id2, id)
	}
	if got := tr.ctrl(id2); got.count != 7 || got.bb.valid {
		t.Fatalf("lookup after page-id reuse returned the stale decode: %+v", got)
	}

	// The other invalidation point: an in-place rewrite under a stable head.
	tr.storeCtrl(id2, &metaCtrl{count: 9})
	if got := tr.ctrl(id2); got.count != 9 {
		t.Fatalf("lookup after rewriteBlob returned count %d, want 9", got.count)
	}
}

// TestCtrlCacheSparedIdentity: on the E1 input, a warm tree's reads plus
// spared pages equal, query by query, those of a tree whose cache is
// emptied before every query. A single query visits no metablock twice, so
// there the emptied tree spares nothing: its reads alone are the traversal
// with every control block read from its pages. (A batch can meet a child
// both as a TS anchor and as a recursion target.)
func TestCtrlCacheSparedIdentity(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	pts := workload.DiagonalPoints(1, n, int64(4*n))
	warm, cold := New(Config{B: 8}, pts), New(Config{B: 8}, pts)
	drop := func(geom.Point) bool { return true }
	for i := 0; i < 2*997; i++ {
		a := int64(i%997) * int64(4*n) / 997
		w0, c0 := warm.Stats(), cold.Stats()
		cold.DropCtrlCache()
		if i%2 == 0 {
			warm.Stab(a, drop)
			cold.Stab(a, drop)
		} else {
			qs := []int64{a, a + 1, a + int64(n)}
			warm.StabBatch(qs, func(int, geom.Point) bool { return true })
			cold.StabBatch(qs, func(int, geom.Point) bool { return true })
		}
		w, c := warm.Stats().Sub(w0), cold.Stats().Sub(c0)
		if i%2 == 0 && c.Spared != 0 {
			t.Fatalf("query %d: a cold single query spared %d pages (a metablock was visited twice)", i, c.Spared)
		}
		if w.ModelIOs() != c.ModelIOs() {
			t.Fatalf("query %d: warm reads %d + spared %d != cold reads %d + spared %d", i, w.Reads, w.Spared, c.Reads, c.Spared)
		}
	}
	st := warm.CtrlCacheStats()
	if st.Hits == 0 || st.Misses != st.Entries {
		t.Fatalf("warm tree: %+v, want hits and exactly one miss per entry", st)
	}
	if err := warm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCtrlCacheConcurrentColdFill starts many goroutines on one cold tree
// at once, single and batched queries mixed, so several of them miss and
// publish the same entries concurrently (run with -race). Answers must
// match a single-threaded pass and the cache must end coherent.
func TestCtrlCacheConcurrentColdFill(t *testing.T) {
	const n, span, workers = 6000, int64(24000), 8
	pts := workload.DiagonalPoints(9, n, span)
	ref := New(Config{B: 4}, pts)
	qs := randomQueries(rand.New(rand.NewSource(10)), 256, span)
	want := make([]int, len(qs))
	for i, a := range qs {
		ref.Stab(a, func(geom.Point) bool { want[i]++; return true })
	}

	for round := 0; round < 3; round++ {
		tr := New(Config{B: 4}, pts)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got := make([]int, len(qs))
				if w%2 == 0 {
					for i, a := range qs {
						tr.Stab(a, func(geom.Point) bool { got[i]++; return true })
					}
				} else {
					for lo := 0; lo < len(qs); lo += 16 {
						tr.StabBatch(qs[lo:lo+16], func(qi int, _ geom.Point) bool { got[lo+qi]++; return true })
					}
				}
				for i := range qs {
					if got[i] != want[i] {
						t.Errorf("worker %d query %d: %d points, want %d", w, i, got[i], want[i])
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if st := tr.CtrlCacheStats(); st.Entries == 0 || st.Misses < st.Entries {
			t.Fatalf("after the fill: %+v", st)
		}
	}
}
