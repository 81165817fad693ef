package core

import (
	"math/rand"
	"testing"

	"ccidx/internal/geom"
)

// newTestTree returns an empty tree usable as a page allocator for corner
// structure unit tests.
func newTestTree(b int) *Tree {
	return New(Config{B: b}, nil)
}

func genDiagonalRecs(rng *rand.Rand, n int, coordRange int64) []rec {
	rs := make([]rec, n)
	for i := range rs {
		x := rng.Int63n(coordRange)
		y := x + rng.Int63n(coordRange-x+1)
		rs[i] = rec{pt: geom.Point{X: x, Y: y, ID: uint64(i)}}
	}
	return rs
}

func cornerOracle(rs []rec, a int64) map[uint64]int {
	out := map[uint64]int{}
	for _, r := range rs {
		if r.pt.X <= a && r.pt.Y >= a {
			out[r.pt.ID]++
		}
	}
	return out
}

func runCorner(t *Tree, c *cornerIdx, a int64) map[uint64]int {
	got := map[uint64]int{}
	t.queryCorner(c, a, func(r rec) bool {
		got[r.pt.ID]++
		return true
	})
	return got
}

func sameMultiset(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCornerStructureMatchesOracleExhaustive(t *testing.T) {
	tr := newTestTree(4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(64) // up to 4*B^2
		rs := genDiagonalRecs(rng, n, 40)
		c := tr.buildCorner(rs)
		for a := int64(-2); a <= 42; a++ {
			got := runCorner(tr, c, a)
			want := cornerOracle(rs, a)
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d n=%d a=%d: got %d ids want %d", trial, n, a, len(got), len(want))
			}
		}
		tr.freeCorner(c)
	}
}

func TestCornerStructureNoDuplicateEmission(t *testing.T) {
	tr := newTestTree(4)
	rng := rand.New(rand.NewSource(2))
	rs := genDiagonalRecs(rng, 80, 20) // heavy coordinate collisions
	c := tr.buildCorner(rs)
	for a := int64(0); a <= 20; a++ {
		got := runCorner(tr, c, a)
		for id, k := range got {
			if k != 1 {
				t.Fatalf("a=%d: id %d emitted %d times", a, id, k)
			}
		}
	}
}

func TestCornerStructureEmpty(t *testing.T) {
	tr := newTestTree(4)
	c := tr.buildCorner(nil)
	if got := runCorner(tr, c, 5); len(got) != 0 {
		t.Fatalf("empty corner structure returned %v", got)
	}
}

func TestCornerStructureSingleBlock(t *testing.T) {
	tr := newTestTree(8)
	rs := genDiagonalRecs(rand.New(rand.NewSource(3)), 5, 10)
	c := tr.buildCorner(rs)
	if len(c.stars) != 0 {
		t.Fatalf("single-block structure should have no stars, got %d", len(c.stars))
	}
	for a := int64(0); a <= 11; a++ {
		if !sameMultiset(runCorner(tr, c, a), cornerOracle(rs, a)) {
			t.Fatalf("a=%d mismatch", a)
		}
	}
}

// Lemma 3.1 space bound: total star points <= 2k plus the forced stars'
// slack (we assert <= 3k + B; the paper's constant is 2 with exact
// bookkeeping of the two forced stars).
func TestCornerStructureSpaceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, b := range []int{4, 8, 16} {
		tr := newTestTree(b)
		for trial := 0; trial < 10; trial++ {
			k := b*b/2 + rng.Intn(3*b*b/2+1) // up to 2B^2
			rs := genDiagonalRecs(rng, k, int64(4*k+10))
			c := tr.buildCorner(rs)
			if sp := c.starPoints(); sp > 3*k+b {
				t.Fatalf("B=%d k=%d: star points %d exceed 3k+B=%d", b, k, sp, 3*k+b)
			}
			tr.freeCorner(c)
		}
	}
}

// Lemma 3.1 query bound: at most 2t/B + c I/Os per corner query (c covers
// the index pages; the paper's constant is 4 with a one-page index).
func TestCornerStructureQueryIOBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range []int{4, 8, 16} {
		tr := newTestTree(b)
		k := 2 * b * b
		rs := genDiagonalRecs(rng, k, int64(3*k))
		c := tr.buildCorner(rs)
		for trial := 0; trial < 200; trial++ {
			a := rng.Int63n(int64(3*k) + 2)
			before := tr.Stats()
			got := 0
			tr.queryCorner(c, a, func(rec) bool { got++; return true })
			ios := tr.Stats().Sub(before).ModelIOs()
			bound := 2*int64(got)/int64(b) + 5
			if ios > bound {
				t.Fatalf("B=%d a=%d t=%d: %d I/Os exceeds 2t/B+5 = %d", b, a, got, ios, bound)
			}
		}
	}
}

func TestCornerStructureAuxPreserved(t *testing.T) {
	tr := newTestTree(4)
	rs := []rec{
		{pt: geom.Point{X: 1, Y: 5, ID: 1}, aux: tdAux(3, true)},
		{pt: geom.Point{X: 2, Y: 7, ID: 2}, aux: tdAux(1, false)},
		{pt: geom.Point{X: 4, Y: 4, ID: 3}, aux: tdAux(2, true)},
	}
	c := tr.buildCorner(rs)
	found := map[uint64]uint32{}
	tr.queryCorner(c, 4, func(r rec) bool {
		found[r.pt.ID] = r.aux
		return true
	})
	if len(found) != 3 {
		t.Fatalf("expected 3 results, got %v", found)
	}
	if found[1] != tdAux(3, true) || found[2] != tdAux(1, false) || found[3] != tdAux(2, true) {
		t.Fatalf("aux fields corrupted: %v", found)
	}
}

func TestCornerStructureEarlyStop(t *testing.T) {
	tr := newTestTree(4)
	rs := genDiagonalRecs(rand.New(rand.NewSource(6)), 60, 30)
	c := tr.buildCorner(rs)
	count := 0
	tr.queryCorner(c, 15, func(rec) bool {
		count++
		return false
	})
	if count > 1 {
		t.Fatalf("early stop emitted %d", count)
	}
}

func TestCornerStructureFreeReleasesAllPages(t *testing.T) {
	tr := newTestTree(4)
	before := tr.Pager().Allocated()
	rs := genDiagonalRecs(rand.New(rand.NewSource(7)), 50, 25)
	c := tr.buildCorner(rs)
	if tr.Pager().Allocated() <= before {
		t.Fatal("build allocated nothing")
	}
	tr.freeCorner(c)
	if got := tr.Pager().Allocated(); got != before {
		t.Fatalf("leak: %d pages allocated after free, want %d", got, before)
	}
}
