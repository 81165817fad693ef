// Temporal: a temporal-database scenario for interval management. Every
// row version carries a validity interval [from, to]; "as of" queries are
// stabbing queries, and audit windows are interval intersections — the
// exact workload Section 2.1 motivates for constraint indexing, at a scale
// where the O(log_B n + t/B) vs O(n/B) difference is visible.
package main

import (
	"fmt"
	"math/rand"

	"ccidx"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
)

func main() {
	const n = 200_000
	const horizon = int64(3_000_000) // "seconds" of history
	rng := rand.New(rand.NewSource(99))

	im := ccidx.NewIntervalManager(ccidx.Config{B: 64}, nil)
	naive := intervals.NewNaive(64)
	for i := 0; i < n; i++ {
		from := rng.Int63n(horizon)
		iv := ccidx.Interval{Lo: from, Hi: from + 1000 + rng.Int63n(20_000), ID: uint64(i)}
		im.Insert(iv)
		naive.Insert(iv)
	}
	fmt.Printf("loaded %d row versions over a %d-second horizon\n", n, horizon)

	// "As of" query.
	asOf := horizon / 2
	before := im.Stats()
	live := 0
	im.Stab(asOf, func(ccidx.Interval) bool { live++; return true })
	mIOs := im.Stats().Sub(before).ModelIOs()

	bn := naive.Pager().Stats()
	naive.Stab(asOf, func(geom.Interval) bool { return true })
	nIOs := naive.Pager().Stats().Sub(bn).IOs()

	fmt.Printf("AS OF t=%d: %d live versions; metablock manager %d I/Os, naive scan %d I/Os (%.0fx)\n",
		asOf, live, mIOs, nIOs, float64(nIOs)/float64(mIOs))

	// Audit window: every version valid at any point of a 1-hour window.
	win := ccidx.Interval{Lo: asOf, Hi: asOf + 3600}
	before = im.Stats()
	hits := 0
	im.Intersect(win, func(ccidx.Interval) bool { hits++; return true })
	fmt.Printf("audit window [%d, %d]: %d versions, %d I/Os\n",
		win.Lo, win.Hi, hits, im.Stats().Sub(before).ModelIOs())

	fmt.Printf("index space: %d blocks for %d intervals (O(n/B))\n", im.SpaceBlocks(), im.Len())
}
