// Quickstart: index a set of intervals and run stabbing and intersection
// queries through the public API, printing the I/O cost of each operation.
//
// This is the minimal end-to-end use of the paper's result: interval
// management with B+-tree-like efficiency (Proposition 2.2 + Theorem 3.7).
package main

import (
	"fmt"

	"ccidx"
)

func main() {
	// A small schedule of jobs with start/end times.
	jobs := []ccidx.Interval{
		{Lo: 900, Hi: 1030, ID: 1},  // 09:00-10:30
		{Lo: 1000, Hi: 1200, ID: 2}, // 10:00-12:00
		{Lo: 1130, Hi: 1300, ID: 3}, // 11:30-13:00
		{Lo: 1400, Hi: 1500, ID: 4}, // 14:00-15:00
		{Lo: 845, Hi: 1700, ID: 5},  // 08:45-17:00
	}
	im := ccidx.NewIntervalManager(ccidx.Config{B: 16}, jobs)

	// Which jobs are running at 11:45?
	before := im.Stats()
	fmt.Println("jobs running at 11:45:")
	im.Stab(1145, func(iv ccidx.Interval) bool {
		fmt.Printf("  job %d [%d, %d]\n", iv.ID, iv.Lo, iv.Hi)
		return true
	})
	fmt.Printf("  (%d block I/Os)\n", im.Stats().Sub(before).ModelIOs())

	// Which jobs overlap the window 10:00-11:00?
	before = im.Stats()
	fmt.Println("jobs overlapping [10:00, 11:00]:")
	im.Intersect(ccidx.Interval{Lo: 1000, Hi: 1100}, func(iv ccidx.Interval) bool {
		fmt.Printf("  job %d [%d, %d]\n", iv.ID, iv.Lo, iv.Hi)
		return true
	})
	fmt.Printf("  (%d block I/Os)\n", im.Stats().Sub(before).ModelIOs())

	// Inserts are cheap and amortized (Theorem 3.7).
	before = im.Stats()
	im.Insert(ccidx.Interval{Lo: 1115, Hi: 1145, ID: 6})
	fmt.Printf("inserted job 6 with %d block I/Os; manager now holds %d intervals in %d blocks\n",
		im.Stats().Sub(before).ModelIOs(), im.Len(), im.SpaceBlocks())
}
