// Command mbtree builds a metablock tree over a synthetic interval workload
// and reports per-query I/O statistics, demonstrating the Section 3 bounds
// from the command line.
//
// Usage:
//
//	mbtree -n 100000 -b 32 -queries 200 -workload uniform
package main

import (
	"flag"
	"fmt"
	"os"

	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

func main() {
	n := flag.Int("n", 100000, "number of intervals")
	b := flag.Int("b", 32, "block capacity B (records per page)")
	queries := flag.Int("queries", 200, "number of stabbing queries")
	kind := flag.String("workload", "uniform", "workload: uniform|clustered|nested")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	span := int64(*n) * 16
	var ivs []geom.Interval
	switch *kind {
	case "uniform":
		ivs = workload.UniformIntervals(*seed, *n, span, span/int64(*n)*8)
	case "clustered":
		ivs = workload.ClusteredIntervals(*seed, *n, span, span/int64(*n)*8, 16)
	case "nested":
		ivs = workload.NestedIntervals(*seed, *n, span)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *kind)
		os.Exit(1)
	}

	mgr := intervals.New(intervals.Config{B: *b}, ivs)
	build := mgr.Stats()
	fmt.Printf("built interval manager: n=%d B=%d space=%d blocks (build %v)\n",
		*n, *b, mgr.SpaceBlocks(), build)

	mgr.ResetStats()
	var total, tout int64
	var worst int64
	for i := 0; i < *queries; i++ {
		q := int64(i) * span / int64(*queries)
		before := mgr.Stats()
		cnt := int64(0)
		mgr.Stab(q, func(geom.Interval) bool { cnt++; return true })
		ios := mgr.Stats().Sub(before).ModelIOs()
		total += ios
		tout += cnt
		if ios > worst {
			worst = ios
		}
	}
	fmt.Printf("%d stabbing queries: avg output %.1f, avg %.1f I/Os, worst %d I/Os\n",
		*queries, float64(tout)/float64(*queries), float64(total)/float64(*queries), worst)
	fmt.Printf("reference shape log_B n + t/B = %.1f\n",
		logB(*n, *b)+float64(tout)/float64(*queries)/float64(*b))
}

func logB(n, b int) float64 {
	l, v := 0, 1
	for v < n {
		v *= b
		l++
	}
	if l == 0 {
		l = 1
	}
	return float64(l)
}
