package harness

// E25 — Write-optimized ingest: the log-structured decomposition frontier.
//
// PR 10 decomposes the interval manager into a memtable plus a logarithmic
// set of immutable runs (the Bentley–Saxe construction applied to the
// Proposition 2.2 structure). E25 measures the trade the decomposition
// buys, at EQUAL durability — every mode below runs WAL-on, acked at the
// same sync boundary:
//
//  1. Ingest sweep: the SAME insert-heavy churn stream against the durable
//     single-tree manager (the rebuild path: semi-dynamic metablock
//     inserts + weak-delete global rebuilds, all foreground by
//     construction) and against log-structured managers across MaxRuns in
//     {2, 4, 8, 16}. Per-op I/O is split into a foreground bucket (ops
//     that only touched the WAL and memtable) and a background bucket
//     (ops on which a memtable flush, run merge, or dead-fraction
//     compaction fired — work a background merger takes off the ack
//     path; the sweep runs SyncCompaction for deterministic accounting).
//     The headline claim: foreground I/Os per insert drops >= 5x.
//
//  2. Read fan-in: after the churn, 200 stabbing queries per mode measure
//     what the decomposition costs reads — one corner query per live run
//     instead of one — as MaxRuns grows. Every answer is checked against
//     an in-memory single-tree oracle fed the identical stream; any set
//     difference is a correctness failure, not a statistic.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

// E25Intervals is the interval count of the E25 workload (flag -e25n).
var E25Intervals = 30000

func runE25(w io.Writer) {
	const b = 32
	n := E25Intervals
	span := int64(n) * 16
	ops := n / 2
	memtable := 1024
	if memtable > ops/8 {
		memtable = ops / 8
	}

	base := workload.UniformIntervals(103, n/2, span, span/64)
	churn := workload.ChurnOps(107, workload.SeqIDs(n/2), uint64(n/2), ops, span, span/64)

	// The oracle: a plain in-memory single tree fed the identical stream.
	oracle := intervals.New(intervals.Config{B: b}, base)
	for _, op := range churn {
		switch op.Kind {
		case workload.ChurnInsert:
			oracle.Insert(op.Iv)
		case workload.ChurnDelete:
			oracle.Delete(op.ID)
		}
	}
	queries := make([]int64, 200)
	for i := range queries {
		queries[i] = int64(i) * span / int64(len(queries))
	}
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		want[i] = sortedStabIDs(oracle, q)
	}

	fmt.Fprintf(w, "B=%d, n=%d preloaded intervals, %d churn ops, WAL on everywhere;\n"+
		"log-structured modes: memtable=%d, SyncCompaction (deterministic I/O buckets).\n"+
		"ios = pager I/Os + device writes; fg = ops where no flush/merge/compaction fired.\n\n",
		b, n/2, ops, memtable)
	fmt.Fprintf(w, "%-14s %8s %12s %12s %10s %6s %8s %10s %6s\n",
		"mode", "us/op", "fg ios/ins", "bg ios/ins", "devw/op", "runs", "fl/mg/cp", "stab I/O", "mism")

	var treeFg float64
	modes := []struct {
		name string
		ig   *intervals.IngestConfig
	}{
		{"tree(rebuild)", nil},
		{"lsm maxruns=2", &intervals.IngestConfig{MemtableSize: memtable, MaxRuns: 2, SyncCompaction: true}},
		{"lsm maxruns=4", &intervals.IngestConfig{MemtableSize: memtable, MaxRuns: 4, SyncCompaction: true}},
		{"lsm maxruns=8", &intervals.IngestConfig{MemtableSize: memtable, MaxRuns: 8, SyncCompaction: true}},
		{"lsm maxruns=16", &intervals.IngestConfig{MemtableSize: memtable, MaxRuns: 16, SyncCompaction: true}},
	}
	for _, mode := range modes {
		dir, err := os.MkdirTemp("", "ccidx-e25-*")
		if err != nil {
			panic(err)
		}
		m, err := intervals.CreateAt(dir, intervals.Config{B: b, Ingest: mode.ig}, base, intervals.DurableOptions{})
		if err != nil {
			panic(err)
		}
		ios := func() int64 { return m.Stats().IOs() + m.FileWrites() }
		bgEvents := func() int64 {
			st := m.IngestStats()
			return st.Flushes + st.Merges + st.Compactions
		}
		var fgIOs, bgIOs, inserts int64
		writes0 := m.FileWrites()
		start := time.Now()
		for _, op := range churn {
			before, ev := ios(), bgEvents()
			switch op.Kind {
			case workload.ChurnInsert:
				m.Insert(op.Iv)
				inserts++
			case workload.ChurnDelete:
				m.Delete(op.ID)
			}
			delta := ios() - before
			if bgEvents() != ev {
				bgIOs += delta
			} else if op.Kind == workload.ChurnInsert {
				fgIOs += delta
			}
		}
		elapsed := time.Since(start)
		devWrites := m.FileWrites() - writes0

		st0 := m.Stats()
		mismatched := 0
		for i, q := range queries {
			if !equalIDs(sortedStabIDs(m, q), want[i]) {
				mismatched++
			}
		}
		stabIOs := float64(m.Stats().Sub(st0).ModelIOs()) / float64(len(queries))

		ing := m.IngestStats()
		fg := float64(fgIOs) / float64(inserts)
		if mode.ig == nil {
			treeFg = fg
		}
		fmt.Fprintf(w, "%-14s %8.1f %12.2f %12.2f %10.2f %6d %8s %10.1f %6d\n",
			mode.name, float64(elapsed.Microseconds())/float64(len(churn)),
			fg, float64(bgIOs)/float64(inserts), float64(devWrites)/float64(len(churn)),
			ing.Runs, fmt.Sprintf("%d/%d/%d", ing.Flushes, ing.Merges, ing.Compactions),
			stabIOs, mismatched)
		if mismatched > 0 {
			fmt.Fprintf(w, "!! %s: %d of %d stab answers differ from the single-tree oracle\n",
				mode.name, mismatched, len(queries))
		}
		if mode.ig != nil && treeFg > 0 && fg > 0 && treeFg/fg < 5 {
			fmt.Fprintf(w, "!! %s: foreground ios/insert only %.1fx below the rebuild path (want >= 5x)\n",
				mode.name, treeFg/fg)
		}
		m.CloseFiles()
		os.RemoveAll(dir)
	}
	fmt.Fprintf(w, "\nshape check: the rebuild path pays its metablock merges and global\n"+
		"rebuilds inline, so its foreground column IS its total; log-structured\n"+
		"ingest acks after one WAL append + a memtable write, deferring tree\n"+
		"construction to the flush/merge bucket. Larger MaxRuns defers more\n"+
		"(lower write amplification in devw/op) and charges reads one corner\n"+
		"query per extra run (stab I/O column) — the classic LSM frontier.\n")
}

// sortedStabIDs collects a Stab answer as a sorted id set.
func sortedStabIDs(m *intervals.Manager, q int64) []uint64 {
	var ids []uint64
	m.Stab(q, func(iv geom.Interval) bool {
		ids = append(ids, iv.ID)
		return true
	})
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
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
