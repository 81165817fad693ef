package harness

// E21 — Durable storage: cold-open I/O and durable-vs-simulated
// throughput.
//
// The paper's cost model counts page transfers to secondary storage;
// PR 1-4 measured them against an in-memory simulation. E21 runs the SAME
// interval-management workload on the file-backed device (disk.FileDevice)
// and verifies the central claim of the persistence layer: the measured
// ios/op are identical on both backends (the structures are oblivious to
// the device), while the file-backed run adds a real durability cost
// (journal pre-images, checkpoint blobs, fsync) that is visible only in
// wall-clock time and in the separate journal counters.
//
// It also measures restartable serving: the cold-open cost of
// OpenAt — recovery, root reattachment, and the O(n/B) endpoint scan that
// rebuilds the id directory — in both block reads and wall-clock time, as
// a function of n.

import (
	"fmt"
	"io"
	"os"
	"time"

	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

// E21Intervals is the interval count of the E21 workload (flag -e21n).
var E21Intervals = 100000

func runE21(w io.Writer) {
	const (
		b       = 32
		queries = 2000
		span    = int64(1 << 20)
	)
	n := E21Intervals
	ivs := workload.UniformIntervals(77, n, span, span/64)
	qs := workload.StabQueries(79, queries, span)

	fmt.Fprintf(w, "B=%d, n=%d intervals, %d stab queries per backend.\n\n", b, n, queries)
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s\n",
		"backend", "build ms", "ios/query", "us/query", "t-check")

	type result struct {
		name     string
		buildMS  float64
		iosPerQ  float64
		usPerQ   float64
		reported int64
	}
	var results []result

	// ios/query is the model count on the bare backends (every page
	// consulted) and the device count under the pool (what the pool exists
	// to cut).
	runQueries := func(m *intervals.Manager, pooled bool) (float64, float64, int64) {
		m.ResetStats()
		var reported int64
		start := time.Now()
		for _, q := range qs {
			m.Stab(q, func(geom.Interval) bool { reported++; return true })
		}
		elapsed := time.Since(start)
		st := m.Stats()
		ios := st.ModelIOs()
		if pooled {
			ios = st.IOs()
		}
		return float64(ios) / float64(len(qs)),
			float64(elapsed.Microseconds()) / float64(len(qs)),
			reported
	}

	// Backend 1: the in-memory simulation (the PR 1-4 baseline).
	start := time.Now()
	sim := intervals.New(intervals.Config{B: b}, ivs)
	simBuild := time.Since(start)
	ios, us, rep := runQueries(sim, false)
	results = append(results, result{"simulated (Pager)", float64(simBuild.Milliseconds()), ios, us, rep})

	// Backend 2: file-backed, bare (every access a real page transfer).
	dir, err := os.MkdirTemp("", "ccidx-e21-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	start = time.Now()
	dur, err := intervals.CreateAt(dir, intervals.Config{B: b}, ivs, intervals.DurableOptions{})
	if err != nil {
		panic(err)
	}
	durBuild := time.Since(start)
	ios, us, rep = runQueries(dur, false)
	results = append(results, result{"durable (FileDevice)", float64(durBuild.Milliseconds()), ios, us, rep})

	// Backend 3: file-backed with the serving-layer buffer pool.
	dur.AttachPool(4096, 8)
	ios, us, rep = runQueries(dur, true)
	results = append(results, result{"durable + pool", 0, ios, us, rep})

	for _, r := range results {
		fmt.Fprintf(w, "%-22s %12.0f %12.2f %12.1f %12d\n",
			r.name, r.buildMS, r.iosPerQ, r.usPerQ, r.reported)
	}
	if results[0].iosPerQ != results[1].iosPerQ {
		fmt.Fprintf(w, "!! ios/query differs between simulated and durable backends\n")
	} else {
		fmt.Fprintf(w, "\nios/query identical on both backends: the structures are device-oblivious;\n"+
			"durability costs wall-clock only (plus journal/fsync overhead below).\n")
	}
	// Durability overhead of an incremental epoch: churn against the last
	// checkpoint (first-touch pre-images hit the rollback journal), then
	// checkpoint again.
	churn := workload.ChurnOps(81, workload.SeqIDs(n), uint64(n), n/10, span, span/64)
	start = time.Now()
	for _, op := range churn {
		switch op.Kind {
		case workload.ChurnInsert:
			dur.Insert(op.Iv)
		case workload.ChurnDelete:
			dur.Delete(op.ID)
		}
	}
	if err := dur.Checkpoint(); err != nil {
		panic(err)
	}
	epoch := time.Since(start)
	ja, syncs := dur.Files()[0].JournalStats()
	ja2, syncs2 := dur.Files()[1].JournalStats()
	fmt.Fprintf(w, "incremental epoch (%d churn ops + checkpoint) in %d ms:\n"+
		"durability overhead %d journal pre-images, %d fsyncs.\n\n",
		len(churn), epoch.Milliseconds(), ja+ja2, syncs+syncs2)

	// Cold-open: close, reopen — measuring recovery + the O(n/B)
	// directory-rebuild scan.
	if err := dur.CloseFiles(); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "cold open", "n", "open I/Os", "open ms")
	for _, frac := range []int{4, 2, 1} {
		sub := ivs[:n/frac]
		subDir, err := os.MkdirTemp("", "ccidx-e21-open-*")
		if err != nil {
			panic(err)
		}
		m, err := intervals.CreateAt(subDir, intervals.Config{B: b}, sub, intervals.DurableOptions{})
		if err != nil {
			panic(err)
		}
		m.CloseFiles()
		start := time.Now()
		re, err := intervals.OpenAt(subDir, intervals.DurableOptions{})
		if err != nil {
			panic(err)
		}
		openMS := float64(time.Since(start).Microseconds()) / 1000
		st := re.Stats()
		fmt.Fprintf(w, "%-12s %12d %12d %12.1f\n", "", len(sub), st.IOs(), openMS)
		re.CloseFiles()
		os.RemoveAll(subDir)
	}
	fmt.Fprintf(w, "\nopen I/Os grow as O(n/B): recovery reads the superblock + state blob and\n"+
		"rebuilds the id directory with one endpoint leaf-chain scan.\n")
}
