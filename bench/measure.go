package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// params is what one run of one workload is given.
type params struct {
	seed    int64
	seconds float64   // length of the measured phase
	scale   int       // size divisor: 1 is the benchmark, the smoke test uses 200
	dataDir string    // parent of every directory the run creates
	report  io.Writer // human-readable lines
}

// size scales a full-size count down for smoke runs, never below floor.
func (p params) size(full, floor int) int {
	if n := full / p.scale; n > floor {
		return n
	}
	return floor
}

func (p params) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(p.dataDir, prefix)
}

// metric is one reported number; samples is how many observations it
// summarises (latencies pooled, rounds, or operations behind a ratio).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is what a run reports: the operations it attempted, those that
// failed (error, non-200, oracle mismatch, broken conservation) and the
// metrics of the chosen mode.
type outcome struct {
	attempted int64
	failed    int64
	metrics   []metric
}

func (o *outcome) add(name, unit string, value float64, samples int) {
	o.metrics = append(o.metrics, metric{name, unit, value, samples})
}

// fail counts failed operations and says why on the report stream.
func (o *outcome) fail(p params, n int64, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(p.report, "# FAILED (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// setupReps is how often a run repeats its set-up; setup_s is the median,
// so one disturbed build does not move it.
const setupReps = 3

// medianSetup times build setupReps times, discards all but the last
// product, and returns that one with the median build time in seconds.
func medianSetup[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// countRounds is the fixed prefix of the measured phase that the count
// metrics (pages_per_read, space_ratio) are taken over: operation counts,
// unlike times, must not depend on how fast the machine is, so they are
// read after a fixed number of operations, not after a fixed time.
const countRounds = 4

// rounds is the measured phase: fixed-size rounds, a GC before each, until
// the phase has lasted `seconds` and at least countRounds rounds ran.
type rounds struct {
	lat  []int64 // read latencies in ns, pooled over all rounds
	n    int     // rounds completed
	ops  int64
	busy float64 // seconds spent inside rounds, the collections between them excluded
}

// run calls round(r) until the time is up; round performs a fixed number
// of operations, appends its read latencies to lat and returns how many
// operations it completed.
func (m *rounds) run(seconds float64, round func(r int, lat *[]int64) int) {
	phase := time.Now()
	for r := 0; r < countRounds || time.Since(phase).Seconds() < seconds; r++ {
		runtime.GC()
		start := time.Now()
		n := round(r, &m.lat)
		m.busy += time.Since(start).Seconds()
		m.ops += int64(n)
		m.n++
	}
}

// endToEnd appends the seven end-to-end metrics. The latency sample is
// dropped before the heap is read, so heap_mb is the program's memory and
// not the harness's.
func (m *rounds) endToEnd(out *outcome, p params, setupS, pagesPerRead float64, countedReads int, spaceRatio float64) {
	lat := m.lat
	m.lat = nil
	sortInt64s(lat)
	out.add("setup_s", "s", setupS, setupReps)
	out.add("ops_per_s", "1/s", float64(m.ops)/m.busy, m.n)
	out.add("read_p50_us", "us", percentileUs(lat, 50), len(lat))
	out.add("read_p99_us", "us", percentileUs(lat, 99), len(lat))
	out.add("pages_per_read", "pages", pagesPerRead, countedReads)
	out.add("space_ratio", "ratio", spaceRatio, 1)
	if hp := highestPercentile(len(lat)); hp > 0 {
		fmt.Fprintf(p.report, "# highest percentile with >= 10 samples beyond it: p%g = %.3f us (n=%d)\n",
			hp, percentileUs(lat, hp), len(lat))
	}
	lat = nil
	out.add("heap_mb", "MB", heapMB(), 1)
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
