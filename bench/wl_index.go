package main

import (
	"fmt"
	"os"
	"time"

	"ccidx"
	"ccidx/internal/geom"
)

// indexWorkload describes one of the three workloads that drive a durable
// ccidx.Index from a single goroutine: query-hot, query-cold, ingest-mixed.
type indexWorkload struct {
	n        int // preloaded intervals
	opts     ccidx.Options
	isWrite  func(i int) bool // which positions of the op stream are writes
	warmOps  int
	roundOps int
	// steady, when set, extends the warm-up until it reports true: the
	// ingest workload must reach its full run fan-in before it is timed.
	steady func(ccidx.Index) bool
	// recoverOps > 0 ends the run with the WAL recovery check over that
	// many acknowledged writes.
	recoverOps int
}

// Pool sizes relative to the ~48k pages the 200k intervals occupy.
const (
	hotFrames    = 131072 // > working set: every page stays resident
	coldFrames   = 256    // the serving default, ~0.5% of the pages
	ingestFrames = 4096
)

func queryWorkload(p params, frames, roundOps int) indexWorkload {
	return indexWorkload{
		n:        p.size(200000, 1000),
		opts:     ccidx.Options{B: blockB, PoolFrames: frames},
		isWrite:  readsOnly,
		warmOps:  p.size(100000, 500),
		roundOps: p.size(roundOps, 200),
	}
}

func ingestWorkload(p params) indexWorkload {
	w := indexWorkload{
		n:          p.size(200000, 1000),
		opts:       ccidx.Options{B: blockB, PoolFrames: ingestFrames, Ingest: &ccidx.IngestOptions{}},
		isWrite:    func(i int) bool { return i%10 != 9 }, // blocks of 9 writes + 1 read
		warmOps:    p.size(150000, 1000),
		roundOps:   p.size(20000, 200),
		recoverOps: p.size(10000, 100),
	}
	if p.scale == 1 {
		// Before eight runs exist reads fan in over fewer structures and are
		// up to 40% faster than they will be for the rest of the index's life.
		w.steady = func(idx ccidx.Index) bool {
			st := idx.IngestStats()
			return st.Runs >= 8 && st.Merges >= 8
		}
	}
	return w
}

// oracleReads is how many of a run's first reads are compared, as id sets,
// with a brute-force scan of the generator's live intervals.
func oracleReads(p params) int { return p.size(2000, 50) }

// indexRun is the state shared by the phases of one indexWorkload run.
type indexRun struct {
	p       params
	w       indexWorkload
	out     *outcome
	dir     string
	idx     ccidx.Index
	gen     *opGen
	reads   int // reads issued so far; the first oracleReads(p) are checked
	scratch []uint64
}

// read issues one Intersect and returns its latency; the first reads of a
// run collect ids and are checked against the oracle instead of timed.
func (r *indexRun) read(q geom.Interval) int64 {
	r.reads++
	r.out.attempted++
	if r.reads <= oracleReads(r.p) {
		r.scratch = r.scratch[:0]
		r.idx.Intersect(q, func(iv ccidx.Interval) bool {
			r.scratch = append(r.scratch, iv.ID)
			return true
		})
		if !sameIDs(r.scratch, intersecting([]*opGen{r.gen}, q)) {
			r.out.fail(r.p, 1, "Intersect(%v) differs from the brute-force oracle", q)
		}
		return 0
	}
	start := time.Now()
	r.idx.Intersect(q, func(ccidx.Interval) bool { return true })
	return int64(time.Since(start))
}

// apply executes one generated operation, appending a read's latency to lat.
func (r *indexRun) apply(o op, lat *[]int64) {
	switch o.kind {
	case opRead:
		if d := r.read(o.iv); d > 0 && lat != nil {
			*lat = append(*lat, d)
		}
	case opInsert:
		r.out.attempted++
		r.idx.Insert(o.iv)
	case opDelete:
		r.out.attempted++
		if !r.idx.Delete(o.iv.ID) {
			r.out.fail(r.p, 1, "Delete(%d) of a live interval reported absent", o.iv.ID)
		}
	}
}

func (r *indexRun) pageAccesses() int64 {
	h, m := r.idx.PoolStats()
	return h + m
}

func (r *indexRun) close() {
	if r.idx != nil {
		r.idx.Close()
	}
	os.RemoveAll(r.dir)
}

// open builds the durable index from the generated intervals and reopens
// it: the path every first operation of a fresh process waits for.
func (w indexWorkload) open(p params, ivs []geom.Interval) (*indexRun, error) {
	dir, err := p.tempDir("index-")
	if err != nil {
		return nil, err
	}
	idx, err := ccidx.Create(dir, w.opts, ivs)
	if err == nil {
		if err = idx.Close(); err == nil {
			idx, err = ccidx.Open(dir, w.opts)
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &indexRun{p: p, w: w, dir: dir, idx: idx}, nil
}

func runIndex(p params, w indexWorkload) (*outcome, error) {
	ivs, span := genIntervals(p.seed, w.n)
	r, setupS, err := medianSetup(setupReps,
		func() (*indexRun, error) { return w.open(p, ivs) },
		func(r *indexRun) { r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.out = &outcome{}
	r.gen = newOpGen(p.seed+1, span, ivs, uint64(w.n), 1, w.isWrite)

	for i := 0; i < w.warmOps; i++ {
		r.apply(r.gen.next(), nil)
	}
	for extra := 0; w.steady != nil && !w.steady(r.idx) && extra < 4*w.warmOps; extra++ {
		r.apply(r.gen.next(), nil)
	}

	var m rounds
	var pages, countedReads int64
	pages0 := r.pageAccesses()
	var spaceRatio float64
	m.run(p.seconds, func(round int, lat *[]int64) int {
		for i := 0; i < w.roundOps; i++ {
			r.apply(r.gen.next(), lat)
		}
		if round == countRounds-1 {
			pages = r.pageAccesses() - pages0
			countedReads = int64(len(*lat))
			spaceRatio = float64(r.idx.SpaceBlocks()) * blockB / float64(len(r.gen.live))
		}
		return w.roundOps
	})

	if got, want := r.idx.Len(), len(r.gen.live); got != want {
		r.out.fail(p, 1, "Len() = %d, want loaded + inserted - deleted = %d", got, want)
	}
	if w.recoverOps > 0 {
		if err := r.checkRecovery(); err != nil {
			return nil, err
		}
	}
	m.endToEnd(r.out, p, setupS, ratio(float64(pages), float64(countedReads)), int(countedReads), spaceRatio)
	return r.out, nil
}

// checkRecovery checkpoints, acknowledges recoverOps more writes, closes
// WITHOUT a checkpoint and reopens: every one of those writes must be
// visible again (and every delete not). This is logical WAL recovery with
// the operating system's cache intact — a process crash, not a power loss.
func (r *indexRun) checkRecovery() error {
	if err := r.idx.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	final := writeTail(r.gen, r.w.recoverOps, func(o op) { r.apply(o, nil) })
	if err := r.idx.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	idx, err := ccidx.Open(r.dir, r.w.opts)
	if err != nil {
		r.idx = nil
		return fmt.Errorf("reopen after unclean close: %w", err)
	}
	r.idx = idx
	checkRecovered(r.p, r.out, final, idx.Len(), len(r.gen.live), func(q geom.Interval, emit func(geom.Interval) bool) {
		idx.Intersect(q, emit)
	})
	return nil
}

// writeTail applies generated operations until n distinct ids have been
// written, and returns the last write to each.
func writeTail(g *opGen, n int, apply func(op)) map[uint64]op {
	final := make(map[uint64]op)
	for len(final) < n {
		o := g.next()
		apply(o)
		if o.kind != opRead {
			final[o.iv.ID] = o
		}
	}
	return final
}

// checkRecovered verifies a reopened index against the writes acknowledged
// before its unclean close: the live count, every insert visible, every
// delete not.
func checkRecovered(p params, out *outcome, final map[uint64]op, gotLen, wantLen int,
	intersect func(q geom.Interval, emit func(geom.Interval) bool)) {
	if gotLen != wantLen {
		out.fail(p, 1, "after recovery Len() = %d, want %d", gotLen, wantLen)
	}
	for id, o := range final {
		out.attempted++
		found := false
		intersect(o.iv, func(iv geom.Interval) bool {
			found = iv.ID == id
			return !found
		})
		if found != (o.kind == opInsert) {
			out.fail(p, 1, "after recovery interval %d visible = %v, want %v", id, found, o.kind == opInsert)
		}
	}
}
