package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ccidx"
	"ccidx/internal/bptree"
	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/threeside"
	"ccidx/internal/workload"
)

// A -trace 1 run reports every per-layer metric, whatever the workload:
// it runs all four sections below (tree, ingest, serve, class). The section
// the workload itself exercises runs at the workload's size and pool
// configuration; the others run as probes at 1/8 of it, so that a layer
// off the workload's path still reports a measured number, not a constant.
const probeShrink = 8

// sectionSize returns full for the workload's own section and full/8 for a
// probe, scaled like every other size.
func sectionSize(p params, own bool, full, floor int) int {
	if !own {
		full /= probeShrink
	}
	return p.size(full, floor)
}

// runTrace is the traced run of one workload: per-layer metrics from spans
// around the benchmark's own calls into each layer, written out as JSON
// lines when the run ends.
func runTrace(p params, name, outDir string) (*outcome, error) {
	t := newTracer()
	out := &outcome{}
	frames := coldFrames
	if name == "query-hot" {
		frames = hotFrames
	}
	own := map[string]string{
		"query-hot": "tree", "query-cold": "tree", "ingest-mixed": "ingest",
		"serve-http": "serve", "class-query": "class",
	}[name]
	overhead := make(map[string]float64) // per section: traced vs untraced read p50
	tree, err := traceTree(p, t, out, own == "tree", frames)
	if err != nil {
		return nil, fmt.Errorf("tree section: %w", err)
	}
	overhead["tree"] = tree.overhead
	ingest, err := traceIngest(p, t, out, own == "ingest")
	if err != nil {
		return nil, fmt.Errorf("ingest section: %w", err)
	}
	overhead["ingest"] = ingest.overhead
	// how many more pages a read touches once the data is spread over runs
	out.add("intervals.read_fanin", "ratio", ratio(ingest.pagesPerRead, tree.pagesPerRead), 1)
	if overhead["serve"], err = traceServe(p, t, out, own == "serve"); err != nil {
		return nil, fmt.Errorf("serve section: %w", err)
	}
	if overhead["class"], err = traceClass(p, t, out, own == "class"); err != nil {
		return nil, fmt.Errorf("class section: %w", err)
	}
	out.add("trace.overhead_frac", "ratio", overhead[own], 1)
	path := filepath.Join(outDir, "trace-"+name+".jsonl")
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(p.report, "# %d spans written to %s\n", len(t.spans), path)
	return out, nil
}

// timed runs fn n times and returns the sorted per-call durations.
func timed(n int, fn func(i int)) []int64 {
	ds := make([]int64, n)
	for i := range ds {
		start := time.Now()
		fn(i)
		ds[i] = int64(time.Since(start))
	}
	sortInt64s(ds)
	return ds
}

func p50us(sorted []int64) float64 { return percentileUs(sorted, 50) }

// --- tree section: ccidx read -> core stab + bptree range -> pool -> file ---

type treeResult struct {
	pagesPerRead float64
	overhead     float64
}

// directTrees are the two structures an interval index is made of, built
// by the benchmark over the same intervals on file devices of their own,
// each behind a pool of the size ccidx would give it.
type directTrees struct {
	epDev, stDev   *disk.FileDevice
	epPool, stPool *disk.Pool
	endpoints      *bptree.Tree
	stabber        *core.Tree
}

func buildDirect(dir string, ivs []geom.Interval, frames int) (*directTrees, error) {
	epDev, err := disk.OpenFile(filepath.Join(dir, "endpoints.pages"),
		disk.FileOptions{PageSize: bptree.PageSize(blockB), MustCreate: true})
	if err != nil {
		return nil, err
	}
	stDev, err := disk.OpenFile(filepath.Join(dir, "stabber.pages"),
		disk.FileOptions{PageSize: core.Config{B: blockB}.PageSize(), MustCreate: true})
	if err != nil {
		epDev.Close()
		return nil, err
	}
	d := &directTrees{epDev: epDev, stDev: stDev}
	pts := make([]geom.Point, len(ivs))
	for i, iv := range ivs {
		pts[i] = iv.ToPoint()
	}
	d.endpoints = bptree.NewOn(epDev, blockB)
	d.stabber = core.NewOn(core.Config{B: blockB}, stDev, pts)
	for _, iv := range ivs {
		d.endpoints.InsertEntry(bptree.Entry{Key: iv.Lo, RID: iv.ID, Val: uint64(iv.Hi)})
	}
	// the split intervals.Manager.AttachPool makes
	d.epPool = disk.NewPool(epDev, frames/2, 8)
	d.stPool = disk.NewPool(stDev, frames-frames/2, 8)
	d.endpoints.SetDevice(d.epPool)
	d.stabber.SetDevice(d.stPool)
	return d, nil
}

func (d *directTrees) close() {
	d.epDev.Close()
	d.stDev.Close()
}

func poolAccesses(p *disk.Pool) int64 { return p.Hits() + p.Misses() }

func traceTree(p params, t *tracer, out *outcome, own bool, frames int) (treeResult, error) {
	n := sectionSize(p, own, 200000, 1000)
	reads := sectionSize(p, own, 30000, 200)
	ivs, span := genIntervals(p.seed, n)
	w := indexWorkload{opts: ccidx.Options{B: blockB, PoolFrames: frames}}
	r, err := w.open(p, ivs)
	if err != nil {
		return treeResult{}, err
	}
	defer r.close()
	dir, err := p.tempDir("direct-")
	if err != nil {
		return treeResult{}, err
	}
	defer os.RemoveAll(dir)
	d, err := buildDirect(dir, ivs, frames)
	if err != nil {
		return treeResult{}, err
	}
	defer d.close()

	gen := newOpGen(p.seed+1, span, ivs, uint64(n), 1, readsOnly)
	drop := func(ccidx.Interval) bool { return true }
	stab := func(q geom.Interval) { d.stabber.Stab(q.Lo, func(geom.Point) bool { return true }) }
	rng := func(q geom.Interval) { d.endpoints.Range(q.Lo+1, q.Hi, func(bptree.Entry) bool { return true }) }
	for i := 0; i < reads; i++ { // fill the pools on every rung
		q := gen.query()
		r.idx.Intersect(q, drop)
		stab(q)
		rng(q)
	}
	untraced := timed(reads, func(int) { r.idx.Intersect(gen.query(), drop) })

	first := len(t.spans)
	hits0, misses0 := r.idx.PoolStats()
	dev0 := r.idx.Stats().Reads
	st0, ep0 := poolAccesses(d.stPool), poolAccesses(d.epPool)
	for i := 0; i < reads; i++ {
		q, req := gen.query(), t.req()
		t.call("ccidx.read", "", req, func() { r.idx.Intersect(q, drop) })
		t.call("core.stab", "ccidx.read", req, func() { stab(q) })
		t.call("bptree.range", "ccidx.read", req, func() { rng(q) })
	}
	hits, misses := r.idx.PoolStats()
	hits, misses = hits-hits0, misses-misses0
	spans := t.since(first)
	read := durations(spans, "ccidx.read")
	out.attempted += int64(3 * reads)

	nr := float64(reads)
	out.add("intervals.read_self_us", "us", p50us(selfTimes(spans)["ccidx.read"]), reads)
	out.add("core.stab_p50_us", "us", p50us(durations(spans, "core.stab")), reads)
	out.add("core.pages_per_stab", "pages", float64(poolAccesses(d.stPool)-st0)/nr, reads)
	out.add("bptree.range_p50_us", "us", p50us(durations(spans, "bptree.range")), reads)
	out.add("bptree.pages_per_range", "pages", float64(poolAccesses(d.epPool)-ep0)/nr, reads)
	out.add("disk.pool_hit_rate", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	out.add("disk.dev_reads_per_read", "pages", float64(r.idx.Stats().Reads-dev0)/nr, reads)

	probes := p.size(20000, 500)
	hitNs, missUs, fileUs, err := diskUnitCosts(d.stDev, probes)
	if err != nil {
		return treeResult{}, err
	}
	out.add("disk.pool_hit_ns", "ns", hitNs, probes)
	out.add("disk.pool_miss_us", "us", missUs, probes)
	out.add("disk.file_read_us", "us", fileUs, probes)
	// the share of read time the buffer pool and the device account for
	out.add("disk.time_share", "ratio",
		ratio(float64(hits)*hitNs+float64(misses)*missUs*1e3, float64(sum(read))), reads)
	return treeResult{
		pagesPerRead: float64(hits+misses) / nr,
		overhead:     ratio(float64(percentile(read, 50)), float64(percentile(untraced, 50))) - 1,
	}, nil
}

// diskUnitCosts drives the disk layer directly on one of the workload's
// own files: a pool hit (View + Release of a resident page), a pool miss
// (the same through a pool too small to keep anything) and a bare file
// page read with its CRC check.
func diskUnitCosts(dev *disk.FileDevice, n int) (hitNs, missUs, fileUs float64, err error) {
	var ids []disk.BlockID
	for id := disk.BlockID(1); int(id) < dev.NumPages(); id++ {
		if dev.Check(id) == nil {
			ids = append(ids, id)
		}
	}
	if len(ids) < 64 {
		return 0, 0, 0, fmt.Errorf("only %d live pages to probe", len(ids))
	}
	view := func(pl *disk.Pool, id disk.BlockID) {
		if _, verr := pl.View(id); verr != nil {
			err = verr
			return
		}
		pl.Release(id)
	}
	hot := disk.NewPool(dev, 16, 1)
	view(hot, ids[0])
	start := time.Now()
	for i := 0; i < n; i++ {
		view(hot, ids[0])
	}
	hitNs = float64(time.Since(start)) / float64(n)

	cold := disk.NewPool(dev, 16, 1) // 16 frames, >= 64 pages in turn: never a hit
	start = time.Now()
	for i := 0; i < n; i++ {
		view(cold, ids[i%len(ids)])
	}
	missUs = usOf(float64(time.Since(start)) / float64(n))

	buf := make([]byte, dev.PageSize())
	start = time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = dev.Read(ids[i%len(ids)], buf)
	}
	fileUs = usOf(float64(time.Since(start)) / float64(n))
	return hitNs, missUs, fileUs, err
}

// --- ingest section: intervals.Manager writes -> memtable, WAL, runs ---

type ingestResult struct {
	pagesPerRead float64
	overhead     float64
}

func traceIngest(p params, t *tracer, out *outcome, own bool) (ingestResult, error) {
	n := sectionSize(p, own, 200000, 1000)
	warm := sectionSize(p, own, 150000, 1000)
	ops := sectionSize(p, own, 40000, 400) // untraced, then as many traced
	tail := sectionSize(p, own, 10000, 100)
	ivs, span := genIntervals(p.seed, n)
	dir, err := p.tempDir("ingest-")
	if err != nil {
		return ingestResult{}, err
	}
	defer os.RemoveAll(dir)

	// What ccidx.Create/Open do, one layer down, where the WAL and file
	// counters are visible.
	cfg := intervals.Config{B: blockB, Ingest: &intervals.IngestConfig{}}
	m, err := intervals.CreateAt(dir, cfg, ivs, intervals.DurableOptions{})
	if err != nil {
		return ingestResult{}, err
	}
	m.AttachPool(ingestFrames, 8)
	defer func() {
		if m != nil {
			m.CloseFiles()
		}
	}()

	gen := newOpGen(p.seed+1, span, ivs, uint64(n), 1, func(i int) bool { return i%10 != 9 })
	drop := func(geom.Interval) bool { return true }
	apply := func(o op) {
		switch o.kind {
		case opRead:
			m.Intersect(o.iv, drop)
		case opInsert:
			m.Insert(o.iv)
		case opDelete:
			if !m.Delete(o.iv.ID) {
				out.fail(p, 1, "Delete(%d) of a live interval reported absent", o.iv.ID)
			}
		}
	}
	steady := func() bool { st := m.IngestStats(); return st.Runs >= 8 && st.Merges >= 8 }
	for i := 0; i < warm || (own && p.scale == 1 && !steady() && i < 5*warm); i++ {
		apply(gen.next())
	}
	var untraced []int64
	for i := 0; i < ops; i++ {
		o := gen.next()
		start := time.Now()
		apply(o)
		if o.kind == opRead {
			untraced = append(untraced, int64(time.Since(start)))
		}
	}
	sortInt64s(untraced)

	first := len(t.spans)
	st0, dev0, file0 := m.IngestStats(), m.Stats().Writes, m.FileWrites()
	app0, sync0 := m.WAL().Appends(), m.WAL().Syncs()
	hits0, misses0 := m.PoolStats()
	var runs []int64
	writes := 0
	for i := 0; i < ops; i++ {
		o := gen.next()
		name := "intervals.write"
		if o.kind == opRead {
			name = "intervals.read"
		} else {
			writes++
		}
		t.call(name, "", t.req(), func() { apply(o) })
		if i%1000 == 0 {
			runs = append(runs, int64(m.IngestStats().Runs))
		}
	}
	st := m.IngestStats()
	hits, misses := m.PoolStats()
	spans := t.since(first)
	wr, rd := durations(spans, "intervals.write"), durations(spans, "intervals.read")
	out.attempted += int64(warm + 2*ops)

	nw := float64(writes)
	out.add("intervals.write_mean_us", "us", usOf(mean(wr)), writes)
	out.add("intervals.write_p99_us", "us", percentileUs(wr, 99), writes)
	out.add("intervals.write_max_us", "us", percentileUs(wr, 100), writes)
	out.add("intervals.stalls", "count", float64(st.Stalls-st0.Stalls), writes)
	out.add("intervals.flushes_per_kwrite", "1/1000", float64(st.Flushes-st0.Flushes)/nw*1e3, writes)
	out.add("intervals.merges_per_kwrite", "1/1000", float64(st.Merges-st0.Merges)/nw*1e3, writes)
	out.add("intervals.compactions", "count", float64(st.Compactions-st0.Compactions), writes)
	out.add("intervals.runs_mean", "count", mean(runs), len(runs))
	devWrites := float64(m.Stats().Writes - dev0)
	// page slots written per record written
	out.add("intervals.write_amp", "ratio", devWrites*blockB/nw, writes)
	out.add("disk.dev_writes_per_write", "pages", devWrites/nw, writes)
	out.add("disk.file_writes_per_write", "count", float64(m.FileWrites()-file0)/nw, writes)
	out.add("disk.wal_appends_per_write", "count", float64(m.WAL().Appends()-app0)/nw, writes)
	out.add("disk.wal_syncs_per_write", "count", float64(m.WAL().Syncs()-sync0)/nw, writes)

	start := time.Now()
	if err := m.Checkpoint(); err != nil {
		return ingestResult{}, fmt.Errorf("checkpoint: %w", err)
	}
	out.add("disk.checkpoint_s", "s", time.Since(start).Seconds(), 1)

	// Recovery: acknowledged writes since that checkpoint, an unclean close,
	// and the reopen that replays the WAL (OS cache intact: a process
	// crash, not a power loss).
	final := writeTail(gen, tail, apply)
	if err := m.CloseFiles(); err != nil {
		return ingestResult{}, fmt.Errorf("close: %w", err)
	}
	start = time.Now()
	if m, err = intervals.OpenAt(dir, intervals.DurableOptions{}); err != nil {
		return ingestResult{}, fmt.Errorf("reopen after unclean close: %w", err)
	}
	out.add("intervals.recover_s", "s", time.Since(start).Seconds(), len(final))
	checkRecovered(p, out, final, m.Len(), len(gen.live), func(q geom.Interval, emit func(geom.Interval) bool) {
		m.Intersect(q, emit)
	})

	probes := p.size(20000, 500)
	walUs, err := walAppendCost(filepath.Join(dir, "probe.wal"), probes)
	if err != nil {
		return ingestResult{}, err
	}
	out.add("disk.wal_append_us", "us", walUs, probes)
	return ingestResult{
		pagesPerRead: ratio(float64(hits+misses-hits0-misses0), float64(len(rd))),
		overhead:     ratio(float64(percentile(rd, 50)), float64(percentile(untraced, 50))) - 1,
	}, nil
}

// walAppendCost is the mean cost of one 25-byte WAL record (the size of a
// logged insert) on a log of its own.
func walAppendCost(path string, n int) (float64, error) {
	w, err := disk.OpenWAL(path, disk.FsyncCheckpoint)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	if err := w.Reset(1); err != nil {
		return 0, err
	}
	rec := make([]byte, 25)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := w.Append(rec); err != nil {
			return 0, err
		}
	}
	return usOf(float64(time.Since(start)) / float64(n)), nil
}

// --- serve section: HTTP round trip -> handler -> shard call ---

func traceServe(p params, t *tracer, out *outcome, own bool) (overhead float64, err error) {
	n := sectionSize(p, own, 200000, 1000)
	requests := sectionSize(p, own, 6000, 200) // untraced, then as many traced
	ivs, span := genIntervals(p.seed, n)
	backend := loadShards(ivs, span)
	s, err := serve(backend)
	if err != nil {
		return 0, err
	}
	defer s.stop()
	clients, _ := newHTTPClients(p.seed, ivs, span)
	each := func(fn func(c *httpClient)) {
		drive(clients, requests/httpClients, fn)
		tally(p, out, clients)
	}
	each(func(c *httpClient) { c.step(s, nil) })
	var untraced []int64
	for _, c := range clients {
		untraced = append(untraced, c.lat...)
	}
	sortInt64s(untraced)

	first := len(t.spans)
	var bodyBytes, reads atomic.Int64
	handler := s.srv.Handler()
	each(func(c *httpClient) {
		o := c.gen.next()
		req := t.req()
		c.attempted++
		// Writes cannot be replayed: pairs of them alternate between the
		// socket and a direct call on the served backend.
		if o.kind != opRead && c.gen.writes/2%2 == 0 {
			t.call("shard.write_call", "", req, func() {
				if o.kind == opInsert {
					backend.Insert(o.iv)
				} else if !backend.Delete(o.iv.ID) {
					c.failf("Delete(%d) of a live interval reported absent", o.iv.ID)
				}
			})
			return
		}
		// Write round trips get a name of their own, so that the spans called
		// server.roundtrip are exactly the reads the lower rungs replay.
		name := "server.roundtrip"
		if o.kind != opRead {
			name = "server.roundtrip_write"
		}
		var status int
		var rerr error
		t.call(name, "", req, func() { status, c.buf, rerr = s.do(o, c.buf) })
		if rerr != nil || status != http.StatusOK {
			c.failf("status %d: %v", status, rerr)
		}
		if o.kind != opRead {
			return
		}
		bodyBytes.Add(int64(len(c.buf)))
		reads.Add(1)
		_, url := s.request(o)
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, url, nil)
		t.call("server.handler", "server.roundtrip", req, func() { handler.ServeHTTP(rec, hreq) })
		if rec.Code != http.StatusOK {
			c.failf("handler replay: status %d", rec.Code)
		}
		t.call("shard.read_call", "server.handler", req, func() {
			backend.Intersect(o.iv, func(geom.Interval) bool { return true })
		})
	})
	spans := t.since(first)
	trips := durations(spans, "server.roundtrip")
	self := selfTimes(spans)
	exp, err := scrape(handler)
	if err != nil {
		return 0, err
	}
	admitted := float64(s.srv.RequestCount())
	nreads := int(reads.Load())
	out.add("server.roundtrip_p50_us", "us", p50us(trips), nreads)
	out.add("server.handler_p50_us", "us", p50us(durations(spans, "server.handler")), nreads)
	out.add("server.net_self_us", "us", p50us(self["server.roundtrip"]), nreads)
	out.add("server.handler_self_us", "us", p50us(self["server.handler"]), nreads)
	out.add("server.batch_wait_mean_us", "us",
		ratio(exp["ccidx_batch_wait_seconds_sum"], exp["ccidx_batch_wait_seconds_count"])*1e6,
		int(exp["ccidx_batch_wait_seconds_count"]))
	out.add("server.batch_mean", "count", s.srv.BatchMean(), int(s.srv.BatchCount()))
	out.add("server.server_side_p50_us", "us", s.srv.LatencyQuantile(0.5)*1e6, int(admitted))
	out.add("server.resp_bytes_per_read", "bytes", ratio(float64(bodyBytes.Load()), float64(nreads)), nreads)
	out.add("server.shed_frac", "ratio", ratio(float64(s.srv.ShedCount()), admitted+float64(s.srv.ShedCount())), int(admitted))
	out.add("server.timeout_frac", "ratio", ratio(exp["ccidx_timeouts_total"], admitted), int(admitted))
	out.add("shard.read_call_p50_us", "us", p50us(durations(spans, "shard.read_call")), nreads)
	wc := durations(spans, "shard.write_call")
	out.add("shard.write_call_mean_us", "us", usOf(mean(wc)), len(wc))
	return ratio(float64(percentile(trips, 50)), float64(percentile(untraced, 50))) - 1, nil
}

// scrape reads the server's /metrics exposition into name -> value
// (unlabelled samples only, which is all the batch-wait sum and count are).
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, sc.Err()
}

// --- class section: class store query and insert -> 3-sided tree ---

func traceClass(p params, t *tracer, out *outcome, own bool) (overhead float64, err error) {
	n := sectionSize(p, own, classObjects, 500)
	reads := sectionSize(p, own, 30000, 200)
	d := genClassData(p.seed, n)
	start := time.Now()
	cs := d.load()
	loadS := time.Since(start).Seconds()
	out.add("classindex.insert_mean_us", "us", loadS/float64(n)*1e6, n)
	out.add("classindex.pages_per_insert", "pages", float64(cs.Stats().IOs())/float64(n), n)

	rng := rand.New(rand.NewSource(p.seed + 1))
	results := 0
	query := func(q classQuery) {
		cs.Query(d.names[q.class], q.a1, q.a2, func(int64, uint64) bool { results++; return true })
	}
	for i := 0; i < reads; i++ {
		query(d.query(rng))
	}
	untraced := timed(reads, func(int) { query(d.query(rng)) })
	results = 0
	first := len(t.spans)
	for i := 0; i < reads; i++ {
		q := d.query(rng)
		t.call("classindex.query", "", t.req(), func() { query(q) })
	}
	traced := durations(t.since(first), "classindex.query")
	perRead := float64(results) / float64(reads)
	out.add("classindex.results_per_read", "count", perRead, reads)

	// The 3-sided tree driven directly: as many points, queries of the same
	// x-width (1% of the span) with y thresholds drawn so the mean result
	// size matches the class queries'.
	pts := workload.UniformPoints(p.seed, n, d.span)
	tree := threeside.New(threeside.Config{B: blockB}, pts)
	frac := perRead / (float64(n) / 100) // share of an x-slab a query should return
	if frac > 0.5 {
		frac = 0.5
	}
	yBand := int64(2*frac*float64(d.span)) + 1
	first = len(t.spans)
	pages0 := tree.Pager().Stats().Reads
	for i := 0; i < reads; i++ {
		x := rng.Int63n(d.span)
		q := geom.ThreeSidedQuery{X1: x, X2: x + d.span/100, Y: d.span - rng.Int63n(yBand)}
		t.call("threeside.query", "", t.req(), func() { tree.Query(q, func(geom.Point) bool { return true }) })
	}
	out.add("threeside.query_p50_us", "us", p50us(durations(t.since(first), "threeside.query")), reads)
	out.add("threeside.pages_per_query", "pages", float64(tree.Pager().Stats().Reads-pages0)/float64(reads), reads)
	inserts := n / 10
	ins := timed(inserts, func(i int) {
		tree.Insert(geom.Point{X: rng.Int63n(d.span), Y: rng.Int63n(d.span), ID: uint64(n + i)})
	})
	out.add("threeside.insert_mean_us", "us", usOf(mean(ins)), inserts)
	out.attempted += int64(n + 4*reads + inserts)
	return ratio(float64(percentile(traced, 50)), float64(percentile(untraced, 50))) - 1, nil
}
