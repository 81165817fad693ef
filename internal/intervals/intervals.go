// Package intervals implements external dynamic interval management, the
// problem to which indexing constraints reduces (Section 2.1, Proposition
// 2.2, Fig 3).
//
// A set of intervals supports (1) intersection queries — report every input
// interval intersecting a query interval — (2) insertion, and (3) deletion
// by interval id. The paper's metablock tree is semi-dynamic (deletion is
// its closing open problem); Delete therefore combines the B+-tree's real
// deletes on the endpoint side with weak (tombstone) deletes and global
// rebuilding on the metablock side — see core/delete.go.
//
// Following the proof of Proposition 2.2, the intervals intersecting
// [x1,x2] split into:
//
//	types 1,2: left endpoint inside (x1, x2]  -> B+-tree on left endpoints,
//	types 3,4: interval contains x1 (stabbing) -> diagonal corner query at
//	           (x1,x1) on the endpoint points (lo,hi), answered by the
//	           metablock tree.
//
// No interval is reported twice by this split.
//
// Bounds: space O(n/B), query O(log_B n + t/B), amortized insert
// O(log_B n + (log_B n)^2/B).
package intervals

import (
	"fmt"
	"slices"
	"strconv"

	"ccidx/internal/bptree"
	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// Config carries the block capacity for both sub-structures.
type Config struct {
	B int
	// DisableTS / DisableCorner forward to the metablock tree (ablations).
	DisableTS     bool
	DisableCorner bool
	// Ingest, when non-nil, selects the log-structured mode: mutations land
	// in an in-memory memtable and background compaction maintains a
	// logarithmic set of immutable static-tree runs. See lsm.go.
	Ingest *IngestConfig
}

// Manager answers interval intersection and stabbing queries.
//
// Concurrency: mutations (New, Insert, Delete) require external
// serialization; queries (Stab, Intersect) may run concurrently with each
// other. The shard serving layer enforces this with a per-shard RWMutex.
//
// Interval ids must be unique (inserting a live id panics — overwriting
// would orphan the previous copy forever): the manager keeps an in-memory
// id directory (zero block I/O, like every other directory in this
// repository) mapping each id to its endpoints, which is what lets Delete
// locate the B+-tree entry and the metablock point.
type Manager struct {
	endpoints *bptree.Tree // key = Lo, rid = ID, val = Hi
	stabber   *core.Tree   // points (Lo, Hi)
	pools     []*disk.Pool // attached buffer pools (nil without AttachPool)
	dir       map[uint64]geom.Interval
	n         int

	// Durable state (nil/empty for the in-memory construction): the
	// file-backed devices under the two trees, the write-ahead log of
	// acknowledged mutations since the last checkpoint, and the directory
	// they live in. See durable.go.
	files   []*disk.FileDevice
	wal     *disk.WAL
	dirPath string
	cfg     Config

	// lsm, when non-nil, is the log-structured mode (Config.Ingest): the
	// two trees above are unused and the data lives in memtables plus a
	// set of immutable runs, each itself a static tree-mode Manager. See
	// lsm.go. lsmOpt carries the durable options runs are built with.
	lsm    *lsmState
	lsmOpt DurableOptions
}

// New creates a manager over the given intervals (the slice is copied).
func New(cfg Config, ivs []geom.Interval) *Manager {
	if cfg.Ingest != nil {
		return newLSM(cfg, ivs)
	}
	return newMem(cfg, ivs, bptree.FillSlack)
}

// newMem builds a manager whose trees live on fresh in-memory pagers.
func newMem(cfg Config, ivs []geom.Interval, fill bptree.Fill) *Manager {
	return newOn(cfg,
		disk.NewPager(bptree.PageSize(cfg.B)),
		disk.NewPager(core.Config{B: cfg.B}.PageSize()),
		ivs, fill)
}

// newOn builds a manager whose trees live on the two given stores. Both
// are built statically: the metablock tree by core.NewOn, the endpoint
// tree by sorting the entries and bulk-loading them with page-fill policy
// fill — bptree.FillSlack for a tree that takes inserts, bptree.FillFull
// for an immutable ingest run.
func newOn(cfg Config, epStore, stStore disk.Store, ivs []geom.Interval, fill bptree.Fill) *Manager {
	m := &Manager{
		dir: make(map[uint64]geom.Interval, len(ivs)),
		n:   len(ivs),
		cfg: cfg,
	}
	pts := make([]geom.Point, len(ivs))
	eps := make([]bptree.Entry, len(ivs))
	for i, iv := range ivs {
		if !iv.Valid() {
			panic("intervals: invalid interval " + iv.String())
		}
		m.addDir(iv)
		pts[i] = iv.ToPoint()
		eps[i] = bptree.Entry{Key: iv.Lo, RID: iv.ID, Val: uint64(iv.Hi)}
	}
	slices.SortFunc(eps, bptree.Compare)
	m.endpoints = bptree.BulkLoad(epStore, cfg.B, eps, fill)
	m.stabber = core.NewOn(core.Config{
		B: cfg.B, DisableTS: cfg.DisableTS, DisableCorner: cfg.DisableCorner,
	}, stStore, pts)
	return m
}

// addDir registers an interval in the id directory, panicking on a
// duplicate id: silently overwriting would orphan the previous copy's
// endpoint entry and stabber point forever (unreachable by Delete, still
// reported by queries), so the misuse fails loudly at the call instead.
func (m *Manager) addDir(iv geom.Interval) {
	if _, dup := m.dir[iv.ID]; dup {
		panic("intervals: duplicate interval id " + strconv.FormatUint(iv.ID, 10))
	}
	m.dir[iv.ID] = iv
}

// Len returns the number of intervals stored.
func (m *Manager) Len() int { return m.n }

// Each enumerates the live intervals (directory order, i.e. unspecified);
// returning false stops the enumeration. No block I/O: the id directory is
// in memory.
func (m *Manager) Each(fn func(geom.Interval) bool) {
	for _, iv := range m.dir {
		if !fn(iv) {
			return
		}
	}
}

// AttachPool layers a concurrent CLOCK buffer pool of frames pages (split
// between the two sub-structures, nShards lock shards each) over the
// manager's devices: reads that hit a memory-resident frame stop costing
// device I/Os, writes become write-back. Stats() keeps reporting the
// transfers that actually reach the devices. The serving layer calls this
// once per shard before sharing the manager between goroutines.
func (m *Manager) AttachPool(frames, nShards int) {
	if frames < 2 {
		frames = 2
	}
	if m.lsm != nil {
		m.lsmAttachPool(frames, nShards)
		return
	}
	ep := disk.NewPool(m.endpoints.Pager(), frames/2, nShards)
	sp := disk.NewPool(m.stabber.Pager(), frames-frames/2, nShards)
	m.endpoints.SetDevice(ep)
	m.stabber.SetDevice(sp)
	m.pools = []*disk.Pool{ep, sp}
}

// FlushPool writes every dirty pooled frame back to the devices (no-op
// without an attached pool).
func (m *Manager) FlushPool() {
	if err := m.flushPool(); err != nil {
		panic(err)
	}
}

// flushPool is FlushPool with an error return (the checkpoint path reports
// injected write faults instead of panicking).
func (m *Manager) flushPool() error {
	if m.lsm != nil {
		return m.lsmFlushPool()
	}
	for _, p := range m.pools {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// PoolStats returns the aggregate (hits, misses) of the attached pools;
// zeros without a pool.
func (m *Manager) PoolStats() (hits, misses int64) {
	if m.lsm != nil {
		return m.lsmPoolStats()
	}
	for _, p := range m.pools {
		hits += p.Hits()
		misses += p.Misses()
	}
	return hits, misses
}

// CtrlCacheStats returns the stabbing tree's decoded-control-cache counters
// (log-structured mode: summed over every run, runs merged away included).
func (m *Manager) CtrlCacheStats() core.CtrlCacheStats {
	if m.lsm != nil {
		return m.lsmCtrlCacheStats()
	}
	return m.stabber.CtrlCacheStats()
}

// CheckInvariants validates the stabbing tree's structural invariants,
// control-cache coherence included (log-structured mode: every run's tree).
// It reads every page, under the same contract as a query.
func (m *Manager) CheckInvariants() error {
	if m.lsm == nil {
		return m.stabber.CheckInvariants()
	}
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.runs {
		if err := r.m.CheckInvariants(); err != nil {
			return fmt.Errorf("run %q: %w", r.name, err)
		}
	}
	return nil
}

// Insert adds an interval; amortized O(log_B n + (log_B n)^2/B) I/Os. On a
// WAL-backed manager the mutation is logged (and, under FsyncAlways,
// synced) before it touches the trees, so an acknowledged insert survives a
// crash even before the next checkpoint.
func (m *Manager) Insert(iv geom.Interval) {
	if !iv.Valid() {
		panic("intervals: invalid interval " + iv.String())
	}
	if _, dup := m.dir[iv.ID]; dup {
		panic("intervals: duplicate interval id " + strconv.FormatUint(iv.ID, 10))
	}
	if m.wal != nil {
		m.LogInsert(iv)
		m.SyncWAL()
	}
	m.applyInsert(iv)
}

// ApplyInsert inserts WITHOUT logging to the WAL: the shard layer logs at
// enqueue time (its group-commit buffer is the WAL batching boundary) and
// applies through here at flush time; replay also lands here.
func (m *Manager) ApplyInsert(iv geom.Interval) {
	if !iv.Valid() {
		panic("intervals: invalid interval " + iv.String())
	}
	m.applyInsert(iv)
}

func (m *Manager) applyInsert(iv geom.Interval) {
	m.addDir(iv)
	if m.lsm != nil {
		m.lsmInsert(iv)
		m.n++
		return
	}
	m.endpoints.InsertEntry(bptree.Entry{Key: iv.Lo, RID: iv.ID, Val: uint64(iv.Hi)})
	m.stabber.Insert(iv.ToPoint())
	m.n++
}

// Delete removes the interval with the given id, returning whether it was
// present. The endpoint side is a real B+-tree delete (O(log_B n)); the
// stabbing side is a weak delete on the metablock tree — a tombstone plus
// an amortized share of its global rebuild — so the whole operation is
// amortized O(log_B n) I/Os without disturbing the query bounds. Logged
// like Insert on a WAL-backed manager; a delete of an absent id is not
// logged (it mutates nothing).
func (m *Manager) Delete(id uint64) bool {
	if _, ok := m.dir[id]; !ok {
		return false
	}
	if m.wal != nil {
		m.LogDelete(id)
		m.SyncWAL()
	}
	return m.applyDelete(id)
}

// ApplyDelete deletes WITHOUT logging to the WAL — the flush-time and
// replay-time twin of ApplyInsert.
func (m *Manager) ApplyDelete(id uint64) bool { return m.applyDelete(id) }

func (m *Manager) applyDelete(id uint64) bool {
	iv, ok := m.dir[id]
	if !ok {
		return false
	}
	if m.lsm != nil {
		m.lsmDelete(id)
		delete(m.dir, id)
		m.n--
		return true
	}
	if !m.endpoints.Delete(iv.Lo, id) {
		panic("intervals: id directory out of sync with endpoint tree")
	}
	if !m.stabber.Delete(iv.ToPoint()) {
		panic("intervals: id directory out of sync with metablock tree")
	}
	delete(m.dir, id)
	m.n--
	return true
}

// Rebuilds returns how many delete-triggered global rebuilds the stabbing
// structure has run; in log-structured mode, how many dead-fraction run
// compactions (the same α=1/2 trigger, applied per run).
func (m *Manager) Rebuilds() int {
	if m.lsm != nil {
		return int(m.lsm.compactions.Load())
	}
	return m.stabber.Rebuilds()
}

// EmitInterval receives reported intervals; returning false stops the
// enumeration early.
type EmitInterval func(geom.Interval) bool

// Stab reports every interval containing q, in O(log_B n + t/B) I/Os
// (a diagonal corner query, Proposition 2.2).
func (m *Manager) Stab(q int64, emit EmitInterval) {
	if m.lsm != nil {
		m.lsmStab(q, emit)
		return
	}
	m.stabber.DiagonalQuery(q, func(p geom.Point) bool {
		return emit(geom.PointToInterval(p))
	})
}

// Intersect reports every interval intersecting q, in O(log_B n + t/B)
// I/Os. Each intersecting interval is reported exactly once.
func (m *Manager) Intersect(q geom.Interval, emit EmitInterval) {
	if !q.Valid() {
		return
	}
	if m.lsm != nil {
		m.lsmIntersect(q, emit)
		return
	}
	stopped := false
	// Types 3 and 4: intervals containing the left query endpoint.
	m.Stab(q.Lo, func(iv geom.Interval) bool {
		if !emit(iv) {
			stopped = true
			return false
		}
		return true
	})
	if stopped || q.Lo == 1<<63-1 {
		return
	}
	// Types 1 and 2: left endpoint strictly inside (q.Lo, q.Hi].
	m.endpoints.Range(q.Lo+1, q.Hi, func(e bptree.Entry) bool {
		return emit(geom.Interval{Lo: e.Key, Hi: int64(e.Val), ID: e.RID})
	})
}

// Stats returns the combined I/O counters of both sub-structures — in
// log-structured mode, summed over every run, runs merged away included
// (cumulative, like any device counter).
func (m *Manager) Stats() disk.Stats {
	if m.lsm != nil {
		return m.lsmStats()
	}
	return m.endpoints.Pager().Stats().Add(m.stabber.Stats())
}

// ResetStats zeroes both counters.
func (m *Manager) ResetStats() {
	if m.lsm != nil {
		m.lsmResetStats()
		return
	}
	m.endpoints.Pager().ResetStats()
	m.stabber.ResetStats()
}

// SpaceBlocks returns the number of live pages across both sub-structures
// (log-structured mode: across every run).
func (m *Manager) SpaceBlocks() int64 {
	if m.lsm != nil {
		return m.lsmSpaceBlocks()
	}
	return m.endpoints.Pager().Allocated() + m.stabber.Pager().Allocated()
}

// Naive is the baseline manager: intervals packed B per page; every query
// scans all pages. It supports deletion trivially and serves as the
// correctness oracle in tests. Pages that churn empties are freed and pages
// with holes are refilled by later inserts, so SpaceBlocks() stays bounded
// by the live interval count no matter how long the workload runs.
type Naive struct {
	pager  *disk.Pager
	dev    disk.Device
	b      int
	pages  []disk.BlockID
	counts []int // per-page fill counts (in-memory directory, no I/O)
	holes  int   // number of pages with counts[i] < b
	n      int
	wbuf   []byte // page-encode scratch (mutate paths only)
}

const naiveRecSize = 24

// NewNaive creates an empty naive manager.
func NewNaive(b int) *Naive {
	nv := &Naive{pager: disk.NewPager(2 + b*naiveRecSize), b: b}
	nv.dev = nv.pager
	return nv
}

// Len returns the number of stored intervals.
func (nv *Naive) Len() int { return nv.n }

// Pager exposes the device for I/O accounting.
func (nv *Naive) Pager() *disk.Pager { return nv.pager }

// SpaceBlocks returns the number of live pages; with emptied pages freed
// and holes refilled it is bounded by the live interval count.
func (nv *Naive) SpaceBlocks() int64 { return nv.pager.Allocated() }

// scanPage streams one page's intervals to fn through a borrowed zero-copy
// view (one I/O, no allocation); false if fn stopped the scan.
func (nv *Naive) scanPage(id disk.BlockID, fn func(geom.Interval) bool) bool {
	view := disk.MustView(nv.dev, id)
	cnt := int(uint16(view[0]) | uint16(view[1])<<8)
	ok := true
	for i, off := 0, 2; i < cnt; i, off = i+1, off+naiveRecSize {
		iv := geom.Interval{
			Lo: int64(le64(view[off:])),
			Hi: int64(le64(view[off+8:])),
			ID: le64(view[off+16:]),
		}
		if !fn(iv) {
			ok = false
			break
		}
	}
	nv.dev.Release(id)
	return ok
}

func (nv *Naive) readPage(id disk.BlockID) []geom.Interval {
	var out []geom.Interval
	nv.scanPage(id, func(iv geom.Interval) bool {
		out = append(out, iv)
		return true
	})
	return out
}

func (nv *Naive) writePage(id disk.BlockID, ivs []geom.Interval) {
	if nv.wbuf == nil {
		nv.wbuf = make([]byte, nv.pager.PageSize())
	} else {
		clear(nv.wbuf)
	}
	buf := nv.wbuf
	buf[0] = byte(len(ivs))
	buf[1] = byte(len(ivs) >> 8)
	off := 2
	for _, iv := range ivs {
		putLE64(buf[off:], uint64(iv.Lo))
		putLE64(buf[off+8:], uint64(iv.Hi))
		putLE64(buf[off+16:], iv.ID)
		off += naiveRecSize
	}
	disk.MustWriteAt(nv.dev, id, buf)
}

// Insert adds an interval in O(1) I/Os, reusing the rightmost page with a
// free slot — which is the freshly allocated tail page in append-only
// workloads, and a deletion hole under churn (the old code only ever
// refilled the last page, so holes accumulated forever). Locating the hole
// scans the in-memory counts (CPU only, no I/O; entered only when holes
// exist): worst case O(#pages) comparisons, which the oracle's own cost
// profile dominates — every Delete already READS O(n/B) pages.
func (nv *Naive) Insert(iv geom.Interval) {
	if nv.holes > 0 {
		for i := len(nv.pages) - 1; i >= 0; i-- {
			if nv.counts[i] < nv.b {
				ivs := nv.readPage(nv.pages[i])
				nv.writePage(nv.pages[i], append(ivs, iv))
				if nv.counts[i]++; nv.counts[i] == nv.b {
					nv.holes--
				}
				nv.n++
				return
			}
		}
		panic("intervals: naive hole count out of sync")
	}
	id := nv.pager.Alloc()
	nv.writePage(id, []geom.Interval{iv})
	nv.pages = append(nv.pages, id)
	nv.counts = append(nv.counts, 1)
	if nv.b > 1 {
		nv.holes++
	}
	nv.n++
}

// Delete removes the interval with the given id (full scan, O(n/B) I/Os).
// A page whose last interval is removed is freed and dropped from the scan
// list, so neither SpaceBlocks() nor the O(n/B) query scans grow without
// bound under churn.
func (nv *Naive) Delete(id uint64) bool {
	for pi, pg := range nv.pages {
		ivs := nv.readPage(pg)
		for i, iv := range ivs {
			if iv.ID != id {
				continue
			}
			rest := append(ivs[:i:i], ivs[i+1:]...)
			hadHole := nv.counts[pi] < nv.b
			if len(rest) == 0 {
				disk.MustFreeAt(nv.dev, pg)
				nv.pages = append(nv.pages[:pi], nv.pages[pi+1:]...)
				nv.counts = append(nv.counts[:pi], nv.counts[pi+1:]...)
				if hadHole {
					nv.holes--
				}
			} else {
				nv.writePage(pg, rest)
				nv.counts[pi]--
				if !hadHole {
					nv.holes++
				}
			}
			nv.n--
			return true
		}
	}
	return false
}

// Stab reports every interval containing q in O(n/B) I/Os (zero-alloc:
// pages are streamed through borrowed views).
func (nv *Naive) Stab(q int64, emit EmitInterval) {
	fn := func(iv geom.Interval) bool {
		if iv.Contains(q) {
			return emit(iv)
		}
		return true
	}
	for _, pg := range nv.pages {
		if !nv.scanPage(pg, fn) {
			return
		}
	}
}

// Intersect reports every interval intersecting q in O(n/B) I/Os.
func (nv *Naive) Intersect(q geom.Interval, emit EmitInterval) {
	fn := func(iv geom.Interval) bool {
		if iv.Intersects(q) {
			return emit(iv)
		}
		return true
	}
	for _, pg := range nv.pages {
		if !nv.scanPage(pg, fn) {
			return
		}
	}
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
