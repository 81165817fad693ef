package intervals

// Log-structured ingest: a Bentley-Saxe / LSM decomposition of the interval
// manager. The paper's structures are semi-static — global rebuild at
// α=1/2 (core/delete.go) is exactly the Bentley-Saxe trigger — and this
// file generalizes that into a write-optimized mode (Config.Ingest):
//
//   - an in-memory MEMTABLE absorbs Insert/Delete at memory speed; the
//     mutation is still WAL-logged and acknowledged at the existing sync
//     boundary, so durability is unchanged from the foreground path;
//   - when the memtable reaches MemtableSize entries it is frozen and a
//     background worker flushes it into an immutable on-disk RUN — a
//     static tree-mode Manager built via the bulk construction path and
//     committed through its devices' checkpoint protocol at build time;
//   - the worker keeps the run set logarithmic (merge the two smallest
//     runs while more than MaxRuns exist) and rewrites any run whose dead
//     fraction reaches 1/2 — the paper's rebuild threshold, applied per
//     run;
//   - queries fan in across the memtables and every run, suppressing each
//     part's dead ids; live ids are globally unique across parts, so the
//     exactly-once reporting guarantee is preserved.
//
// Deletes of memtable-resident ids are in-memory removals; deletes of
// run-resident ids mark the id dead in that run's in-memory dead set
// (query-time suppression — runs are never mutated, only rewritten). Dead
// sets are persisted in the checkpoint's runstate file and re-derived by
// WAL replay after a crash.
//
// Concurrency: foreground operations (queries AND mutations — mutations
// are externally serialized, queries may run concurrently with each other,
// exactly the Manager contract) hold lsm.mu.RLock; the worker mutates the
// part lists, reads dead sets, and retires replaced runs only under
// lsm.mu.Lock, so a query can never observe a half-swapped run list or
// touch a closed device. mergeMu serializes worker work items and is held
// by the checkpoint protocol from prepare through commit/rollback, so a
// concurrent merge can never invalidate a staged run list or delete a
// manifest-referenced run directory.
//
// Checkpoint protocol (durable mode): PrepareCheckpoint drains every
// memtable into runs (the WAL is truncated at commit, so the checkpoint
// image must hold everything), then stages the run list + dead sets as
// runstate-<seq>.json; the caller's manifest rename commits it; commit
// truncates the WAL and garbage-collects replaced run directories (which
// until that point are still referenced by the previous checkpoint's
// runstate). Open reads the committed runstate, reopens every run, removes
// unreferenced run directories (half-built runs from a crash), and replays
// the WAL tail into a fresh memtable.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ccidx/internal/bptree"
	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// IngestConfig enables and tunes log-structured ingest on a Manager.
type IngestConfig struct {
	// MemtableSize is the entry count at which the active memtable is
	// frozen and queued for a flush (default 4096).
	MemtableSize int `json:"memtable_size"`
	// MaxRuns is the target run-set size: while more runs exist, the two
	// smallest are merged (default 8, minimum 1). Larger values trade read
	// fan-in for less merge write amplification.
	MaxRuns int `json:"max_runs"`
	// SyncCompaction runs flushes, merges and compactions inline on the
	// mutating goroutine instead of a background worker: deterministic,
	// used by experiments and crash schedules.
	SyncCompaction bool `json:"sync_compaction,omitempty"`
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.MemtableSize < 1 {
		c.MemtableSize = 4096
	}
	if c.MaxRuns < 1 {
		c.MaxRuns = 8
	}
	return c
}

// lsmMaxFrozen is the frozen-memtable backlog at which a mutating call
// absorbs the compaction work inline (backpressure) instead of queueing a
// third memtable behind a slow worker.
const lsmMaxFrozen = 2

// lsmRunsDir is the subdirectory of a durable manager's directory holding
// one subdirectory per run.
const lsmRunsDir = "runs"

// memPart is one memtable: the active one absorbs inserts directly; once
// frozen its ivs map is immutable and deletes go to the dead set.
type memPart struct {
	ivs  map[uint64]geom.Interval
	dead map[uint64]struct{}
}

func newMemPart() *memPart {
	return &memPart{ivs: make(map[uint64]geom.Interval), dead: make(map[uint64]struct{})}
}

// lsmRun is one immutable on-disk run: a static tree-mode Manager plus the
// in-memory set of its ids deleted since it was built. A foreground Delete
// writes dead holding only l.mu.RLock, so the worker may touch the map only
// under l.mu.Lock; the sizes it needs in between (merge picks, the
// compaction trigger) come from deadN.
type lsmRun struct {
	m     *Manager
	dead  map[uint64]struct{}
	deadN atomic.Int64 // len(dead)
	name  string       // run subdirectory name (empty in memory)
}

// markDead records id as deleted from the run. Callers hold l.mu (a
// foreground Delete: RLock; the worker: Lock).
func (r *lsmRun) markDead(id uint64) {
	r.dead[id] = struct{}{}
	r.deadN.Add(1)
}

func (r *lsmRun) live() int { return r.m.Len() - int(r.deadN.Load()) }

// compactDue reports whether dead ids make up half the run: the paper's
// rebuild threshold.
func (r *lsmRun) compactDue() bool {
	return r.m.Len() > 0 && int(r.deadN.Load())*2 >= r.m.Len()
}

// lsmState is the whole log-structured mode, hung off Manager.lsm.
type lsmState struct {
	cfg IngestConfig

	// mu orders foreground operations (RLock) against worker swaps (Lock);
	// see the file comment for the full discipline.
	mu     sync.RWMutex
	active *memPart
	frozen []*memPart // oldest first
	runs   []*lsmRun

	// mergeMu serializes worker work items and excludes the worker across
	// a checkpoint's prepare→commit/rollback span.
	mergeMu  sync.Mutex
	busy     atomic.Bool
	worker   sync.WaitGroup        // the background goroutine lsmKick started
	closed   atomic.Bool           // CloseFiles ran: no work item may start
	workErr  atomic.Pointer[error] // background build failure, surfaced at the next foreground call
	inline   bool                  // WAL replay in progress: drain inline for determinism
	prepared uint64                // staged (uncommitted) checkpoint generation
	cpHeld   bool                  // mergeMu held by an in-flight checkpoint

	durable bool
	seq     uint64 // last committed checkpoint generation
	nextRun uint64 // run directory naming counter
	garbage []string

	// retired accounting: counters of runs merged away, so Stats and
	// FileWrites stay cumulative across the manager's lifetime.
	retiredMu         sync.Mutex
	retiredStats      disk.Stats
	retiredFileWrites int64
	retiredHits       int64
	retiredMisses     int64
	retiredCtrl       core.CtrlCacheStats // hits and misses; a closed run holds no entries

	// pool configuration replicated onto every run (AttachPool).
	poolFrames, poolShards int

	// budget is the current fault-injection budget, armed on every future
	// run's devices at build time (SetWriteBudget updates it).
	budget *disk.WriteBudget

	flushes     atomic.Int64
	merges      atomic.Int64
	compactions atomic.Int64
	stalls      atomic.Int64
	stateWrites atomic.Int64 // runstate-<seq>.json stages (FileWrites)
}

// IngestStats is a point-in-time snapshot of the log-structured machinery,
// surfaced through the serving metrics.
type IngestStats struct {
	Runs        int   // immutable on-disk runs
	Frozen      int   // frozen memtables awaiting flush
	MemtableLen int   // entries in the active memtable
	Flushes     int64 // memtable→run flushes
	Merges      int64 // run merges
	Compactions int64 // dead-fraction run rewrites
	Stalls      int64 // mutations that absorbed compaction work inline
}

// IngestStats returns the log-structured counters (zero when ingest mode
// is off).
func (m *Manager) IngestStats() IngestStats {
	l := m.lsm
	if l == nil {
		return IngestStats{}
	}
	l.mu.RLock()
	st := IngestStats{
		Runs:        len(l.runs),
		Frozen:      len(l.frozen),
		MemtableLen: len(l.active.ivs),
	}
	l.mu.RUnlock()
	st.Flushes = l.flushes.Load()
	st.Merges = l.merges.Load()
	st.Compactions = l.compactions.Load()
	st.Stalls = l.stalls.Load()
	return st
}

// initLSM installs log-structured state on a freshly constructed manager.
func (m *Manager) initLSM(opt DurableOptions, durable bool) {
	m.lsm = &lsmState{
		cfg:     m.cfg.Ingest.withDefaults(),
		active:  newMemPart(),
		durable: durable,
		budget:  opt.Budget,
	}
	m.lsmOpt = DurableOptions{Fsync: opt.Fsync, DisableWAL: true}
}

// runConfig is the configuration of every run's inner manager: the parent's
// tree parameters with ingest cleared (runs are static trees, not nested
// LSMs).
func (m *Manager) runConfig() Config {
	cfg := m.cfg
	cfg.Ingest = nil
	return cfg
}

func (m *Manager) runOpt() DurableOptions {
	l := m.lsm
	opt := m.lsmOpt
	l.mu.RLock()
	opt.Budget = l.budget
	l.mu.RUnlock()
	return opt
}

// lsmErrCheck surfaces a background build failure on the foreground path
// (error-valued panic, the Must* convention).
func (l *lsmState) errCheck() {
	if p := l.workErr.Load(); p != nil {
		panic(fmt.Errorf("intervals: background compaction failed: %w", *p))
	}
}

func (l *lsmState) takeErr() error {
	if p := l.workErr.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// lsmInsert lands an insert in the active memtable, rotating it when full.
// The caller (applyInsert) already registered the id in the directory.
func (m *Manager) lsmInsert(iv geom.Interval) {
	l := m.lsm
	l.errCheck()
	l.mu.RLock()
	l.active.ivs[iv.ID] = iv
	full := len(l.active.ivs) >= l.cfg.MemtableSize
	l.mu.RUnlock()
	if full {
		m.lsmRotate()
	}
}

// lsmRotate freezes the active memtable and schedules (or, under
// SyncCompaction / backpressure, performs) the flush-and-merge work.
func (m *Manager) lsmRotate() {
	l := m.lsm
	l.mu.Lock()
	if len(l.active.ivs) >= l.cfg.MemtableSize {
		l.frozen = append(l.frozen, l.active)
		l.active = newMemPart()
	}
	backlog := len(l.frozen)
	l.mu.Unlock()
	if l.cfg.SyncCompaction || l.inline {
		m.lsmDrain()
		return
	}
	if backlog > lsmMaxFrozen {
		// Backpressure: the worker is behind; absorb the work on the
		// mutating goroutine so the frozen backlog stays bounded.
		l.stalls.Add(1)
		m.lsmDrain()
		return
	}
	m.lsmKick()
}

// lsmKick starts the background worker unless one is already running. The
// clear-then-recheck loop closes the lost-wakeup race: a kick that lands
// while the worker is finishing its last item is observed by the recheck.
func (m *Manager) lsmKick() {
	l := m.lsm
	if !l.busy.CompareAndSwap(false, true) {
		return
	}
	l.worker.Add(1)
	go func() {
		defer l.worker.Done()
		for {
			m.lsmDrain()
			l.busy.Store(false)
			if !m.lsmHasWork() {
				return
			}
			if !l.busy.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

func (m *Manager) lsmHasWork() bool {
	l := m.lsm
	if l.workErr.Load() != nil || l.closed.Load() {
		return false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.frozen) > 0 || len(l.runs) > l.cfg.MaxRuns || l.compactable() != -1
}

// compactable returns the index of a run whose dead fraction reached 1/2
// (the paper's rebuild threshold), or -1. Caller holds l.mu.
func (l *lsmState) compactable() int {
	for i, r := range l.runs {
		if r.compactDue() {
			return i
		}
	}
	return -1
}

// lsmDrain performs flush/merge/compact work items until none remain. On
// the background worker a build failure is parked in workErr (surfaced at
// the next foreground call); inline callers panic with the error, matching
// every other foreground write path.
func (m *Manager) lsmDrain() {
	l := m.lsm
	for {
		did, err := m.lsmStep()
		if err != nil {
			if l.cfg.SyncCompaction || l.inline {
				panic(err)
			}
			l.workErr.Store(&err)
			return
		}
		if !did {
			return
		}
	}
}

// lsmStep performs one work item under mergeMu: flush the oldest frozen
// memtable, else merge the two smallest runs while over MaxRuns, else
// compact a run past the dead-fraction threshold.
func (m *Manager) lsmStep() (bool, error) {
	l := m.lsm
	l.mergeMu.Lock()
	defer l.mergeMu.Unlock()
	if l.closed.Load() {
		return false, nil
	}
	l.mu.RLock()
	frozen := len(l.frozen) > 0
	over := len(l.runs) > l.cfg.MaxRuns
	compact := l.compactable()
	l.mu.RUnlock()
	switch {
	case frozen:
		return true, m.lsmFlushOldest()
	case over:
		return true, m.lsmMergeSmallest()
	case compact != -1:
		return true, m.lsmCompact(compact)
	}
	return false, nil
}

// snapshotDead copies a dead set under l.mu.Lock (the worker must not read
// a dead map concurrently with a foreground Delete writing it).
func (l *lsmState) snapshotDead(dead map[uint64]struct{}) map[uint64]struct{} {
	l.mu.Lock()
	snap := make(map[uint64]struct{}, len(dead))
	for id := range dead {
		snap[id] = struct{}{}
	}
	l.mu.Unlock()
	return snap
}

// lsmFlushOldest turns the oldest frozen memtable into a run. The
// expensive build runs without holding l.mu (the part's ivs map is
// immutable once frozen); only the dead-set snapshot and the final swap
// take the lock. Deletes that land in the part during the build are
// carried into the new run's dead set at swap time.
func (m *Manager) lsmFlushOldest() error {
	l := m.lsm
	l.mu.RLock()
	part := l.frozen[0]
	l.mu.RUnlock()
	snap := l.snapshotDead(part.dead)
	ivs := make([]geom.Interval, 0, len(part.ivs))
	for id, iv := range part.ivs {
		if _, dead := snap[id]; !dead {
			ivs = append(ivs, iv)
		}
	}
	var run *lsmRun
	if len(ivs) > 0 {
		var err error
		if run, err = m.buildRun(ivs); err != nil {
			return err
		}
	}
	l.mu.Lock()
	if run != nil {
		for id := range part.dead {
			if _, old := snap[id]; !old {
				run.markDead(id)
			}
		}
		l.runs = append(l.runs, run)
	}
	l.frozen = l.frozen[1:]
	l.mu.Unlock()
	l.flushes.Add(1)
	return nil
}

// lsmReplace rebuilds the live contents of srcs (a subset of l.runs) into
// one new run and swaps it in. Shared by merge and compaction.
func (m *Manager) lsmReplace(srcs []*lsmRun) error {
	l := m.lsm
	snaps := make([]map[uint64]struct{}, len(srcs))
	total := 0
	for i, r := range srcs {
		snaps[i] = l.snapshotDead(r.dead)
		total += r.m.Len()
	}
	ivs := make([]geom.Interval, 0, total)
	for i, r := range srcs {
		snap := snaps[i]
		// The run's in-memory id directory IS its contents: reading a
		// source run costs no I/O (the merge's I/O is writing the new run).
		r.m.Each(func(iv geom.Interval) bool {
			if _, dead := snap[iv.ID]; !dead {
				ivs = append(ivs, iv)
			}
			return true
		})
	}
	var run *lsmRun
	if len(ivs) > 0 {
		var err error
		if run, err = m.buildRun(ivs); err != nil {
			return err
		}
	}
	l.mu.Lock()
	if run != nil {
		for i, r := range srcs {
			for id := range r.dead {
				if _, old := snaps[i][id]; !old {
					run.markDead(id)
				}
			}
		}
	}
	keep := l.runs[:0]
	for _, r := range l.runs {
		replaced := false
		for _, s := range srcs {
			if r == s {
				replaced = true
				break
			}
		}
		if !replaced {
			keep = append(keep, r)
		}
	}
	l.runs = keep
	if run != nil {
		l.runs = append(l.runs, run)
	}
	l.retireLocked(srcs)
	l.mu.Unlock()
	return nil
}

// retireLocked accumulates the I/O counters of replaced runs, closes their
// devices (no foreground operation is in flight: caller holds l.mu.Lock)
// and queues their directories for deletion at the next checkpoint commit
// — the previous checkpoint's runstate still references them until then.
func (l *lsmState) retireLocked(srcs []*lsmRun) {
	l.retiredMu.Lock()
	for _, r := range srcs {
		l.retiredStats = l.retiredStats.Add(r.m.Stats())
		l.retiredFileWrites += r.m.FileWrites()
		h, ms := r.m.PoolStats()
		l.retiredHits += h
		l.retiredMisses += ms
		cs := r.m.CtrlCacheStats()
		cs.Entries = 0
		l.retiredCtrl = l.retiredCtrl.Add(cs)
	}
	l.retiredMu.Unlock()
	for _, r := range srcs {
		r.m.CloseFiles()
		if r.name != "" {
			l.garbage = append(l.garbage, r.name)
		}
	}
}

// lsmMergeSmallest merges the two runs with the fewest live entries.
func (m *Manager) lsmMergeSmallest() error {
	l := m.lsm
	l.mu.RLock()
	idx := make([]int, len(l.runs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return l.runs[idx[a]].live() < l.runs[idx[b]].live() })
	srcs := []*lsmRun{l.runs[idx[0]], l.runs[idx[1]]}
	l.mu.RUnlock()
	if err := m.lsmReplace(srcs); err != nil {
		return err
	}
	l.merges.Add(1)
	return nil
}

// lsmCompact rewrites one run without its dead ids (the α=1/2 rebuild).
func (m *Manager) lsmCompact(i int) error {
	l := m.lsm
	l.mu.RLock()
	src := l.runs[i]
	l.mu.RUnlock()
	if err := m.lsmReplace([]*lsmRun{src}); err != nil {
		return err
	}
	l.compactions.Add(1)
	return nil
}

// buildRun constructs one immutable run over ivs: in memory a plain static
// manager; durable, a tree built in its own subdirectory and committed
// through the device checkpoint protocol at generation 1 (the run is
// static — its generation never changes; the PARENT's runstate says which
// runs exist). A failed build (an injected fault, ENOSPC — createManaged
// returns the tree build's write faults as errors) removes the half-built
// directory.
func (m *Manager) buildRun(ivs []geom.Interval) (*lsmRun, error) {
	l := m.lsm
	l.mu.RLock()
	frames, nShards := l.poolFrames, l.poolShards
	l.mu.RUnlock()
	if !l.durable {
		rm := newMem(m.runConfig(), ivs, bptree.FillFull)
		if frames != 0 {
			rm.AttachPool(frames, nShards)
		}
		return &lsmRun{m: rm, dead: make(map[uint64]struct{})}, nil
	}
	name := fmt.Sprintf("r%07d", l.nextRun)
	l.nextRun++
	dir := filepath.Join(m.dirPath, lsmRunsDir, name)
	rm, err := createManaged(dir, m.runConfig(), ivs, m.runOpt(), bptree.FillFull)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := rm.PrepareCheckpoint(1); err == nil {
		err = rm.CommitCheckpoint()
	} else {
		rm.RollbackCheckpoint()
	}
	if err != nil {
		rm.CloseFiles()
		os.RemoveAll(dir)
		return nil, err
	}
	if frames != 0 {
		rm.AttachPool(frames, nShards)
	}
	return &lsmRun{m: rm, dead: make(map[uint64]struct{}), name: name}, nil
}

// lsmDelete removes id from whichever part holds its live copy: an
// active-memtable removal is direct, anywhere else the id is marked dead
// in that part. The caller (applyDelete) verified id is live and updates
// the directory. Exactly one part holds a live copy (addDir enforces
// global uniqueness), so the first not-yet-dead hit is the right one.
func (m *Manager) lsmDelete(id uint64) {
	l := m.lsm
	l.errCheck()
	l.mu.RLock()
	if _, ok := l.active.ivs[id]; ok {
		delete(l.active.ivs, id)
		l.mu.RUnlock()
		return
	}
	for _, part := range l.frozen {
		if _, ok := part.ivs[id]; ok {
			if _, dead := part.dead[id]; !dead {
				part.dead[id] = struct{}{}
				l.mu.RUnlock()
				return
			}
		}
	}
	for _, r := range l.runs {
		if _, ok := r.m.dir[id]; ok {
			if _, dead := r.dead[id]; !dead {
				r.markDead(id)
				trigger := r.compactDue()
				l.mu.RUnlock()
				if trigger {
					if l.cfg.SyncCompaction || l.inline {
						m.lsmDrain()
					} else {
						m.lsmKick()
					}
				}
				return
			}
		}
	}
	l.mu.RUnlock()
	panic("intervals: id directory out of sync with log-structured parts")
}

// lsmStab is the fan-in Stab: the memtables are scanned in memory, every
// run answers through its own tree with dead-id suppression. Live ids are
// disjoint across parts, so each match is reported exactly once.
func (m *Manager) lsmStab(q int64, emit EmitInterval) {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.emitMemMatches(func(iv geom.Interval) bool { return iv.Contains(q) }, emit) {
		return
	}
	for _, r := range l.runs {
		stopped := false
		r.m.Stab(q, func(iv geom.Interval) bool {
			if _, dead := r.dead[iv.ID]; dead {
				return true
			}
			if !emit(iv) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// lsmIntersect is the fan-in Intersect.
func (m *Manager) lsmIntersect(q geom.Interval, emit EmitInterval) {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.emitMemMatches(func(iv geom.Interval) bool { return iv.Intersects(q) }, emit) {
		return
	}
	for _, r := range l.runs {
		stopped := false
		r.m.Intersect(q, func(iv geom.Interval) bool {
			if _, dead := r.dead[iv.ID]; dead {
				return true
			}
			if !emit(iv) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// emitMemMatches streams memtable entries matching pred to emit; false if
// emit stopped. Caller holds l.mu (read). The scan is pure memory — the
// memtable is the structure that makes writes cheap; reads pay a bounded
// O(MemtableSize) CPU scan and zero I/O for it.
func (l *lsmState) emitMemMatches(pred func(geom.Interval) bool, emit EmitInterval) bool {
	if !emitPart(l.active, pred, emit) {
		return false
	}
	for _, part := range l.frozen {
		if !emitPart(part, pred, emit) {
			return false
		}
	}
	return true
}

func emitPart(part *memPart, pred func(geom.Interval) bool, emit EmitInterval) bool {
	for id, iv := range part.ivs {
		if _, dead := part.dead[id]; dead {
			continue
		}
		if pred(iv) && !emit(iv) {
			return false
		}
	}
	return true
}

// lsmStabBatch fans a stab batch across every part: one batch pass per run
// (shared traversal preserved within each run) plus a sorted-probe
// memtable pass. Per-query early stop is honored across parts via the
// stopped flags.
func (m *Manager) lsmStabBatch(qs []int64, emit EmitBatch) {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	stopped := make([]bool, len(qs))
	gated := func(qi int, iv geom.Interval) bool {
		if stopped[qi] {
			return false
		}
		if !emit(qi, iv) {
			stopped[qi] = true
			return false
		}
		return true
	}
	// Sorted query index for the memtable pass: for each entry, binary
	// search the window of query points inside [Lo, Hi].
	order := sortedQueryIndex(qs)
	memHit := func(iv geom.Interval) bool {
		lo := sort.Search(len(order), func(i int) bool { return qs[order[i]] >= iv.Lo })
		for ; lo < len(order) && qs[order[lo]] <= iv.Hi; lo++ {
			gated(order[lo], iv)
		}
		return true
	}
	l.emitMemMatches(func(geom.Interval) bool { return true }, func(iv geom.Interval) bool {
		return memHit(iv)
	})
	for _, r := range l.runs {
		r.m.StabBatch(qs, func(qi int, iv geom.Interval) bool {
			if _, dead := r.dead[iv.ID]; dead {
				return !stopped[qi]
			}
			return gated(qi, iv)
		})
	}
}

// lsmIntersectBatch fans an intersect batch across every part.
func (m *Manager) lsmIntersectBatch(qs []geom.Interval, emit EmitBatch) {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	stopped := make([]bool, len(qs))
	gated := func(qi int, iv geom.Interval) bool {
		if stopped[qi] {
			return false
		}
		if !emit(qi, iv) {
			stopped[qi] = true
			return false
		}
		return true
	}
	// Memtable pass: queries sorted by Lo; an entry intersects the sorted
	// prefix with q.Lo <= iv.Hi, filtered by q.Hi >= iv.Lo.
	order := make([]int, 0, len(qs))
	for i, q := range qs {
		if q.Valid() {
			order = append(order, i)
		} else {
			stopped[i] = true
		}
	}
	sort.Slice(order, func(a, b int) bool { return qs[order[a]].Lo < qs[order[b]].Lo })
	memHit := func(iv geom.Interval) bool {
		for _, qi := range order {
			if qs[qi].Lo > iv.Hi {
				break
			}
			if qs[qi].Hi >= iv.Lo {
				gated(qi, iv)
			}
		}
		return true
	}
	l.emitMemMatches(func(geom.Interval) bool { return true }, func(iv geom.Interval) bool {
		return memHit(iv)
	})
	for _, r := range l.runs {
		r.m.IntersectBatch(qs, func(qi int, iv geom.Interval) bool {
			if _, dead := r.dead[iv.ID]; dead {
				return !stopped[qi]
			}
			return gated(qi, iv)
		})
	}
}

func sortedQueryIndex(qs []int64) []int {
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qs[order[a]] < qs[order[b]] })
	return order
}

// --- aggregate accounting over parts -----------------------------------

func (m *Manager) lsmStats() disk.Stats {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.retiredMu.Lock()
	st := l.retiredStats
	l.retiredMu.Unlock()
	for _, r := range l.runs {
		st = st.Add(r.m.Stats())
	}
	return st
}

func (m *Manager) lsmResetStats() {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.retiredMu.Lock()
	l.retiredStats = disk.Stats{}
	l.retiredCtrl = core.CtrlCacheStats{}
	l.retiredMu.Unlock()
	for _, r := range l.runs {
		r.m.ResetStats()
	}
}

func (m *Manager) lsmSpaceBlocks() int64 {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n int64
	for _, r := range l.runs {
		n += r.m.SpaceBlocks()
	}
	return n
}

func (m *Manager) lsmPoolStats() (hits, misses int64) {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.retiredMu.Lock()
	hits, misses = l.retiredHits, l.retiredMisses
	l.retiredMu.Unlock()
	for _, r := range l.runs {
		h, ms := r.m.PoolStats()
		hits += h
		misses += ms
	}
	return hits, misses
}

func (m *Manager) lsmCtrlCacheStats() core.CtrlCacheStats {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.retiredMu.Lock()
	cs := l.retiredCtrl
	l.retiredMu.Unlock()
	for _, r := range l.runs {
		cs = cs.Add(r.m.CtrlCacheStats())
	}
	return cs
}

func (m *Manager) lsmAttachPool(frames, nShards int) {
	l := m.lsm
	l.mu.Lock()
	defer l.mu.Unlock()
	l.poolFrames, l.poolShards = frames, nShards
	for _, r := range l.runs {
		r.m.AttachPool(frames, nShards)
	}
}

func (m *Manager) lsmFlushPool() error {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.runs {
		if err := r.m.flushPool(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) lsmFileWrites() int64 {
	l := m.lsm
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.retiredMu.Lock()
	n := l.retiredFileWrites
	l.retiredMu.Unlock()
	n += l.stateWrites.Load()
	for _, r := range l.runs {
		n += r.m.FileWrites()
	}
	if m.wal != nil {
		n += m.wal.FileWrites()
	}
	return n
}

func (m *Manager) lsmSetWriteBudget(b *disk.WriteBudget) {
	l := m.lsm
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget = b
	for _, r := range l.runs {
		r.m.SetWriteBudget(b)
	}
	if m.wal != nil {
		m.wal.SetWriteBudget(b)
	}
}

// lsmCloseFiles quiesces compaction before closing anything: no work item
// starts once closed is set, the one in flight is waited for on mergeMu (it
// swaps its run in, so no half-built run directory is left; the next open
// garbage-collects an uncommitted run), and the background goroutine has
// exited on return. A worker left building would write into run directories
// the next in-process Open removes and rebuilds under the same names.
func (m *Manager) lsmCloseFiles() error {
	l := m.lsm
	l.closed.Store(true)
	// A checkpoint between prepare and commit already holds mergeMu; closing
	// there models a crash, the staged runstate stays for the manifest to
	// decide.
	if !l.cpHeld {
		l.mergeMu.Lock()
	}
	l.cpHeld = false
	l.mergeMu.Unlock()
	l.worker.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, r := range l.runs {
		if err := r.m.CloseFiles(); err != nil && first == nil {
			first = err
		}
	}
	if m.wal != nil {
		if err := m.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- durable construction, checkpointing, recovery ----------------------

// runState is the checkpoint-committed description of the run set, staged
// as runstate-<seq>.json beside the device files and committed by the
// caller's manifest rename.
type runState struct {
	NextRun uint64         `json:"next_run"`
	Runs    []runStateItem `json:"runs"`
}

type runStateItem struct {
	Name string   `json:"name"`
	Dead []uint64 `json:"dead,omitempty"`
}

func runStatePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("runstate-%d.json", seq))
}

// createLSM is CreateManaged's log-structured branch: no top-level tree
// devices, just the WAL plus an initial run bulk-built from ivs (the
// static construction is optimal — no reason to trickle the initial set
// through the memtable).
func createLSM(dir string, cfg Config, ivs []geom.Interval, opt DurableOptions) (*Manager, error) {
	if err := os.MkdirAll(filepath.Join(dir, lsmRunsDir), 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dir:     make(map[uint64]geom.Interval, len(ivs)),
		cfg:     cfg,
		dirPath: dir,
	}
	m.initLSM(opt, true)
	if !opt.DisableWAL {
		wal, err := disk.OpenWAL(filepath.Join(dir, walFile), opt.Fsync)
		if err == nil {
			wal.SetWriteBudget(opt.Budget)
			err = wal.Reset(0)
		}
		if err != nil {
			if wal != nil {
				wal.Close()
			}
			return nil, err
		}
		m.wal = wal
	}
	if len(ivs) > 0 {
		for _, iv := range ivs {
			if !iv.Valid() {
				m.lsmCloseFiles()
				return nil, fmt.Errorf("intervals: invalid interval %s", iv.String())
			}
			m.addDir(iv)
		}
		run, err := m.buildRun(ivs)
		if err != nil {
			m.lsmCloseFiles()
			return nil, err
		}
		m.lsm.runs = append(m.lsm.runs, run)
		m.n = len(ivs)
	}
	return m, nil
}

// newLSM is New's log-structured branch (in-memory).
func newLSM(cfg Config, ivs []geom.Interval) *Manager {
	m := &Manager{dir: make(map[uint64]geom.Interval, len(ivs)), cfg: cfg}
	m.initLSM(DurableOptions{}, false)
	if len(ivs) > 0 {
		for _, iv := range ivs {
			if !iv.Valid() {
				panic("intervals: invalid interval " + iv.String())
			}
			m.addDir(iv)
		}
		run, err := m.buildRun(ivs)
		if err != nil {
			panic(err)
		}
		m.lsm.runs = append(m.lsm.runs, run)
		m.n = len(ivs)
	}
	return m
}

// openLSM is OpenManaged's log-structured branch: read the committed
// runstate, reopen every referenced run at its (always-1) generation,
// rebuild the global id directory, garbage-collect unreferenced run
// directories (half-built runs a crash left behind — removed BEFORE WAL
// replay, which may legitimately rebuild runs under the same names), and
// replay the WAL tail into a fresh memtable. Replay drains inline so a
// crash-the-recovery budget lands deterministically.
func openLSM(dir string, cfg Config, seq uint64, opt DurableOptions) (mgr *Manager, err error) {
	data, err := os.ReadFile(runStatePath(dir, seq))
	if err != nil {
		return nil, fmt.Errorf("intervals: %s has no runstate at seq %d: %w", dir, seq, err)
	}
	var st runState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("intervals: corrupt runstate in %s: %w", dir, err)
	}
	m := &Manager{dir: make(map[uint64]geom.Interval), cfg: cfg, dirPath: dir}
	m.initLSM(opt, true)
	l := m.lsm
	l.seq = seq
	l.nextRun = st.NextRun
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			m.lsmCloseFiles()
			mgr, err = nil, fmt.Errorf("intervals: opening %s: %w", dir, e)
		}
	}()
	referenced := make(map[string]bool, len(st.Runs))
	for _, item := range st.Runs {
		referenced[item.Name] = true
		rm, rerr := OpenManaged(filepath.Join(dir, lsmRunsDir, item.Name), m.runConfig(), 1, m.runOpt())
		if rerr != nil {
			m.lsmCloseFiles()
			return nil, fmt.Errorf("intervals: opening run %s: %w", item.Name, rerr)
		}
		run := &lsmRun{m: rm, dead: make(map[uint64]struct{}, len(item.Dead)), name: item.Name}
		for _, id := range item.Dead {
			run.markDead(id)
		}
		l.runs = append(l.runs, run)
		rm.Each(func(iv geom.Interval) bool {
			if _, dead := run.dead[iv.ID]; !dead {
				m.dir[iv.ID] = iv
			}
			return true
		})
	}
	m.n = len(m.dir)
	// GC run directories no committed state references.
	if entries, derr := os.ReadDir(filepath.Join(dir, lsmRunsDir)); derr == nil {
		for _, e := range entries {
			if !referenced[e.Name()] {
				os.RemoveAll(filepath.Join(dir, lsmRunsDir, e.Name()))
			}
		}
	}
	// Stale runstate files from crashed prepares.
	gcRunStates(dir, seq)
	if !opt.DisableWAL {
		wal, werr := disk.OpenWAL(filepath.Join(dir, walFile), opt.Fsync)
		if werr != nil {
			m.lsmCloseFiles()
			return nil, werr
		}
		wal.SetWriteBudget(opt.Budget)
		m.wal = wal
		l.inline = true
		_, werr = wal.Recover(seq, m.replayOp)
		l.inline = false
		if werr != nil {
			m.lsmCloseFiles()
			return nil, fmt.Errorf("intervals: replaying %s wal: %w", dir, werr)
		}
	}
	return m, nil
}

func gcRunStates(dir string, keep uint64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "runstate-*.json"))
	for _, p := range matches {
		if p != runStatePath(dir, keep) {
			os.Remove(p)
		}
	}
}

// lsmPrepare stages checkpoint generation seq: acquire mergeMu (held until
// commit or rollback so the worker cannot invalidate the staged state),
// drain every memtable into runs, and write runstate-<seq>.json. The WAL
// is NOT touched until commit.
func (m *Manager) lsmPrepare(seq uint64) error {
	l := m.lsm
	l.mergeMu.Lock()
	ok := false
	defer func() {
		if !ok {
			l.mergeMu.Unlock()
		}
	}()
	if err := l.takeErr(); err != nil {
		return fmt.Errorf("intervals: background compaction failed: %w", err)
	}
	// Drain: freeze a non-empty active memtable, then flush every frozen
	// one — the WAL truncates at commit, so runs must hold everything.
	l.mu.Lock()
	if len(l.active.ivs) > 0 {
		l.frozen = append(l.frozen, l.active)
		l.active = newMemPart()
	}
	l.mu.Unlock()
	for {
		l.mu.RLock()
		n := len(l.frozen)
		l.mu.RUnlock()
		if n == 0 {
			break
		}
		if err := m.lsmFlushOldest(); err != nil {
			return err
		}
	}
	st := runState{NextRun: l.nextRun}
	l.mu.RLock()
	for _, r := range l.runs {
		item := runStateItem{Name: r.name, Dead: make([]uint64, 0, len(r.dead))}
		for id := range r.dead {
			item.Dead = append(item.Dead, id)
		}
		sort.Slice(item.Dead, func(a, b int) bool { return item.Dead[a] < item.Dead[b] })
		st.Runs = append(st.Runs, item)
	}
	l.mu.RUnlock()
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	l.mu.RLock()
	budget := l.budget
	l.mu.RUnlock()
	if budget != nil {
		if err := budget.Spend(); err != nil {
			return fmt.Errorf("intervals: stage runstate: %w", err)
		}
	}
	if err := writeFileSync(runStatePath(m.dirPath, seq), data); err != nil {
		return err
	}
	l.stateWrites.Add(1)
	l.prepared = seq
	l.cpHeld = true
	ok = true
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lsmCommit finalizes the generation lsmPrepare staged (the caller's
// manifest rename already committed it): advance seq, truncate the WAL,
// and delete replaced run directories plus stale runstate files — only now
// is no committed state referencing them. Releases mergeMu.
func (m *Manager) lsmCommit() error {
	l := m.lsm
	if !l.cpHeld {
		return fmt.Errorf("intervals: commit without a prepared checkpoint")
	}
	defer func() {
		l.cpHeld = false
		l.mergeMu.Unlock()
	}()
	l.seq = l.prepared
	if m.wal != nil {
		if err := m.wal.Reset(l.seq); err != nil {
			return err
		}
	}
	l.mu.Lock()
	garbage := l.garbage
	l.garbage = nil
	l.mu.Unlock()
	for _, name := range garbage {
		os.RemoveAll(filepath.Join(m.dirPath, lsmRunsDir, name))
	}
	gcRunStates(m.dirPath, l.seq)
	return nil
}

// lsmRollback abandons the staged generation (a sibling's prepare or the
// group manifest write failed): remove the staged runstate and release
// mergeMu. Memtables drained into runs stay runs — that only moves the
// un-checkpointed tail between two representations; the WAL still holds
// every acknowledged mutation since the last commit.
func (m *Manager) lsmRollback() error {
	l := m.lsm
	if !l.cpHeld {
		return nil
	}
	l.cpHeld = false
	os.Remove(runStatePath(m.dirPath, l.prepared))
	l.mergeMu.Unlock()
	return nil
}
