package shard

import (
	"sync"
	"sync/atomic"

	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
)

// Intervals is a concurrency-safe, sharded interval manager: the external
// dynamic interval management problem of Proposition 2.2, partitioned
// across cfg.Shards independent managers, each with its own simulated
// block device and pager.
//
// Two partitioning schemes with different scaling behaviour:
//
//   - PartitionRange partitions the DOMAIN [0, Span): shard i owns the
//     i-th slice of the key space, and an interval is stored in every
//     shard whose slice it overlaps. A stabbing query then touches
//     exactly ONE shard, so query throughput scales with the shard count
//     (experiment E16); the cost is replication of slice-spanning
//     intervals, ~1 + length/sliceWidth copies each.
//   - PartitionHash routes an interval to a single shard by a mix of its
//     left endpoint; no replication, but every query must fan out to all
//     shards and merge, so hash sharding parallelizes one query's latency
//     rather than aggregate throughput.
type Intervals struct {
	cfg    Config
	router Router
	shards []*intervalShard
	n      atomic.Int64 // logical interval count (primaries only)

	// dir maps live interval ids to their endpoints; Delete routes through
	// it to exactly the shards holding the interval's replicas. Pending
	// (not-yet-group-committed) inserts are already listed — directory
	// membership tracks the logical set, not the flushed one. Insert
	// publishes an id here only after enqueueing on every replica shard,
	// which is what orders a racing Delete's ops after the insert's in
	// each shard buffer. Operations on DISTINCT ids are freely concurrent;
	// racing mutations of the SAME id (e.g. reinserting an id while a
	// Delete of it is in flight) need one logical writer per id, as with
	// any keyed store.
	dirMu sync.Mutex
	dir   map[uint64]geom.Interval

	// dirPath is the checkpoint directory of a file-backed instance
	// (empty for the in-memory construction); see durable.go.
	dirPath string
}

// ivOp is one pending group-commit operation: an insert of iv, or a delete
// of the interval iv (captured in full so query-time merging can filter by
// geometry without consulting the index).
type ivOp struct {
	iv  geom.Interval
	del bool
}

type intervalShard struct {
	cell cell[ivOp]
	mgr  *intervals.Manager
}

// apply replays one pending operation into the shard's index structure
// (called with the shard's write lock held). It goes through the UNLOGGED
// Apply* twins: on a WAL-backed shard the op was already logged at enqueue
// time (cell.logOp), and logging again at flush would double every record.
func (sh *intervalShard) apply(op ivOp) {
	if op.del {
		if !sh.mgr.ApplyDelete(op.iv.ID) {
			panic("shard: pending delete of an interval its shard does not hold")
		}
		return
	}
	sh.mgr.ApplyInsert(op.iv)
}

// armWAL wires the shard's cell to the manager's write-ahead log: ops are
// logged at enqueue (the moment they are acknowledged) and the flush is the
// group-commit sync boundary. No-op wiring when the manager has no WAL.
func (sh *intervalShard) armWAL() {
	if sh.mgr.WAL() == nil {
		return
	}
	sh.cell.logOp = func(op ivOp) {
		if op.del {
			sh.mgr.LogDelete(op.iv.ID)
		} else {
			sh.mgr.LogInsert(op.iv)
		}
	}
	sh.cell.synced = sh.mgr.SyncWAL
}

// replicaRange returns the inclusive shard interval that must store iv.
func (s *Intervals) replicaRange(iv geom.Interval) (first, last int) {
	if s.cfg.Partition == PartitionRange {
		return s.router.Route(iv.Lo), s.router.Route(iv.Hi)
	}
	i := s.router.Route(iv.Lo)
	return i, i
}

// NewIntervals builds a sharded manager over an initial interval set (the
// slice is copied; the initial build is static per shard, Theorem 3.2).
func NewIntervals(cfg Config, ivs []geom.Interval) *Intervals {
	s := newIntervalsShell(cfg)
	parts := s.partition(ivs)
	s.fillDir(ivs)
	n := s.router.Shards()
	s.shards = make([]*intervalShard, n)
	for i := 0; i < n; i++ {
		sh := &intervalShard{mgr: intervals.New(cfg.intervalsConfig(), parts[i])}
		s.shards[i] = sh
	}
	s.attachPools()
	s.n.Store(int64(len(ivs)))
	return s
}

// newIntervalsShell builds the router and empty containers shared by the
// in-memory and file-backed constructions.
func newIntervalsShell(cfg Config) *Intervals {
	return &Intervals{cfg: cfg, router: NewRouter(cfg.shards(), cfg.Partition, cfg.Span)}
}

// partition splits ivs into per-shard slices (replicating slice-spanning
// intervals under range partitioning).
func (s *Intervals) partition(ivs []geom.Interval) [][]geom.Interval {
	parts := make([][]geom.Interval, s.router.Shards())
	for _, iv := range ivs {
		first, last := s.replicaRange(iv)
		for i := first; i <= last; i++ {
			parts[i] = append(parts[i], iv)
		}
	}
	return parts
}

// fillDir seeds the id directory from an initial interval set, panicking on
// duplicates. Same loud-failure contract as Insert: a duplicate id in the
// initial set would leave one copy undeletable (the directory holds one
// entry per id) — and range partitioning can route the copies to disjoint
// shards, so no per-shard manager would catch it.
func (s *Intervals) fillDir(ivs []geom.Interval) {
	s.dir = make(map[uint64]geom.Interval, len(ivs))
	for _, iv := range ivs {
		if _, dup := s.dir[iv.ID]; dup {
			panic("shard: duplicate interval id " + iv.String())
		}
		s.dir[iv.ID] = iv
	}
}

// attachPools routes every shard's page I/O through a concurrent CLOCK
// buffer pool: queries hit memory-resident frames instead of re-reading
// the device, concurrently and race-free (the pool is internally
// lock-sharded; the cell's RWMutex already serializes writers against
// readers).
func (s *Intervals) attachPools() {
	if f := s.cfg.poolFrames(); f > 0 {
		for _, sh := range s.shards {
			sh.mgr.AttachPool(f, poolLockShards)
		}
	}
}

// Shards returns the shard count.
func (s *Intervals) Shards() int { return s.router.Shards() }

// Insert adds an interval. Each owning shard's write lock is held only for
// a pending-buffer append on all but every Batch-th call, which pays the
// group-commit flush.
func (s *Intervals) Insert(iv geom.Interval) {
	if !iv.Valid() {
		// Reject here, not at the deferred flush: buffering an invalid
		// interval would make an unrelated later Insert or Flush panic.
		panic("shard: invalid interval " + iv.String())
	}
	// A live duplicate id would silently orphan the previous copy (the
	// directory can hold only one entry per id); fail loudly up front.
	// Sequential misuse is caught here; a racing duplicate still panics at
	// the per-shard manager when its ops are applied.
	s.dirMu.Lock()
	_, dup := s.dir[iv.ID]
	s.dirMu.Unlock()
	if dup {
		panic("shard: duplicate interval id " + iv.String())
	}
	// Enqueue on every replica shard BEFORE publishing the id in the
	// directory: a concurrent Delete only acts on ids it finds in dir, and
	// the publish below happens-after these enqueues, so its delete op is
	// ordered after the insert op in every shard buffer. Publishing first
	// would let a racing Delete enqueue ahead of the insert — a flush-time
	// panic or a resurrected interval.
	first, last := s.replicaRange(iv)
	for i := first; i <= last; i++ {
		sh := s.shards[i]
		sh.cell.insert(ivOp{iv: iv}, s.cfg.batch(), sh.apply)
	}
	s.dirMu.Lock()
	s.dir[iv.ID] = iv
	s.dirMu.Unlock()
	s.n.Add(1)
}

// Delete removes the interval with the given id, returning whether it was
// present. Routing is replica-aware: the id directory recovers the
// endpoints, so the delete is enqueued on exactly the shards whose slices
// hold a replica (one shard under hash partitioning). Like inserts, deletes
// group-commit through the pending buffer — a per-shard O(1) append on all
// but every Batch-th operation — and queries in between merge the buffer,
// so a deleted interval disappears from results immediately.
func (s *Intervals) Delete(id uint64) bool {
	s.dirMu.Lock()
	iv, ok := s.dir[id]
	if ok {
		delete(s.dir, id)
	}
	s.dirMu.Unlock()
	if !ok {
		return false
	}
	first, last := s.replicaRange(iv)
	for i := first; i <= last; i++ {
		sh := s.shards[i]
		sh.cell.insert(ivOp{iv: iv, del: true}, s.cfg.batch(), sh.apply)
	}
	s.n.Add(-1)
	return true
}

// Flush forces every shard's pending buffer into its index structure and
// writes dirty pooled frames back to the shard devices.
func (s *Intervals) Flush() {
	for _, sh := range s.shards {
		sh.cell.flush(sh.apply)
		// Write-back mutates device pages, so it needs the writer lock.
		sh.cell.mu.Lock()
		sh.mgr.FlushPool()
		sh.cell.mu.Unlock()
	}
}

// Rebuilds sums the stabber global-rebuild counters across shards — the
// serving layer's metrics surface reports it so operators can correlate
// latency spikes with rebuild storms.
func (s *Intervals) Rebuilds() int {
	total := 0
	for _, sh := range s.shards {
		sh.cell.read(func([]ivOp) { total += sh.mgr.Rebuilds() })
	}
	return total
}

// PoolStats sums the buffer-pool hit/miss counters across shards (zeros
// when pooling is disabled).
func (s *Intervals) PoolStats() (hits, misses int64) {
	for _, sh := range s.shards {
		h, m := sh.mgr.PoolStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CtrlCacheStats sums the decoded-control-cache counters across shards.
func (s *Intervals) CtrlCacheStats() core.CtrlCacheStats {
	var total core.CtrlCacheStats
	for _, sh := range s.shards {
		total = total.Add(sh.mgr.CtrlCacheStats())
	}
	return total
}

// IngestStats sums the log-structured ingest counters across shards (zeros
// when the shards run the amortized-rebuild tree instead).
func (s *Intervals) IngestStats() intervals.IngestStats {
	var total intervals.IngestStats
	for _, sh := range s.shards {
		sh.cell.read(func([]ivOp) {
			st := sh.mgr.IngestStats()
			total.Runs += st.Runs
			total.Frozen += st.Frozen
			total.MemtableLen += st.MemtableLen
			total.Flushes += st.Flushes
			total.Merges += st.Merges
			total.Compactions += st.Compactions
			total.Stalls += st.Stalls
		})
	}
	return total
}

// Len returns the number of intervals stored (including pending ones);
// range-partition replicas are not double counted.
func (s *Intervals) Len() int { return int(s.n.Load()) }

// applyPending folds the ordered pending-op buffer into a result list:
// matching pending inserts are appended, pending deletes remove the (at
// most one) earlier occurrence of their id — whether it came from the index
// or from an earlier pending insert. Replaying in buffer order keeps a
// delete-then-reinsert of the same id correct.
//
// stop is the fan-out's shared early-termination flag, polled per op the
// same way the index scan polls it per hit. The flag is single-writer —
// only fanOut's emit loop stores true, and only after the caller's emit
// returned false — so once it reads true this collector's output can never
// be emitted, and abandoning the merge mid-buffer (even between a pending
// insert and the delete that would remove it) cannot drop a result any
// non-terminated query is still owed.
func applyPending(out []geom.Interval, pending []ivOp, stop *atomic.Bool, match func(geom.Interval) bool) []geom.Interval {
	for _, op := range pending {
		if stop.Load() {
			return out
		}
		if op.del {
			for i := range out {
				if out[i].ID == op.iv.ID {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
		} else if match(op.iv) {
			out = append(out, op.iv)
		}
	}
	return out
}

// stabShard collects the shard's matches for a stabbing query under its
// read lock: index hits merged with the (bounded) pending-op buffer. stop
// is the fan-out's early-termination flag: once another shard's results
// satisfied the caller, collection is pointless and halts.
func (sh *intervalShard) stabShard(q int64, stop *atomic.Bool) []geom.Interval {
	var out []geom.Interval
	sh.cell.read(func(pending []ivOp) {
		sh.mgr.Stab(q, func(iv geom.Interval) bool {
			if stop.Load() {
				return false
			}
			out = append(out, iv)
			return true
		})
		if stop.Load() {
			return
		}
		out = applyPending(out, pending, stop, func(iv geom.Interval) bool { return iv.Contains(q) })
	})
	return out
}

// intersectShard collects the shard's matches for an intersection query.
// Under range partitioning an intersecting interval may be replicated into
// several queried shards; the shard owning max(iv.Lo, q.Lo) — a point
// inside both the interval and the query, hence inside exactly one queried
// shard that stores iv — is the unique reporter.
func (s *Intervals) intersectShard(idx int, q geom.Interval, stop *atomic.Bool) []geom.Interval {
	sh := s.shards[idx]
	owns := func(iv geom.Interval) bool {
		if s.cfg.Partition != PartitionRange {
			return true
		}
		p := iv.Lo
		if q.Lo > p {
			p = q.Lo
		}
		return s.router.Route(p) == idx
	}
	var out []geom.Interval
	sh.cell.read(func(pending []ivOp) {
		sh.mgr.Intersect(q, func(iv geom.Interval) bool {
			if stop.Load() {
				return false
			}
			if owns(iv) {
				out = append(out, iv)
			}
			return true
		})
		if stop.Load() {
			return
		}
		out = applyPending(out, pending, stop, func(iv geom.Interval) bool {
			return iv.Intersects(q) && owns(iv)
		})
	})
	return out
}

// Stab reports every interval containing q, each exactly once. Under range
// partitioning exactly one shard is touched.
func (s *Intervals) Stab(q int64, emit intervals.EmitInterval) {
	first, last := 0, s.router.Shards()-1
	if s.cfg.Partition == PartitionRange {
		first, last = s.router.Route(q), s.router.Route(q)
	}
	fanOut(first, last,
		func(i int, stop *atomic.Bool) []geom.Interval { return s.shards[i].stabShard(q, stop) },
		emit)
}

// Intersect reports every interval intersecting q, each exactly once.
// Under range partitioning only the shards overlapping q are touched.
func (s *Intervals) Intersect(q geom.Interval, emit intervals.EmitInterval) {
	if !q.Valid() {
		return
	}
	first, last := 0, s.router.Shards()-1
	if s.cfg.Partition == PartitionRange {
		first, last = s.router.Route(q.Lo), s.router.Route(q.Hi)
	}
	fanOut(first, last,
		func(i int, stop *atomic.Bool) []geom.Interval { return s.intersectShard(i, q, stop) },
		emit)
}

// Stats sums the I/O counters of every shard's device.
func (s *Intervals) Stats() disk.Stats {
	var st disk.Stats
	for _, sh := range s.shards {
		sh.cell.read(func([]ivOp) { st = st.Add(sh.mgr.Stats()) })
	}
	return st
}

// SpaceBlocks sums the live pages of every shard's device (replication
// under range partitioning is visible here, as it should be).
func (s *Intervals) SpaceBlocks() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.cell.read(func([]ivOp) { total += sh.mgr.SpaceBlocks() })
	}
	return total
}
