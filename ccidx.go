// Package ccidx is a faithful Go implementation of the I/O-efficient index
// structures of Kanellakis, Ramaswamy, Vengroff and Vitter, "Indexing for
// Data Models with Constraints and Classes" (PODS 1993; JCSS 52:589-612,
// 1996).
//
// The package exposes the paper's two applications:
//
//   - IntervalManager: external dynamic interval management — the problem
//     indexing constraints reduces to (Section 2.1) — backed by the
//     metablock tree of Section 3 (space O(n/B), query O(log_B n + t/B),
//     amortized insert O(log_B n + (log_B n)^2/B)).
//   - ClassIndex: indexing by attribute and class over a static forest
//     hierarchy (Sections 2.2 and 4), with three strategies: the simple
//     range-tree solution of Theorem 2.6, full-extent replication of
//     Lemma 4.2, and the rake-and-contract decomposition of Theorem 4.7.
//
// The underlying structures (metablock tree, 3-sided metablock tree,
// external priority search tree, B+-tree, CQL layer) live in internal/
// packages; everything runs against a simulated block device whose
// read/write counters are the experiment currency. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduced bounds.
package ccidx

import (
	"encoding/json"
	"fmt"

	"ccidx/internal/classindex"
	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/shard"
)

// Interval is a closed interval with an identifier.
type Interval = geom.Interval

// Point is a planar point with an identifier.
type Point = geom.Point

// Stats holds I/O counters of a simulated device.
type Stats = disk.Stats

// Config selects the block capacity B (records per page).
type Config struct {
	B int
}

// FsyncPolicy selects how aggressively durable instances fsync.
type FsyncPolicy = disk.FsyncPolicy

// Fsync policies for durable instances.
const (
	// FsyncCheckpoint (the default) syncs at checkpoint ordering points;
	// WAL and journal appends rely on write ordering (process-crash safe).
	FsyncCheckpoint = disk.FsyncCheckpoint
	// FsyncNever never syncs; durability is left entirely to the OS.
	FsyncNever = disk.FsyncNever
	// FsyncAlways also syncs journal and WAL appends, extending crash
	// safety to power loss (sharded instances pay one fsync per
	// group-commit flush, not one per operation).
	FsyncAlways = disk.FsyncAlways
)

// DurableOptions tunes a durable instance's durability/performance
// trade-off. The zero value — checkpoint-time fsync with the write-ahead
// log ON — recovers every acknowledged mutation after a process crash.
type DurableOptions struct {
	// Fsync is the device and WAL fsync policy.
	Fsync FsyncPolicy
	// DisableWAL turns off write-ahead logging: mutations since the last
	// checkpoint are lost on a crash (the pre-WAL behavior; cheapest
	// writes).
	DisableWAL bool
}

// durableOpts folds the optional trailing options argument (the durable
// constructors take `opts ...DurableOptions` for compatibility; only the
// first value is used).
func durableOpts(opts []DurableOptions) DurableOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return DurableOptions{}
}

func (o DurableOptions) intervals() intervals.DurableOptions {
	return intervals.DurableOptions{Fsync: o.Fsync, DisableWAL: o.DisableWAL}
}

func (o DurableOptions) classes() classindex.DurableOpts {
	return classindex.DurableOpts{Fsync: o.Fsync, DisableWAL: o.DisableWAL}
}

// IntervalManager answers stabbing and intersection queries over a dynamic
// interval set (Proposition 2.2 + Theorem 3.7).
type IntervalManager struct {
	m *intervals.Manager
}

// NewIntervalManager builds a manager over an initial interval set.
//
// Deprecated: Use NewIndex with Options{B: cfg.B, PoolFrames: -1}, which
// also selects sharding and log-structured ingest; this wrapper remains for
// compatibility.
func NewIntervalManager(cfg Config, ivs []Interval) *IntervalManager {
	return &IntervalManager{m: intervals.New(intervals.Config{B: cfg.B}, ivs)}
}

// CreateIntervalManager builds a DURABLE manager: both index structures
// live on file-backed page devices inside dir (created if needed), and the
// initial state is checkpointed before returning. Use Checkpoint to persist
// later mutations and OpenIntervalManager to reopen after a restart — or a
// crash, which recovers the last committed checkpoint.
//
// Deprecated: Use Create with Options{B: cfg.B, PoolFrames: -1, Durability: ...}.
func CreateIntervalManager(cfg Config, dir string, ivs []Interval, opts ...DurableOptions) (*IntervalManager, error) {
	m, err := intervals.CreateAt(dir, intervals.Config{B: cfg.B}, ivs, durableOpts(opts).intervals())
	if err != nil {
		return nil, err
	}
	return &IntervalManager{m: m}, nil
}

// OpenIntervalManager reopens the durable manager persisted in dir at its
// last committed checkpoint. Crash recovery is automatic: partially written
// generations are rolled back, never observed.
//
// Deprecated: Use Open, which auto-detects the persisted topology.
func OpenIntervalManager(dir string, opts ...DurableOptions) (*IntervalManager, error) {
	m, err := intervals.OpenAt(dir, durableOpts(opts).intervals())
	if err != nil {
		return nil, err
	}
	return &IntervalManager{m: m}, nil
}

// Checkpoint makes the durable manager's current state crash-safe: the new
// generation is written beside the previous one and atomically committed
// (shadow superblocks + manifest rename), so a crash at any point leaves
// one consistent generation. Errors for managers built with
// NewIntervalManager (no backing files).
func (im *IntervalManager) Checkpoint() error { return im.m.Checkpoint() }

// Close closes a durable manager's files WITHOUT checkpointing (state since
// the last checkpoint is recovered — i.e. discarded back to that
// checkpoint — by the next OpenIntervalManager). No-op for in-memory
// managers.
func (im *IntervalManager) Close() error { return im.m.CloseFiles() }

// Insert adds an interval (semi-dynamic, amortized O(log_B n + log_B^2 n/B)).
func (im *IntervalManager) Insert(iv Interval) { im.m.Insert(iv) }

// Delete removes the interval with the given id, returning whether it was
// present. Interval ids must be unique among live intervals (Insert panics
// on a live duplicate). Deletion combines a real B+-tree delete on the
// endpoint side with a weak (tombstone) delete and amortized global
// rebuilding on the metablock side — the paper's structure is
// semi-dynamic, so the bound is amortized O(log_B n) I/Os and query bounds
// are unchanged. See DESIGN.md, "Weak deletes and global rebuilding".
func (im *IntervalManager) Delete(id uint64) bool { return im.m.Delete(id) }

// Len returns the number of intervals.
func (im *IntervalManager) Len() int { return im.m.Len() }

// Stab reports every interval containing q in O(log_B n + t/B) I/Os.
func (im *IntervalManager) Stab(q int64, emit func(Interval) bool) {
	im.m.Stab(q, intervals.EmitInterval(emit))
}

// Intersect reports every interval intersecting q exactly once, in
// O(log_B n + t/B) I/Os.
func (im *IntervalManager) Intersect(q Interval, emit func(Interval) bool) {
	im.m.Intersect(q, intervals.EmitInterval(emit))
}

// StabBatch answers a batch of stabbing queries in one shared traversal:
// the structure's upper levels are read once per BATCH instead of once per
// query, so I/Os per query fall toward the output-driven t/B floor as the
// batch grows. Results are demultiplexed per query: emit receives the
// batch position qi of the answered query, and per query the reported
// multiset is exactly Stab(qs[qi], ...)'s; returning false stops that
// query only. See DESIGN.md, "Batched query execution".
func (im *IntervalManager) StabBatch(qs []int64, emit func(qi int, iv Interval) bool) {
	im.m.StabBatch(qs, intervals.EmitBatch(emit))
}

// IntersectBatch answers a batch of intersection queries with one batched
// stabbing pass plus one batched endpoint-tree range pass, reporting each
// intersecting interval exactly once per query; demultiplexing and
// early-stop semantics as in StabBatch.
func (im *IntervalManager) IntersectBatch(qs []Interval, emit func(qi int, iv Interval) bool) {
	im.m.IntersectBatch(qs, intervals.EmitBatch(emit))
}

// Stats returns cumulative I/O counters.
func (im *IntervalManager) Stats() Stats { return im.m.Stats() }

// SpaceBlocks returns the number of disk blocks in use.
func (im *IntervalManager) SpaceBlocks() int64 { return im.m.SpaceBlocks() }

// Flush writes dirty pooled frames back to the devices (no-op without a
// pool; the unsharded manager has no group-commit buffer to drain). Part of
// the unified Index surface.
func (im *IntervalManager) Flush() { im.m.FlushPool() }

// Shards returns 1: the unsharded manager is a single shard.
func (im *IntervalManager) Shards() int { return 1 }

// Rebuilds counts amortized global rebuilds (tree mode) or run compactions
// (log-structured mode).
func (im *IntervalManager) Rebuilds() int { return im.m.Rebuilds() }

// PoolStats returns the buffer-pool hit/miss counters (zeros without a
// pool).
func (im *IntervalManager) PoolStats() (hits, misses int64) { return im.m.PoolStats() }

// CtrlCacheStats returns the decoded-control-cache counters.
func (im *IntervalManager) CtrlCacheStats() CtrlCacheStats { return im.m.CtrlCacheStats() }

// IngestStats snapshots the log-structured ingest counters (zeros for
// tree-mode managers).
func (im *IntervalManager) IngestStats() IngestStats { return im.m.IngestStats() }

// Partition selects how a sharded index assigns keys to shards.
type Partition = shard.Partition

// Partition schemes.
const (
	// PartitionHash spreads keys uniformly; queries fan out to all shards.
	PartitionHash = shard.PartitionHash
	// PartitionRange assigns contiguous key ranges of [0, Span) to
	// consecutive shards; range queries touch only overlapping shards.
	PartitionRange = shard.PartitionRange
)

// ShardConfig configures the concurrent sharded serving layer.
type ShardConfig struct {
	// Shards is the number of independent shards (each with its own
	// simulated block device); values < 1 mean 1.
	Shards int
	// B is the block capacity of every per-shard structure.
	B int
	// Batch is the group-commit threshold: inserts accumulate in a
	// per-shard pending buffer and are applied to the index structure
	// every Batch calls while the shard's write lock is held. Values < 1
	// disable batching. Queries always see pending inserts.
	Batch int
	// Partition selects hash or range partitioning.
	Partition Partition
	// Span is the key domain [0, Span) used by PartitionRange; it must be
	// positive when that scheme is selected (construction panics
	// otherwise, to surface the misconfiguration immediately).
	Span int64
	// PoolFrames sizes each shard's concurrent CLOCK buffer pool: reads
	// that hit a memory-resident frame cost no device I/O, writes are
	// written back on eviction or Flush. 0 selects the default
	// (shard.DefaultPoolFrames); negative disables pooling, restoring the
	// paper's bare every-access-is-an-I/O cost model.
	PoolFrames int
}

func (c ShardConfig) internal() shard.Config {
	return shard.Config{Shards: c.Shards, B: c.B, Batch: c.Batch, Partition: c.Partition, Span: c.Span, PoolFrames: c.PoolFrames}
}

// ShardedIntervalManager is a concurrency-safe interval manager: the
// workload of IntervalManager partitioned across N shards with per-shard
// RWMutex guards, group-committed inserts and deletes and parallel query
// fan-out. All methods are safe for concurrent use on DISTINCT interval
// ids; mutations of the SAME id (reinserting an id while its Delete is in
// flight) need one logical writer per id, as with any keyed store —
// unsynchronized same-id races corrupt that id's entries. Interval ids
// must be unique among live intervals (inserting a live id panics).
type ShardedIntervalManager struct {
	s *shard.Intervals
}

// NewShardedIntervalManager builds a sharded manager over an initial
// interval set.
//
// Deprecated: Use NewIndex with Options{Sharding: &ShardingOptions{...}}.
func NewShardedIntervalManager(cfg ShardConfig, ivs []Interval) *ShardedIntervalManager {
	return &ShardedIntervalManager{s: shard.NewIntervals(cfg.internal(), ivs)}
}

// CreateShardedIntervalManager builds a DURABLE sharded manager: every
// shard's structures live on file-backed devices under dir (one
// subdirectory per shard), the serving configuration is recorded in a
// manifest, and the initial state is checkpointed before returning.
//
// Deprecated: Use Create with Options{Sharding: &ShardingOptions{...}}.
func CreateShardedIntervalManager(cfg ShardConfig, dir string, ivs []Interval, opts ...DurableOptions) (*ShardedIntervalManager, error) {
	s, err := shard.CreateIntervalsAt(dir, cfg.internal(), ivs, durableOpts(opts).intervals())
	if err != nil {
		return nil, err
	}
	return &ShardedIntervalManager{s: s}, nil
}

// OpenShardedIntervalManager reopens the sharded manager persisted under
// dir: the manifest supplies the serving configuration, every shard's files
// are reopened IN PARALLEL at the manifest's committed generation (crash
// recovery included), buffer pools are re-attached, and the manager resumes
// serving.
//
// Deprecated: Use Open, which auto-detects the persisted topology.
func OpenShardedIntervalManager(dir string, opts ...DurableOptions) (*ShardedIntervalManager, error) {
	s, err := shard.OpenIntervals(dir, durableOpts(opts).intervals())
	if err != nil {
		return nil, err
	}
	return &ShardedIntervalManager{s: s}, nil
}

// Checkpoint makes the whole sharded index durable at ONE consistent
// generation: per shard the pending group-commit log is drained and the
// devices prepared, then a single atomic manifest rename commits every
// shard together — a crash can never surface shards from different
// checkpoints. Queries may run concurrently; mutations must be quiesced.
func (sm *ShardedIntervalManager) Checkpoint() error { return sm.s.Checkpoint() }

// Close closes all shard files WITHOUT checkpointing.
func (sm *ShardedIntervalManager) Close() error { return sm.s.Close() }

// Insert adds an interval (group-committed; visible to queries at once).
func (sm *ShardedIntervalManager) Insert(iv Interval) { sm.s.Insert(iv) }

// Delete removes the interval with the given id, returning whether it was
// present. Routing is replica-aware (exactly the shards holding a replica
// are touched), the delete group-commits through the same pending buffers
// as inserts, and queries in between observe it immediately. Safe for
// concurrent use alongside operations on other ids; see the type comment
// for the one-writer-per-id contract.
func (sm *ShardedIntervalManager) Delete(id uint64) bool { return sm.s.Delete(id) }

// Flush forces all pending group-commit buffers into the index structures.
func (sm *ShardedIntervalManager) Flush() { sm.s.Flush() }

// Len returns the number of intervals stored, pending ones included.
func (sm *ShardedIntervalManager) Len() int { return sm.s.Len() }

// Shards returns the shard count.
func (sm *ShardedIntervalManager) Shards() int { return sm.s.Shards() }

// Stab reports every interval containing q, each exactly once.
func (sm *ShardedIntervalManager) Stab(q int64, emit func(Interval) bool) {
	sm.s.Stab(q, intervals.EmitInterval(emit))
}

// Intersect reports every interval intersecting q, each exactly once.
func (sm *ShardedIntervalManager) Intersect(q Interval, emit func(Interval) bool) {
	sm.s.Intersect(q, intervals.EmitInterval(emit))
}

// StabBatch answers a batch of stabbing queries: the batch is sorted and
// grouped by owning shard, each shard's read lock is acquired ONCE per
// group, the pending group-commit log is replayed once against the whole
// group, and every per-shard structure runs its shared-traversal batch
// pass; shard-groups fan out in parallel. Per query the result multiset is
// exactly Stab's; emit receives the batch position of the answered query
// and returning false stops that query only.
func (sm *ShardedIntervalManager) StabBatch(qs []int64, emit func(qi int, iv Interval) bool) {
	sm.s.StabBatch(qs, intervals.EmitBatch(emit))
}

// IntersectBatch is the batched Intersect: one lock acquisition and one
// pending replay per touched shard for the whole sub-batch, each
// intersecting interval reported exactly once per query.
func (sm *ShardedIntervalManager) IntersectBatch(qs []Interval, emit func(qi int, iv Interval) bool) {
	sm.s.IntersectBatch(qs, intervals.EmitBatch(emit))
}

// Stats sums the I/O counters of all shard devices (pool hits excluded:
// the counters measure transfers that actually reached the devices).
func (sm *ShardedIntervalManager) Stats() Stats { return sm.s.Stats() }

// PoolStats sums the buffer-pool hit/miss counters across shards (zeros
// when pooling is disabled).
func (sm *ShardedIntervalManager) PoolStats() (hits, misses int64) { return sm.s.PoolStats() }

// CtrlCacheStats sums the decoded-control-cache counters across shards.
func (sm *ShardedIntervalManager) CtrlCacheStats() CtrlCacheStats { return sm.s.CtrlCacheStats() }

// Rebuilds sums the stabber global-rebuild counters across shards; the
// serving metrics surface exposes it so rebuild storms can be correlated
// with latency spikes.
func (sm *ShardedIntervalManager) Rebuilds() int { return sm.s.Rebuilds() }

// SpaceBlocks sums the live pages across all shard devices.
func (sm *ShardedIntervalManager) SpaceBlocks() int64 { return sm.s.SpaceBlocks() }

// IngestStats sums the log-structured ingest counters across shards (zeros
// for tree-mode managers).
func (sm *ShardedIntervalManager) IngestStats() IngestStats { return sm.s.IngestStats() }

// ShardedClassIndex is a concurrency-safe class index: objects are
// partitioned by attribute across N independent per-shard structures of
// the chosen strategy, sharing one frozen hierarchy. All methods are safe
// for concurrent use.
type ShardedClassIndex struct {
	h *Hierarchy
	s *shard.Classes
}

// NewShardedClassIndex builds a sharded class index over a frozen
// hierarchy. PartitionRange with Span set to the attribute domain is the
// natural configuration: attribute-range queries then touch only the
// overlapping shards.
//
// Deprecated: Use NewClassStore with Options{Sharding: &ShardingOptions{...}}.
func NewShardedClassIndex(h *Hierarchy, cfg ShardConfig, s Strategy) *ShardedClassIndex {
	var newIndex func() shard.ClassIndex
	switch s {
	case StrategySimple:
		newIndex = func() shard.ClassIndex { return classindex.NewSimple(h, cfg.B) }
	case StrategyFullExtent:
		newIndex = func() shard.ClassIndex { return classindex.NewFullExtent(h, cfg.B) }
	case StrategyRakeContract:
		newIndex = func() shard.ClassIndex { return classindex.NewRakeContract(h, cfg.B) }
	default:
		panic("ccidx: unknown strategy")
	}
	return &ShardedClassIndex{h: h, s: shard.NewClasses(cfg.internal(), h, newIndex)}
}

// CreateShardedClassIndex builds a DURABLE, initially empty sharded class
// index: every shard's strategy instance lives on file-backed devices under
// dir, and the serving configuration plus the full hierarchy are recorded
// in the manifest.
//
// Deprecated: Use CreateClassStore with Options{Sharding: &ShardingOptions{...}}.
func CreateShardedClassIndex(h *Hierarchy, cfg ShardConfig, s Strategy, dir string, opts ...DurableOptions) (*ShardedClassIndex, error) {
	sc, err := shard.CreateClassesAt(dir, cfg.internal(), h, classindex.StrategyKind(s), durableOpts(opts).classes())
	if err != nil {
		return nil, err
	}
	return &ShardedClassIndex{h: h, s: sc}, nil
}

// OpenShardedClassIndex reopens the sharded class index persisted under
// dir at its last committed checkpoint, reopening shards in parallel and
// rebuilding the hierarchy from the manifest.
//
// Deprecated: Use OpenClassStore, which auto-detects the persisted topology.
func OpenShardedClassIndex(dir string, opts ...DurableOptions) (*ShardedClassIndex, error) {
	sc, h, err := shard.OpenClasses(dir, durableOpts(opts).classes())
	if err != nil {
		return nil, err
	}
	return &ShardedClassIndex{h: h, s: sc}, nil
}

// Checkpoint makes the whole sharded class index durable at one consistent
// generation (per-shard prepare, one manifest rename, per-shard commit).
// Mutations must be quiesced by the caller; queries may continue.
func (sc *ShardedClassIndex) Checkpoint() error { return sc.s.Checkpoint() }

// Close closes all shard files WITHOUT checkpointing.
func (sc *ShardedClassIndex) Close() error { return sc.s.Close() }

// Hierarchy returns the (frozen) hierarchy the index serves — for
// instances reopened from disk, the one rebuilt from the manifest.
func (sc *ShardedClassIndex) Hierarchy() *Hierarchy { return sc.h }

// Insert adds an object with the given class name, attribute and id.
func (sc *ShardedClassIndex) Insert(class string, attr int64, id uint64) {
	c, ok := sc.h.Class(class)
	if !ok {
		panic("ccidx: unknown class " + class)
	}
	sc.s.Insert(classindex.Object{Class: c, Attr: attr, ID: id})
}

// Flush forces all pending group-commit buffers into the index structures.
func (sc *ShardedClassIndex) Flush() { sc.s.Flush() }

// Shards returns the shard count.
func (sc *ShardedClassIndex) Shards() int { return sc.s.Shards() }

// Query reports every object in the FULL extent of the class whose
// attribute lies in [a1, a2], each exactly once.
func (sc *ShardedClassIndex) Query(class string, a1, a2 int64, emit func(attr int64, id uint64) bool) {
	c, ok := sc.h.Class(class)
	if !ok {
		panic("ccidx: unknown class " + class)
	}
	sc.s.Query(c, a1, a2, classindex.EmitObject(emit))
}

// ClassRangeQuery is one query of a batched class-index lookup.
type ClassRangeQuery struct {
	Class  string
	A1, A2 int64
}

// QueryBatch answers a batch of full-extent class queries: each touched
// shard is locked once for its whole sub-batch and its pending buffer is
// scanned once for the group, with shards queried in parallel. Per query
// the result multiset is exactly Query's; emit receives the batch position
// of the answered query and returning false stops that query only.
func (sc *ShardedClassIndex) QueryBatch(qs []ClassRangeQuery, emit func(qi int, attr int64, id uint64) bool) {
	sqs := make([]shard.ClassQuery, len(qs))
	for i, q := range qs {
		c, ok := sc.h.Class(q.Class)
		if !ok {
			panic("ccidx: unknown class " + q.Class)
		}
		sqs[i] = shard.ClassQuery{Class: c, A1: q.A1, A2: q.A2}
	}
	sc.s.QueryBatch(sqs, emit)
}

// Stats sums the I/O counters of all shard structures.
func (sc *ShardedClassIndex) Stats() Stats { return sc.s.Stats() }

// SpaceBlocks sums the live pages across all shards.
func (sc *ShardedClassIndex) SpaceBlocks() int64 { return sc.s.SpaceBlocks() }

// MetablockTree exposes the paper's core structure directly: diagonal
// corner queries over points with Y >= X (Section 3).
type MetablockTree struct {
	t *core.Tree
}

// NewMetablockTree builds the static structure over pts (Theorem 3.2).
func NewMetablockTree(cfg Config, pts []Point) *MetablockTree {
	return &MetablockTree{t: core.New(core.Config{B: cfg.B}, pts)}
}

// Insert adds a point (Section 3.2, Theorem 3.7).
func (mt *MetablockTree) Insert(p Point) { mt.t.Insert(p) }

// DiagonalQuery reports every point with X <= a and Y >= a.
func (mt *MetablockTree) DiagonalQuery(a int64, emit func(Point) bool) {
	mt.t.DiagonalQuery(a, geom.Emit(emit))
}

// Len returns the number of points.
func (mt *MetablockTree) Len() int { return mt.t.Len() }

// Stats returns cumulative I/O counters.
func (mt *MetablockTree) Stats() Stats { return mt.t.Stats() }

// Hierarchy is a static forest of classes.
type Hierarchy = classindex.Hierarchy

// NewHierarchy returns an empty hierarchy; add classes with AddClass and
// call Freeze before building an index.
func NewHierarchy() *Hierarchy { return classindex.NewHierarchy() }

// Strategy selects a class-indexing algorithm.
type Strategy int

// Class-indexing strategies.
const (
	// StrategySimple is Theorem 2.6: query O(log2 c log_B n + t/B), fully
	// dynamic objects.
	StrategySimple Strategy = iota
	// StrategyFullExtent is Lemma 4.2: optimal queries, space grows with
	// hierarchy depth.
	StrategyFullExtent
	// StrategyRakeContract is Theorem 4.7: query O(log_B n + log2 B + t/B),
	// space O((n/B) log2 c), semi-dynamic inserts.
	StrategyRakeContract
)

// ClassIndex indexes objects by one attribute over class full extents.
type ClassIndex struct {
	h  *Hierarchy
	si *classindex.SimpleIndex
	fe *classindex.FullExtentIndex
	rc *classindex.RakeContract

	// Durable state (nil/zero for in-memory instances): the file-backed
	// strategy wrapper and its checkpoint directory.
	du       *classindex.Durable
	dirPath  string
	strategy Strategy
	b        int
}

// classIndexManifestKind tags a durable class index's manifest.
const classIndexManifestKind = "ccidx-classindex"

// classIndexMeta is the configuration a durable class index records in its
// manifest: strategy, block capacity, and the full hierarchy, so
// OpenClassIndex needs nothing but the directory.
type classIndexMeta struct {
	Strategy  int                      `json:"strategy"`
	B         int                      `json:"b"`
	Hierarchy classindex.HierarchySpec `json:"hierarchy"`
}

// NewClassIndex builds an index over a frozen hierarchy.
//
// Deprecated: Use NewClassStore with Options{B: cfg.B}.
func NewClassIndex(h *Hierarchy, cfg Config, s Strategy) *ClassIndex {
	ci := &ClassIndex{h: h}
	switch s {
	case StrategySimple:
		ci.si = classindex.NewSimple(h, cfg.B)
	case StrategyFullExtent:
		ci.fe = classindex.NewFullExtent(h, cfg.B)
	case StrategyRakeContract:
		ci.rc = classindex.NewRakeContract(h, cfg.B)
	default:
		panic("ccidx: unknown strategy")
	}
	return ci
}

// CreateClassIndex builds a DURABLE, initially empty class index over a
// frozen hierarchy: the strategy's trees live on file-backed devices in dir
// and the hierarchy itself is recorded in the manifest, so OpenClassIndex
// needs only the directory. The empty state is checkpointed before
// returning.
//
// Deprecated: Use CreateClassStore with Options{B: cfg.B, Durability: ...}.
func CreateClassIndex(h *Hierarchy, cfg Config, s Strategy, dir string, opts ...DurableOptions) (*ClassIndex, error) {
	du, err := classindex.CreateDurable(dir, h, cfg.B, classindex.StrategyKind(s), durableOpts(opts).classes())
	if err != nil {
		return nil, err
	}
	ci := &ClassIndex{h: h, du: du, dirPath: dir, strategy: s, b: cfg.B}
	if err := ci.Checkpoint(); err != nil {
		du.CloseFiles()
		return nil, err
	}
	return ci, nil
}

// OpenClassIndex reopens the durable class index persisted in dir at its
// last committed checkpoint, rebuilding the hierarchy from the manifest.
//
// Deprecated: Use OpenClassStore, which auto-detects the persisted topology.
func OpenClassIndex(dir string, opts ...DurableOptions) (*ClassIndex, error) {
	mf, err := disk.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if mf.Kind != classIndexManifestKind {
		return nil, fmt.Errorf("ccidx: %s holds a %q checkpoint, not %q", dir, mf.Kind, classIndexManifestKind)
	}
	var cm classIndexMeta
	if err := json.Unmarshal(mf.Meta, &cm); err != nil {
		return nil, fmt.Errorf("ccidx: corrupt manifest meta in %s: %w", dir, err)
	}
	h, err := classindex.HierarchyFromSpec(cm.Hierarchy)
	if err != nil {
		return nil, err
	}
	du, err := classindex.OpenDurable(dir, h, cm.B, classindex.StrategyKind(cm.Strategy), mf.Seq, durableOpts(opts).classes())
	if err != nil {
		return nil, err
	}
	return &ClassIndex{h: h, du: du, dirPath: dir, strategy: Strategy(cm.Strategy), b: cm.B}, nil
}

// Checkpoint makes a durable class index's current state crash-safe
// (shadow superblocks committed by one manifest rename). Errors for
// in-memory instances.
func (ci *ClassIndex) Checkpoint() error {
	if ci.du == nil {
		return fmt.Errorf("ccidx: class index is not file-backed")
	}
	seq := ci.du.Seq() + 1
	if err := ci.du.PrepareCheckpoint(seq); err != nil {
		return err
	}
	metaJSON, err := json.Marshal(classIndexMeta{
		Strategy: int(ci.strategy), B: ci.b, Hierarchy: ci.h.Spec(),
	})
	if err != nil {
		return err
	}
	if err := disk.WriteManifest(ci.dirPath, disk.Manifest{
		Version: 1, Kind: classIndexManifestKind, Seq: seq, Meta: metaJSON,
	}); err != nil {
		if rerr := ci.du.RollbackCheckpoint(); rerr != nil {
			return fmt.Errorf("ccidx: rolling back after manifest failure: %v (original: %w)", rerr, err)
		}
		return err
	}
	return ci.du.CommitCheckpoint()
}

// Close closes a durable class index's files WITHOUT checkpointing. No-op
// for in-memory instances.
func (ci *ClassIndex) Close() error {
	if ci.du == nil {
		return nil
	}
	return ci.du.CloseFiles()
}

// Flush is a no-op: the unsharded class index applies mutations directly
// (no group-commit buffer). Part of the unified ClassStore surface.
func (ci *ClassIndex) Flush() {}

// Shards returns 1: the unsharded class index is a single shard.
func (ci *ClassIndex) Shards() int { return 1 }

// Hierarchy returns the (frozen) hierarchy the index serves.
func (ci *ClassIndex) Hierarchy() *Hierarchy { return ci.h }

func (ci *ClassIndex) classID(name string) int {
	id, ok := ci.h.Class(name)
	if !ok {
		panic("ccidx: unknown class " + name)
	}
	return id
}

// Insert adds an object with the given class name, attribute and id.
func (ci *ClassIndex) Insert(class string, attr int64, id uint64) {
	o := classindex.Object{Class: ci.classID(class), Attr: attr, ID: id}
	switch {
	case ci.du != nil:
		ci.du.Insert(o)
	case ci.si != nil:
		ci.si.Insert(o)
	case ci.fe != nil:
		ci.fe.Insert(o)
	default:
		ci.rc.Insert(o)
	}
}

// Delete removes an object, returning whether it was present. Every
// strategy supports it: StrategySimple and StrategyFullExtent delete from
// their B+-trees directly, and StrategyRakeContract combines B+-tree
// deletes with weak (tombstone) deletes plus global rebuilding on its
// 3-sided structures — the paper's structures are semi-dynamic (deletion is
// its open problem), so the rake-contract path is amortized:
// O(log2 c * log_B n) I/Os per delete.
func (ci *ClassIndex) Delete(class string, attr int64, id uint64) bool {
	o := classindex.Object{Class: ci.classID(class), Attr: attr, ID: id}
	switch {
	case ci.du != nil:
		return ci.du.Delete(o)
	case ci.si != nil:
		return ci.si.Delete(o)
	case ci.fe != nil:
		return ci.fe.Delete(o)
	default:
		return ci.rc.Delete(o)
	}
}

// Query reports every object in the FULL extent of the class whose
// attribute lies in [a1, a2].
func (ci *ClassIndex) Query(class string, a1, a2 int64, emit func(attr int64, id uint64) bool) {
	c := ci.classID(class)
	switch {
	case ci.du != nil:
		ci.du.Query(c, a1, a2, classindex.EmitObject(emit))
	case ci.si != nil:
		ci.si.Query(c, a1, a2, classindex.EmitObject(emit))
	case ci.fe != nil:
		ci.fe.Query(c, a1, a2, classindex.EmitObject(emit))
	default:
		ci.rc.Query(c, a1, a2, classindex.EmitObject(emit))
	}
}

// Stats returns cumulative I/O counters.
func (ci *ClassIndex) Stats() Stats {
	switch {
	case ci.du != nil:
		return ci.du.Stats()
	case ci.si != nil:
		return ci.si.Stats()
	case ci.fe != nil:
		return ci.fe.Stats()
	default:
		return ci.rc.Stats()
	}
}

// SpaceBlocks returns the number of disk blocks in use.
func (ci *ClassIndex) SpaceBlocks() int64 {
	switch {
	case ci.du != nil:
		return ci.du.SpaceBlocks()
	case ci.si != nil:
		return ci.si.SpaceBlocks()
	case ci.fe != nil:
		return ci.fe.SpaceBlocks()
	default:
		return ci.rc.SpaceBlocks()
	}
}
