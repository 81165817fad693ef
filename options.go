package ccidx

// Unified construction surface. The package grew four families of
// constructors (in-memory / durable-create / durable-open, each times
// unsharded / sharded, for intervals and classes); this file collapses them
// into three entry points per index kind, driven by one Options struct:
//
//	idx := ccidx.NewIndex(opts, ivs)          // in-memory
//	idx, err := ccidx.Create(dir, opts, ivs)  // durable, initial checkpoint
//	idx, err := ccidx.Open(dir, opts)         // reopen, kind auto-detected
//
// Options composes orthogonal concerns: B (block capacity), Durability
// (fsync/WAL policy), Sharding (nil = one manager), and Ingest (nil = the
// paper's amortized-rebuild tree; non-nil = log-structured memtable+runs).
// Open reads the directory's manifest and returns whichever concrete type
// was persisted there, so callers restart without re-stating the topology.
//
// The per-family constructors (NewIntervalManager, CreateShardedIntervalManager,
// OpenClassIndex, ...) remain as thin deprecated wrappers.

import (
	"fmt"

	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/intervals"
	"ccidx/internal/shard"
)

// IngestOptions switches an interval index into log-structured ingest mode:
// inserts and deletes land in a per-shard in-memory memtable (acknowledged
// at the same WAL boundary as the tree path — durability is unchanged) and
// background merges compact the memtable plus a logarithmic set of
// immutable on-disk runs. Queries fan in across memtable and runs with
// per-copy tombstone suppression and answer exactly what the single-tree
// path would.
type IngestOptions struct {
	// MemtableSize is the interval count at which the active memtable is
	// frozen and handed to the merger; <= 0 selects the default (4096).
	MemtableSize int
	// MaxRuns bounds the live run count: beyond it the two smallest runs
	// merge. <= 0 selects the default (8). Lower values favor reads (fewer
	// structures to fan in over), higher values favor writes (less merge
	// amplification) — experiment E25 maps the frontier.
	MaxRuns int
	// SyncCompaction runs flushes and merges on the mutating goroutine
	// instead of a background worker: deterministic, for tests and
	// single-threaded batch loads.
	SyncCompaction bool
}

func (o *IngestOptions) internal() *intervals.IngestConfig {
	if o == nil {
		return nil
	}
	return &intervals.IngestConfig{
		MemtableSize:   o.MemtableSize,
		MaxRuns:        o.MaxRuns,
		SyncCompaction: o.SyncCompaction,
	}
}

// ShardingOptions partitions the index across independent shards served
// concurrently (per-shard RWMutex, group commit, parallel query fan-out).
type ShardingOptions struct {
	// Shards is the shard count; values < 1 mean 1.
	Shards int
	// Batch is the group-commit threshold (values < 1 disable batching).
	Batch int
	// Partition selects hash or range partitioning.
	Partition Partition
	// Span is the key domain [0, Span) required by PartitionRange.
	Span int64
}

// Options configures an index built through NewIndex, Create or Open.
// The zero value is a valid in-memory, unsharded, amortized-rebuild tree
// with the default block capacity.
type Options struct {
	// B is the block capacity (records per page); <= 0 selects 16.
	B int
	// PoolFrames sizes the CLOCK buffer pool each manager reads and writes
	// through: 0 selects the default (shard.DefaultPoolFrames per shard),
	// negative disables pooling (the paper's bare cost model).
	PoolFrames int
	// Durability tunes fsync policy and write-ahead logging for durable
	// instances (ignored by NewIndex).
	Durability DurableOptions
	// Sharding, when non-nil, builds the concurrent sharded serving layer;
	// nil builds a single manager.
	Sharding *ShardingOptions
	// Ingest, when non-nil, selects log-structured ingest mode; nil selects
	// the amortized-rebuild tree.
	Ingest *IngestOptions
}

// defaultB mirrors the experiments' usual block capacity.
const defaultB = 16

func (o Options) b() int {
	if o.B <= 0 {
		return defaultB
	}
	return o.B
}

func (o Options) poolFrames() int {
	if o.PoolFrames < 0 {
		return 0
	}
	if o.PoolFrames == 0 {
		return shard.DefaultPoolFrames
	}
	return o.PoolFrames
}

func (o Options) intervalsConfig() intervals.Config {
	return intervals.Config{B: o.b(), Ingest: o.Ingest.internal()}
}

func (o Options) shardConfig() shard.Config {
	s := o.Sharding
	if s == nil {
		s = &ShardingOptions{}
	}
	return shard.Config{
		Shards: s.Shards, B: o.b(), Batch: s.Batch,
		Partition: s.Partition, Span: s.Span,
		PoolFrames: o.PoolFrames, Ingest: o.Ingest.internal(),
	}
}

// IngestStats is a point-in-time snapshot of the log-structured machinery
// (zeros for tree-mode indexes).
type IngestStats = intervals.IngestStats

// CtrlCacheStats snapshots the metablock trees' decoded control cache:
// lookups that hit and missed, and entries held (at most one per metablock).
type CtrlCacheStats = core.CtrlCacheStats

// Index is the unified interval-index surface: both IntervalManager and
// ShardedIntervalManager implement it, so serving code is written once and
// the topology is an Options decision.
type Index interface {
	// Insert adds an interval (ids must be unique among live intervals).
	Insert(iv Interval)
	// Delete removes the interval with the given id, reporting presence.
	Delete(id uint64) bool
	// Len returns the number of live intervals, pending ones included.
	Len() int
	// Stab reports every interval containing q, each exactly once.
	Stab(q int64, emit func(Interval) bool)
	// Intersect reports every interval intersecting q, each exactly once.
	Intersect(q Interval, emit func(Interval) bool)
	// StabBatch answers a batch of stabbing queries in shared traversals;
	// emit receives the batch position of the answered query.
	StabBatch(qs []int64, emit func(qi int, iv Interval) bool)
	// IntersectBatch is the batched Intersect.
	IntersectBatch(qs []Interval, emit func(qi int, iv Interval) bool)
	// Flush forces pending group-commit buffers into the index structures
	// and writes dirty pooled frames back to the devices.
	Flush()
	// Checkpoint makes a durable index crash-safe at one committed
	// generation; errors for in-memory instances.
	Checkpoint() error
	// Close closes a durable index's files without checkpointing; no-op in
	// memory.
	Close() error
	// Shards returns the shard count (1 for unsharded indexes).
	Shards() int
	// Rebuilds counts amortized global rebuilds (tree mode) or run
	// compactions (ingest mode) — the serving layer's storm indicator.
	Rebuilds() int
	// IngestStats snapshots the log-structured counters (zeros in tree mode).
	IngestStats() IngestStats
	// PoolStats sums buffer-pool hits and misses (zeros without pooling).
	PoolStats() (hits, misses int64)
	// CtrlCacheStats sums the decoded-control-cache counters over shards
	// and runs.
	CtrlCacheStats() CtrlCacheStats
	// Stats sums device I/O counters; its Spared field is the page reads
	// the control cache made unnecessary, so Stats().ModelIOs() is the
	// paper-model cost.
	Stats() Stats
	// SpaceBlocks sums live device pages.
	SpaceBlocks() int64
}

// Both topologies satisfy the unified surface.
var (
	_ Index = (*IntervalManager)(nil)
	_ Index = (*ShardedIntervalManager)(nil)
)

// NewIndex builds an in-memory interval index per opts: sharded when
// opts.Sharding is set, log-structured when opts.Ingest is set.
func NewIndex(opts Options, ivs []Interval) Index {
	if opts.Sharding != nil {
		return &ShardedIntervalManager{s: shard.NewIntervals(opts.shardConfig(), ivs)}
	}
	m := intervals.New(opts.intervalsConfig(), ivs)
	if f := opts.poolFrames(); f > 0 {
		m.AttachPool(f, 8)
	}
	return &IntervalManager{m: m}
}

// Create builds a DURABLE interval index under dir per opts and commits the
// initial checkpoint before returning. Reopen with Open — after a clean
// shutdown or a crash, which recovers the last committed generation plus
// (with the WAL on) every acknowledged mutation since.
func Create(dir string, opts Options, ivs []Interval) (Index, error) {
	if opts.Sharding != nil {
		s, err := shard.CreateIntervalsAt(dir, opts.shardConfig(), ivs, opts.Durability.intervals())
		if err != nil {
			return nil, err
		}
		return &ShardedIntervalManager{s: s}, nil
	}
	m, err := intervals.CreateAt(dir, opts.intervalsConfig(), ivs, opts.Durability.intervals())
	if err != nil {
		return nil, err
	}
	if f := opts.poolFrames(); f > 0 {
		m.AttachPool(f, 8)
	}
	return &IntervalManager{m: m}, nil
}

// Open reopens the interval index persisted under dir at its last committed
// checkpoint. The manifest supplies the topology (sharded or not, ingest
// mode, partitioning), so only opts.Durability and opts.PoolFrames are
// consulted — B, Sharding and Ingest are restored from disk.
func Open(dir string, opts Options) (Index, error) {
	mf, err := disk.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	switch mf.Kind {
	case "ccidx-sharded-intervals":
		s, err := shard.OpenIntervals(dir, opts.Durability.intervals())
		if err != nil {
			return nil, err
		}
		return &ShardedIntervalManager{s: s}, nil
	case "ccidx-intervals":
		m, err := intervals.OpenAt(dir, opts.Durability.intervals())
		if err != nil {
			return nil, err
		}
		if f := opts.poolFrames(); f > 0 {
			m.AttachPool(f, 8)
		}
		return &IntervalManager{m: m}, nil
	default:
		return nil, fmt.Errorf("ccidx: %s holds a %q checkpoint, not an interval index", dir, mf.Kind)
	}
}

// ClassStore is the unified class-index surface implemented by ClassIndex
// and ShardedClassIndex.
type ClassStore interface {
	// Insert adds an object with the given class name, attribute and id.
	Insert(class string, attr int64, id uint64)
	// Query reports every object in the FULL extent of the class whose
	// attribute lies in [a1, a2], each exactly once.
	Query(class string, a1, a2 int64, emit func(attr int64, id uint64) bool)
	// Flush forces pending group-commit buffers into the index structures.
	Flush()
	// Checkpoint makes a durable store crash-safe; errors in memory.
	Checkpoint() error
	// Close closes files without checkpointing; no-op in memory.
	Close() error
	// Shards returns the shard count (1 for unsharded stores).
	Shards() int
	// Hierarchy returns the frozen hierarchy the store serves.
	Hierarchy() *Hierarchy
	// Stats sums device I/O counters.
	Stats() Stats
	// SpaceBlocks sums live device pages.
	SpaceBlocks() int64
}

var (
	_ ClassStore = (*ClassIndex)(nil)
	_ ClassStore = (*ShardedClassIndex)(nil)
)

// NewClassStore builds an in-memory class store over a frozen hierarchy:
// sharded when opts.Sharding is set. opts.Ingest is an interval-index
// concern and is ignored here.
func NewClassStore(h *Hierarchy, opts Options, s Strategy) ClassStore {
	if opts.Sharding != nil {
		return NewShardedClassIndex(h, opts.classShardConfig(), s)
	}
	return NewClassIndex(h, Config{B: opts.b()}, s)
}

// CreateClassStore builds a DURABLE class store under dir and commits the
// initial (empty) checkpoint; the hierarchy is recorded in the manifest.
func CreateClassStore(h *Hierarchy, opts Options, s Strategy, dir string) (ClassStore, error) {
	if opts.Sharding != nil {
		return CreateShardedClassIndex(h, opts.classShardConfig(), s, dir, opts.Durability)
	}
	return CreateClassIndex(h, Config{B: opts.b()}, s, dir, opts.Durability)
}

// OpenClassStore reopens the class store persisted under dir, auto-detecting
// whether it is sharded; strategy, B and hierarchy come from the manifest.
func OpenClassStore(dir string, opts Options) (ClassStore, error) {
	mf, err := disk.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	switch mf.Kind {
	case "ccidx-sharded-classes":
		return OpenShardedClassIndex(dir, opts.Durability)
	case classIndexManifestKind:
		return OpenClassIndex(dir, opts.Durability)
	default:
		return nil, fmt.Errorf("ccidx: %s holds a %q checkpoint, not a class index", dir, mf.Kind)
	}
}

// classShardConfig is Options folded into the legacy ShardConfig shape the
// sharded class constructors take (class stores have no ingest mode).
func (o Options) classShardConfig() ShardConfig {
	s := o.Sharding
	if s == nil {
		s = &ShardingOptions{}
	}
	return ShardConfig{
		Shards: s.Shards, B: o.b(), Batch: s.Batch,
		Partition: s.Partition, Span: s.Span, PoolFrames: o.PoolFrames,
	}
}
