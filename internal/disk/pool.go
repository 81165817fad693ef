package disk

// Pool is a concurrent buffer pool layered over a Pager: a fixed budget of
// memory-resident page frames with CLOCK (second-chance) replacement,
// pin/unpin reference counting, and write-back of dirty frames: the layer
// the sharded serving stack reads through.
//
// Sharding. Frames are partitioned into nShards independent shards by a
// mix of the block id, each with its own mutex, frame table and clock hand.
// A View/Read/Write only takes its shard's lock, so concurrent queries on
// disjoint pages proceed without contention; the hit/miss counters are
// atomic and global.
//
// I/O accounting. A frame hit costs no device I/O; a miss costs one
// pager.Read; evicting a dirty frame costs one pager.Write at eviction (or
// Flush) time. The underlying Pager's counters therefore measure exactly
// the transfers that reached the device — the quantity the paper's cost
// model counts — while Hits/Misses measure how far the pool moved the
// constants.
//
// Pinning. View pins the frame and returns its data; the caller must
// Release exactly once when done decoding. Pinned frames are never evicted;
// if every frame of a shard is pinned when a miss needs a victim, the
// shard grows a temporary overflow frame instead of failing or corrupting
// a borrowed view (Overflows counts these), so the pool may transiently
// exceed its frame budget by at most the number of concurrently pinned
// frames. Pins nest (a frame's pin count may exceed one under concurrent
// readers).
//
// Concurrency contract. The pool serializes its own metadata. Frame DATA is
// only safe under the same discipline the structures already obey: writers
// to a given structure are externally serialized against readers (the
// shard layer's per-shard RWMutex provides it). Within that discipline all
// Pool methods are safe for concurrent use and -race clean.
import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errAllPinned is evict's report that every frame of a shard is pinned;
// the miss paths respond by growing an overflow frame, never by failing.
var errAllPinned = errors.New("disk: every buffer-pool frame is pinned")

// Pool is a sharded CLOCK buffer pool over a Store (the in-memory Pager or
// a file-backed FileDevice). Create with NewPool.
type Pool struct {
	base      Store
	shards    []poolShard
	mask      uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evicted   atomic.Int64
	overflows atomic.Int64
}

type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   []*frame
	index    map[BlockID]*frame
	hand     int
}

type frame struct {
	id    BlockID
	data  []byte
	pins  int
	ref   bool
	dirty bool
}

// NewPool creates a pool over p with the given total frame capacity spread
// across nShards internally locked shards. nShards is rounded up to a
// power of two, then shrunk until every lock shard owns at least four
// frames (a tiny budget gets a single shard), so the requested capacity is
// distributed exactly — never inflated — and no shard degenerates to a
// frame count smaller than a realistic pin working set. Frames are
// allocated lazily on first use.
func NewPool(base Store, capacity, nShards int) *Pool {
	if capacity <= 0 {
		panic("disk: pool capacity must be positive")
	}
	if nShards < 1 {
		nShards = 1
	}
	shards := 1
	for shards < nShards {
		shards <<= 1
	}
	const minFramesPerShard = 4
	for shards > 1 && capacity/shards < minFramesPerShard {
		shards >>= 1
	}
	per, extra := capacity/shards, capacity%shards
	pl := &Pool{base: base, shards: make([]poolShard, shards), mask: uint64(shards - 1)}
	for i := range pl.shards {
		pl.shards[i].capacity = per
		if i < extra {
			pl.shards[i].capacity++
		}
		pl.shards[i].index = make(map[BlockID]*frame, pl.shards[i].capacity)
	}
	return pl
}

// Base returns the underlying store (its counters hold the device I/Os).
func (pl *Pool) Base() Store { return pl.base }

// PageSize returns the page size in bytes.
func (pl *Pool) PageSize() int { return pl.base.PageSize() }

// Hits returns the number of frame hits (reads and writes served without
// device I/O).
func (pl *Pool) Hits() int64 { return pl.hits.Load() }

// Misses returns the number of read misses (each cost one device read).
func (pl *Pool) Misses() int64 { return pl.misses.Load() }

// Evictions returns the number of frames recycled by the clock.
func (pl *Pool) Evictions() int64 { return pl.evicted.Load() }

// Overflows returns how often a miss found every frame of its lock shard
// pinned and grew a temporary overflow frame instead of evicting; a
// persistently rising value means the frame budget is too small for the
// concurrent pin working set.
func (pl *Pool) Overflows() int64 { return pl.overflows.Load() }

func (pl *Pool) shard(id BlockID) *poolShard {
	return &pl.shards[mixPool(uint64(id))&pl.mask]
}

// mixPool is the splitmix64 finalizer, spreading sequential block ids
// uniformly across pool shards.
func mixPool(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// frameFor returns the (pinned) frame holding page id, faulting it in on a
// miss. load is false for full-page overwrites, which need no device read.
// Called with sh.mu held.
func (pl *Pool) frameFor(sh *poolShard, id BlockID, load bool) (*frame, error) {
	if f, ok := sh.index[id]; ok {
		f.pins++
		f.ref = true
		pl.hits.Add(1)
		return f, nil
	}
	var f *frame
	if len(sh.frames) < sh.capacity {
		f = &frame{data: make([]byte, pl.base.PageSize())}
		sh.frames = append(sh.frames, f)
	} else {
		var err error
		if f, err = pl.evict(sh); err != nil {
			if !errors.Is(err, errAllPinned) {
				return nil, err
			}
			// Every frame is pinned by concurrent readers: grow a temporary
			// overflow frame rather than failing the miss (pinned frames are
			// never evicted; query paths have no error channel). The clock
			// reuses it once pins drain, so the shard stays at most
			// max-concurrent-pins frames over budget.
			pl.overflows.Add(1)
			f = &frame{data: make([]byte, pl.base.PageSize())}
			sh.frames = append(sh.frames, f)
		}
	}
	if load {
		pl.misses.Add(1)
		if err := pl.base.Read(id, f.data); err != nil {
			// Leave the frame unused (id zero) rather than caching garbage.
			f.id = NilBlock
			return nil, err
		}
	}
	f.id = id
	f.pins = 1
	f.ref = true
	f.dirty = false
	sh.index[id] = f
	return f, nil
}

// evict runs the clock over sh and returns an unpinned victim, written back
// first if dirty. Called with sh.mu held.
func (pl *Pool) evict(sh *poolShard) (*frame, error) {
	// Two full sweeps: the first clears reference bits, the second takes the
	// first unpinned frame. If both fail, every frame is pinned.
	for pass := 0; pass < 2*len(sh.frames); pass++ {
		f := sh.frames[sh.hand]
		sh.hand = (sh.hand + 1) % len(sh.frames)
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := pl.base.Write(f.id, f.data); err != nil {
				return nil, err
			}
			f.dirty = false
		}
		delete(sh.index, f.id)
		pl.evicted.Add(1)
		return f, nil
	}
	return nil, errAllPinned
}

// View returns a pinned read-only view of page id: a hit serves the
// memory-resident frame with no device I/O, a miss faults the page in with
// one device read. The caller must Release(id) exactly once when done.
func (pl *Pool) View(id BlockID) ([]byte, error) {
	sh := pl.shard(id)
	sh.mu.Lock()
	f, err := pl.frameFor(sh, id, true)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// Release unpins the frame holding page id (paired with View).
func (pl *Pool) Release(id BlockID) {
	sh := pl.shard(id)
	sh.mu.Lock()
	f, ok := sh.index[id]
	if !ok || f.pins <= 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("disk: Release of unpinned page %d", id))
	}
	f.pins--
	sh.mu.Unlock()
}

// Read copies page id into buf through the pool.
func (pl *Pool) Read(id BlockID, buf []byte) error {
	if len(buf) != pl.base.PageSize() {
		return ErrPageSize
	}
	sh := pl.shard(id)
	sh.mu.Lock()
	f, err := pl.frameFor(sh, id, true)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	copy(buf, f.data)
	f.pins--
	sh.mu.Unlock()
	return nil
}

// Write stores buf into page id's frame (write-back: the device write is
// deferred to eviction or Flush). A full-page store needs no device read,
// so a Write miss faults in a frame without counting a read miss.
func (pl *Pool) Write(id BlockID, buf []byte) error {
	if len(buf) != pl.base.PageSize() {
		return ErrPageSize
	}
	if err := pl.base.Check(id); err != nil {
		return err
	}
	sh := pl.shard(id)
	sh.mu.Lock()
	f, err := pl.frameFor(sh, id, false)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	copy(f.data, buf)
	f.dirty = true
	f.pins--
	sh.mu.Unlock()
	return nil
}

// Alloc reserves a fresh page on the underlying device. Any stale frame for
// a reused block id is dropped (Free already invalidates, so this is a
// defensive no-op in normal operation).
func (pl *Pool) Alloc() BlockID {
	id := pl.base.Alloc()
	sh := pl.shard(id)
	sh.mu.Lock()
	if f, ok := sh.index[id]; ok {
		if f.pins > 0 {
			sh.mu.Unlock()
			panic(fmt.Sprintf("disk: Alloc reused page %d with a pinned stale frame", id))
		}
		f.id = NilBlock
		f.dirty = false
		delete(sh.index, id)
	}
	sh.mu.Unlock()
	return id
}

// Free invalidates the page's frame (dropping any dirty data — the page is
// gone) and releases the page on the device. Freeing a pinned page panics:
// a borrowed view would be left dangling.
func (pl *Pool) Free(id BlockID) error {
	sh := pl.shard(id)
	sh.mu.Lock()
	if f, ok := sh.index[id]; ok {
		if f.pins > 0 {
			sh.mu.Unlock()
			panic(fmt.Sprintf("disk: Free of pinned page %d", id))
		}
		f.id = NilBlock
		f.dirty = false
		delete(sh.index, id)
	}
	sh.mu.Unlock()
	return pl.base.Free(id)
}

// Flush writes every dirty frame back to the device, in frame order within
// each shard. Pinned frames are flushed too (their data is stable: writers
// are externally serialized).
func (pl *Pool) Flush() error {
	for i := range pl.shards {
		sh := &pl.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.id != NilBlock && f.dirty {
				if err := pl.base.Write(f.id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// PinCount returns the current pin count of page id's frame (0 when the
// page is not resident); tests assert pin balance with it.
func (pl *Pool) PinCount(id BlockID) int {
	sh := pl.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.index[id]; ok {
		return f.pins
	}
	return 0
}

// PinnedFrames returns the number of frames with a nonzero pin count;
// tests assert it returns to zero after every balanced View/Release pass.
func (pl *Pool) PinnedFrames() int {
	n := 0
	for i := range pl.shards {
		sh := &pl.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.id != NilBlock && f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Resident returns the number of pages currently held in frames.
func (pl *Pool) Resident() int {
	n := 0
	for i := range pl.shards {
		sh := &pl.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

var _ Device = (*Pager)(nil)
var _ Device = (*Pool)(nil)
