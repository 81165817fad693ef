// Package disk simulates a block-oriented secondary storage device with
// explicit I/O accounting.
//
// The paper's cost model (Kanellakis et al., JCSS 1996, Section 1.1) counts
// one I/O per page transferred between secondary storage and main memory,
// with all constants independent of n, c, t and B. Reproducing that model in
// Go requires making page transfers explicit: the garbage collector and CPU
// caches make wall-clock time a poor proxy for block I/O. Every structure in
// this repository therefore stores its pages in a Pager and the experiment
// harness reads the Pager's counters as the measured quantity.
//
// A page is a fixed-size byte slice. Read and Write each count as one I/O.
// Structures are free to keep O(B^2) records of working state in memory
// during an operation, mirroring the paper's assumption that at least
// O(B^2) units of main memory are available.
package disk

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// BlockID identifies a page on the simulated device. Zero is never a valid
// allocated block, so it can be used as a nil pointer in page layouts.
type BlockID int64

// NilBlock is the reserved "no block" identifier.
const NilBlock BlockID = 0

// Stats holds cumulative I/O counters for a device.
type Stats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Allocs int64 // pages allocated
	Frees  int64 // pages freed
	// Spared counts page reads a decoded cache above the store made
	// unnecessary (core's control cache). Stores always report 0; the
	// structure owning the cache fills it in on the way up.
	Spared int64
}

// IOs returns the number of I/O operations that reached the store
// (reads + writes).
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// ModelIOs returns the I/O count of the paper's cost model, in which every
// page a traversal consults costs one I/O whether or not a cache held it
// decoded: IOs plus the spared reads. On an unpooled store it is exactly
// what IOs would report with no cache above it.
func (s Stats) ModelIOs() int64 { return s.IOs() + s.Spared }

// Sub returns the counter difference s - t, useful for measuring one
// operation: take a snapshot before, subtract after.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
		Allocs: s.Allocs - t.Allocs,
		Frees:  s.Frees - t.Frees,
		Spared: s.Spared - t.Spared,
	}
}

// Add returns s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:  s.Reads + t.Reads,
		Writes: s.Writes + t.Writes,
		Allocs: s.Allocs + t.Allocs,
		Frees:  s.Frees + t.Frees,
		Spared: s.Spared + t.Spared,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d spared=%d", s.Reads, s.Writes, s.Allocs, s.Frees, s.Spared)
}

// Common pager errors.
var (
	ErrBadBlock   = errors.New("disk: block not allocated")
	ErrPageSize   = errors.New("disk: buffer size does not match page size")
	ErrFreedTwice = errors.New("disk: double free")
)

// ErrFreedTwce is a deprecated alias for ErrFreedTwice.
//
// Deprecated: the original name carried a typo; use ErrFreedTwice.
var ErrFreedTwce = ErrFreedTwice

// Device is the page I/O surface the index structures read and write
// through. *Pager implements it directly (every access is a device I/O);
// *Pool layers a buffer pool on top (hits are served from memory-resident
// frames and do not count as device I/Os).
//
// View returns a borrowed read-only view of the page, counting the same
// I/O as Read but without copying. The view is valid until Release(id) is
// called and must not be written to or retained afterwards; callers decode
// what they need and release promptly. On a *Pager, Release is a no-op and
// a view stays readable until the page is next written, freed, or
// reallocated; on a *Pool, View pins the frame and Release unpins it, so
// every View must be paired with exactly one Release.
type Device interface {
	PageSize() int
	Alloc() BlockID
	Read(id BlockID, buf []byte) error
	Write(id BlockID, buf []byte) error
	Free(id BlockID) error
	View(id BlockID) ([]byte, error)
	Release(id BlockID)
}

// MustView is View that panics on error, for blocks a structure allocated
// itself (failure indicates internal corruption).
func MustView(d Device, id BlockID) []byte {
	v, err := d.View(id)
	if err != nil {
		panic(err)
	}
	return v
}

// MustReadAt is Read through a Device that panics on error.
func MustReadAt(d Device, id BlockID, buf []byte) {
	if err := d.Read(id, buf); err != nil {
		panic(err)
	}
}

// MustWriteAt is Write through a Device that panics on error.
func MustWriteAt(d Device, id BlockID, buf []byte) {
	if err := d.Write(id, buf); err != nil {
		panic(err)
	}
}

// MustFreeAt is Free through a Device that panics on error.
func MustFreeAt(d Device, id BlockID) {
	if err := d.Free(id); err != nil {
		panic(err)
	}
}

// Pager is an in-memory simulation of a disk: a growable array of fixed-size
// pages plus a free list. Each index structure owns its own Pager (the
// experiment harness aggregates counters).
//
// Concurrency: the I/O counters are atomic, so any number of goroutines may
// Read concurrently (and snapshot Stats) as long as no goroutine is
// mutating the device (Write, Alloc, Free). Mutations require external
// serialization against both other mutations and readers — the shard
// serving layer provides it with a per-shard RWMutex.
type Pager struct {
	pageSize int
	pages    [][]byte
	live     []bool
	free     []BlockID

	reads, writes, allocs, frees atomic.Int64
}

// NewPager creates a device with the given page size in bytes.
// Page size must be positive.
func NewPager(pageSize int) *Pager {
	if pageSize <= 0 {
		panic("disk: page size must be positive")
	}
	return &Pager{
		pageSize: pageSize,
		pages:    make([][]byte, 1), // index 0 reserved for NilBlock
		live:     make([]bool, 1),
	}
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the cumulative I/O counters.
func (p *Pager) Stats() Stats {
	return Stats{
		Reads:  p.reads.Load(),
		Writes: p.writes.Load(),
		Allocs: p.allocs.Load(),
		Frees:  p.frees.Load(),
	}
}

// ResetStats zeroes the I/O counters (allocation state is unchanged).
func (p *Pager) ResetStats() {
	p.reads.Store(0)
	p.writes.Store(0)
	p.allocs.Store(0)
	p.frees.Store(0)
}

// Allocated reports the number of live pages, i.e. the structure's space
// usage in blocks. This is the quantity compared against the paper's O(n/B)
// space bounds.
func (p *Pager) Allocated() int64 {
	return p.allocs.Load() - p.frees.Load()
}

// NumPages returns the size of the page array (live or free), an upper
// bound on any chain of distinct blocks. Unlike the Stats counters it is
// not affected by ResetStats, so it is safe to build corruption guards on.
func (p *Pager) NumPages() int { return len(p.pages) }

// Alloc reserves a new zeroed page and returns its id. Allocation itself is
// not counted as an I/O (the page must still be written to contain data).
func (p *Pager) Alloc() BlockID {
	if misuseArmed.Load() {
		p.noteMutation("Alloc", NilBlock)
	}
	p.allocs.Add(1)
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		p.live[id] = true
		for i := range p.pages[id] {
			p.pages[id][i] = 0
		}
		return id
	}
	p.pages = append(p.pages, make([]byte, p.pageSize))
	p.live = append(p.live, true)
	return BlockID(len(p.pages) - 1)
}

func (p *Pager) check(id BlockID) error {
	if id <= 0 || int(id) >= len(p.pages) || !p.live[id] {
		return fmt.Errorf("%w: %d", ErrBadBlock, id)
	}
	return nil
}

// Check reports whether id names a live page (part of the Store interface).
func (p *Pager) Check(id BlockID) error { return p.check(id) }

// Read copies page id into buf (len(buf) must equal the page size) and
// counts one I/O.
func (p *Pager) Read(id BlockID, buf []byte) error {
	if err := p.check(id); err != nil {
		return err
	}
	if len(buf) != p.pageSize {
		return ErrPageSize
	}
	p.reads.Add(1)
	copy(buf, p.pages[id])
	return nil
}

// View returns a borrowed read-only view of page id and counts one I/O,
// exactly like Read but without the copy. The returned slice aliases the
// device's storage: it is valid until the page is next written, freed or
// reallocated, and must never be mutated. Concurrent Views are safe under
// the same conditions as concurrent Reads (no concurrent mutation).
func (p *Pager) View(id BlockID) ([]byte, error) {
	if err := p.check(id); err != nil {
		return nil, err
	}
	p.reads.Add(1)
	if misuseArmed.Load() {
		p.noteView(id)
	}
	return p.pages[id], nil
}

// Release returns a borrowed view. On a bare Pager it is a no-op (the view
// stays readable until the page is next mutated); it exists so that Pager
// and Pool satisfy the same Device interface. Under EnableMisuseChecks it
// additionally ends the view's registered borrow.
func (p *Pager) Release(id BlockID) {
	if misuseArmed.Load() {
		p.noteRelease(id)
	}
}

// Write copies buf into page id (len(buf) must equal the page size) and
// counts one I/O.
func (p *Pager) Write(id BlockID, buf []byte) error {
	if err := p.check(id); err != nil {
		return err
	}
	if len(buf) != p.pageSize {
		return ErrPageSize
	}
	if misuseArmed.Load() {
		p.noteMutation("Write", id)
	}
	p.writes.Add(1)
	copy(p.pages[id], buf)
	return nil
}

// Free releases a page back to the free list.
func (p *Pager) Free(id BlockID) error {
	if id <= 0 || int(id) >= len(p.pages) {
		return fmt.Errorf("%w: %d", ErrBadBlock, id)
	}
	if !p.live[id] {
		return fmt.Errorf("%w: %d", ErrFreedTwice, id)
	}
	if misuseArmed.Load() {
		p.noteMutation("Free", id)
	}
	p.live[id] = false
	p.free = append(p.free, id)
	p.frees.Add(1)
	return nil
}

// MustRead is Read that panics on error. Index structures use it for blocks
// they allocated themselves, where failure indicates internal corruption.
func (p *Pager) MustRead(id BlockID, buf []byte) {
	if err := p.Read(id, buf); err != nil {
		panic(err)
	}
}

// MustWrite is Write that panics on error.
func (p *Pager) MustWrite(id BlockID, buf []byte) {
	if err := p.Write(id, buf); err != nil {
		panic(err)
	}
}

// MustFree is Free that panics on error.
func (p *Pager) MustFree(id BlockID) {
	if err := p.Free(id); err != nil {
		panic(err)
	}
}
