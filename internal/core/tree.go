// Package core implements the metablock tree, the central data structure of
// Kanellakis, Ramaswamy, Vengroff and Vitter, "Indexing for Data Models with
// Constraints and Classes" (Section 3).
//
// The metablock tree stores n points in the half plane y >= x and answers
// diagonal corner queries — report every point with x <= a and y >= a, the
// query to which external dynamic interval management reduces (Proposition
// 2.2) — with the following worst-case guarantees:
//
//   - space O(n/B) disk blocks (Theorem 3.2, Lemma 3.4),
//   - query O(log_B n + t/B) I/Os (Theorems 3.2 and 3.7, optimal by
//     Proposition 3.3),
//   - amortized insert O(log_B n + (log_B n)^2/B) I/Os (Theorem 3.7).
//
// Structure (Section 3.1, Figs 8-10): a B-ary tree of metablocks, each
// holding up to B^2 points (2B^2 transiently while dynamic). A metablock
// stores its points twice, in B-point blocks blocked vertically (by x) and
// horizontally (by decreasing y); metablocks whose bounding box meets the
// diagonal also carry the corner structure of Lemma 3.1 (corner.go). Each
// metablock M additionally stores TS(M), the B^2 highest-y points among the
// points stored in M's left siblings, which lets a query decide in O(1)
// blocks whether a run of "Type IV" siblings is worth examining one by one.
//
// Dynamization (Section 3.2, Fig 19): inserts are buffered in per-metablock
// update blocks (level-I reorganisation every B inserts rebuilds the block
// organisations), metablocks split when they reach 2B^2 points (level-II
// reorganisation pushes the bottom half into the children), every internal
// metablock maintains a TD corner structure over the points recently placed
// in its children (rebuilding all the children's TS structures when TD
// reaches B^2 points), and a subtree is rebuilt when a branching factor
// reaches 2B. All reorganisation costs are amortized exactly as in the
// paper's Lemma 3.6.
package core

import (
	"fmt"
	"sync"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// recSize is the on-disk record slot: x, y (int64), id (uint64),
// aux (uint32, used by TD entries), pad to 32 bytes.
const recSize = 32

// pageHeaderSize precedes the record slots in every data page.
const pageHeaderSize = 16

// Config collects the tunable parameters of a metablock tree.
type Config struct {
	// B is the block capacity in records. Metablocks hold up to B^2 points
	// (2B^2 transiently). Must be at least 4.
	B int
	// DisableTS turns off the TS structures (ablation experiment E13): the
	// query then examines every Type IV sibling individually, which breaks
	// the amortization the paper proves in Theorem 3.2.
	DisableTS bool
	// DisableCorner turns off corner structures (ablation experiment E14):
	// Type II metablocks fall back to a vertical-blocking scan whose waste
	// is Theta(B) blocks in the worst case instead of O(1 + t/B).
	DisableCorner bool
}

// PageSize returns the page size in bytes implied by cfg.
func (cfg Config) PageSize() int { return pageHeaderSize + cfg.B*recSize }

// Tree is a metablock tree.
//
// Concurrency: mutations (New, Insert, Delete) require external
// serialization, but any number of goroutines may run queries
// (DiagonalQuery, Stab, Walk) concurrently as long as no mutation is in
// flight — query paths only read pages, consult the (then-immutable)
// tombstone directory, and use no shared mutable scratch. The shard serving
// layer provides exactly this discipline with a per-shard RWMutex.
type Tree struct {
	cfg   Config
	pager disk.Store
	dev   disk.Device  // page I/O surface; the store, or a pool over it
	root  disk.BlockID // control blob of the root metablock
	n     int          // LIVE points (physical copies = n + deadCount)

	// Weak-delete state (delete.go). mult is the in-memory directory of the
	// physical point multiset (live + tombstoned copies); dead counts the
	// tombstoned copies per point and deadCount their total. Directories
	// cost no block I/O, matching the update-maintenance schemes the
	// deletion design follows; an external version would be a B-tree at
	// O(log_B n) I/Os per op without changing the amortized bound.
	mult      map[geom.Point]int
	dead      map[geom.Point]int
	deadCount int
	rebuilds  int

	// wbuf is the reusable page-encode scratch for mutate paths (exclusive
	// by the concurrency contract above; never touched by queries).
	wbuf []byte
	// ctrls is the decoded control cache the query paths borrow from
	// (ctrl.go); frames recycles their per-visit classification scratch.
	ctrls  ctrlCache
	frames sync.Pool
	// bscratch recycles the per-node routing scratch of batched queries
	// (querybatch.go), the batch counterpart of frames.
	bscratch sync.Pool
}

// New builds a metablock tree over pts (which must all satisfy y >= x) with
// the static O((n/B) log_B n) construction of Section 3.1. The slice is
// copied. Points may be inserted afterwards (Section 3.2).
func New(cfg Config, pts []geom.Point) *Tree {
	return NewOn(cfg, disk.NewPager(cfg.PageSize()), pts)
}

// NewOn is New over a caller-provided store — an in-memory pager or a
// file-backed device — whose page size must be exactly cfg.PageSize().
func NewOn(cfg Config, store disk.Store, pts []geom.Point) *Tree {
	for _, p := range pts {
		if !p.AboveDiagonal() {
			panic(fmt.Sprintf("core: point %v below the diagonal y=x", p))
		}
	}
	t := skeletonOn(cfg, store)
	t.n = len(pts)
	own := append([]geom.Point(nil), pts...)
	for _, p := range own {
		t.mult[p]++
	}
	geom.SortByX(own)
	t.root = t.buildMetablock(own, true)
	return t
}

func skeletonOn(cfg Config, store disk.Store) *Tree {
	if cfg.B < 4 {
		panic("core: B must be at least 4")
	}
	if store.PageSize() != cfg.PageSize() {
		panic(fmt.Sprintf("core: store page size %d, want %d for B=%d",
			store.PageSize(), cfg.PageSize(), cfg.B))
	}
	t := &Tree{cfg: cfg, pager: store, mult: make(map[geom.Point]int)}
	t.dev = t.pager
	return t
}

// Pager exposes the underlying store for I/O accounting.
func (t *Tree) Pager() disk.Store { return t.pager }

// SetDevice routes all page I/O through d — typically a *disk.Pool over
// Pager() — so pool hits stop costing device I/Os. Call before sharing the
// tree between goroutines; the pager's counters keep measuring the
// transfers that actually reach the device.
func (t *Tree) SetDevice(d disk.Device) { t.dev = d }

// Len returns the number of points stored.
func (t *Tree) Len() int { return t.n }

// B returns the block capacity.
func (t *Tree) B() int { return t.cfg.B }

// cap2 is the nominal metablock capacity B^2.
func (t *Tree) cap2() int { return t.cfg.B * t.cfg.B }

// rec is the decoded record slot.
type rec struct {
	pt  geom.Point
	aux uint32
}

// --- data pages -----------------------------------------------------------

// wpage returns the zeroed reusable page-encode scratch (mutate paths only).
func (t *Tree) wpage() []byte {
	if t.wbuf == nil {
		t.wbuf = make([]byte, t.cfg.PageSize())
	} else {
		clear(t.wbuf)
	}
	return t.wbuf
}

// writeRecBlock writes up to B records into a fresh page and returns its id.
func (t *Tree) writeRecBlock(rs []rec) disk.BlockID {
	if len(rs) > t.cfg.B {
		panic("core: record block overflow")
	}
	id := t.dev.Alloc()
	t.putRecBlock(id, rs)
	return id
}

// putRecBlock overwrites page id with rs.
func (t *Tree) putRecBlock(id disk.BlockID, rs []rec) {
	buf := t.wpage()
	buf[0] = byte(len(rs))
	buf[1] = byte(len(rs) >> 8)
	off := pageHeaderSize
	for _, r := range rs {
		putLE64(buf[off:], uint64(r.pt.X))
		putLE64(buf[off+8:], uint64(r.pt.Y))
		putLE64(buf[off+16:], r.pt.ID)
		putLE32(buf[off+24:], r.aux)
		off += recSize
	}
	disk.MustWriteAt(t.dev, id, buf)
}

// readRecBlock reads a record page into a fresh slice; mutate paths and
// invariant checks use it. Hot query loops use scanRecs/scanPoints instead.
func (t *Tree) readRecBlock(id disk.BlockID) []rec {
	var rs []rec
	t.scanRecs(id, func(r rec) bool {
		rs = append(rs, r)
		return true
	})
	return rs
}

// decodeRec decodes the record at byte offset off of a page view.
func decodeRec(view []byte, off int) rec {
	return rec{
		pt: geom.Point{
			X:  int64(le64(view[off:])),
			Y:  int64(le64(view[off+8:])),
			ID: le64(view[off+16:]),
		},
		aux: le32(view[off+24:]),
	}
}

// scanRecs streams the records of page id to fn through a borrowed
// zero-copy view (one I/O, no allocation). It returns false if fn stopped
// the scan early; the page is still charged exactly one read either way.
func (t *Tree) scanRecs(id disk.BlockID, fn func(rec) bool) bool {
	view := disk.MustView(t.dev, id)
	cnt := int(uint16(view[0]) | uint16(view[1])<<8)
	ok := true
	for i, off := 0, pageHeaderSize; i < cnt; i, off = i+1, off+recSize {
		if !fn(decodeRec(view, off)) {
			ok = false
			break
		}
	}
	t.dev.Release(id)
	return ok
}

// scanPoints is scanRecs restricted to the point payload.
func (t *Tree) scanPoints(id disk.BlockID, fn geom.Emit) bool {
	view := disk.MustView(t.dev, id)
	cnt := int(uint16(view[0]) | uint16(view[1])<<8)
	ok := true
	for i, off := 0, pageHeaderSize; i < cnt; i, off = i+1, off+recSize {
		p := geom.Point{
			X:  int64(le64(view[off:])),
			Y:  int64(le64(view[off+8:])),
			ID: le64(view[off+16:]),
		}
		if !fn(p) {
			ok = false
			break
		}
	}
	t.dev.Release(id)
	return ok
}

// writePointBlocks chunks pts into B-point pages preserving order and
// returns one chunkRef per page with the chunk's bounding coordinates.
func (t *Tree) writePointBlocks(pts []geom.Point) []chunkRef {
	var refs []chunkRef
	for i := 0; i < len(pts); i += t.cfg.B {
		j := i + t.cfg.B
		if j > len(pts) {
			j = len(pts)
		}
		chunk := pts[i:j]
		rs := make([]rec, len(chunk))
		bb := newBBox()
		for k, p := range chunk {
			rs[k] = rec{pt: p}
			bb.add(p)
		}
		refs = append(refs, chunkRef{
			id: t.writeRecBlock(rs), n: len(chunk),
			minX: bb.minX, maxX: bb.maxX, minY: bb.minY, maxY: bb.maxY,
		})
	}
	return refs
}

// readPoints reads a chunk page as points.
func (t *Tree) readPoints(id disk.BlockID) []geom.Point {
	rs := t.readRecBlock(id)
	pts := make([]geom.Point, len(rs))
	for i, r := range rs {
		pts[i] = r.pt
	}
	return pts
}

// freeChunks releases a chunk list.
func (t *Tree) freeChunks(refs []chunkRef) {
	for _, c := range refs {
		disk.MustFreeAt(t.dev, c.id)
	}
}

// --- little-endian helpers -------------------------------------------------

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

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// --- bounding boxes ---------------------------------------------------------

type bbox struct {
	minX, maxX, minY, maxY int64
	valid                  bool
}

func newBBox() bbox {
	return bbox{minX: 1<<63 - 1, maxX: -1 << 63, minY: 1<<63 - 1, maxY: -1 << 63}
}

func (b *bbox) add(p geom.Point) {
	if p.X < b.minX {
		b.minX = p.X
	}
	if p.X > b.maxX {
		b.maxX = p.X
	}
	if p.Y < b.minY {
		b.minY = p.Y
	}
	if p.Y > b.maxY {
		b.maxY = p.Y
	}
	b.valid = true
}

func bboxOf(pts []geom.Point) bbox {
	bb := newBBox()
	for _, p := range pts {
		bb.add(p)
	}
	return bb
}

// meetsDiagonal reports whether the box contains a point of the line y = x,
// the condition under which a metablock can contain the corner of a query
// and therefore needs a corner structure.
func (b bbox) meetsDiagonal() bool {
	if !b.valid {
		return false
	}
	lo := b.minX
	if b.minY > lo {
		lo = b.minY
	}
	hi := b.maxX
	if b.maxY < hi {
		hi = b.maxY
	}
	return lo <= hi
}

// containsCorner reports whether the query corner (a, a) lies in the box.
func (b bbox) containsCorner(a int64) bool {
	return b.valid && b.minX <= a && a <= b.maxX && b.minY <= a && a <= b.maxY
}
