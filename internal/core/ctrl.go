package core

import (
	"sync"
	"sync/atomic"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// metaCtrl is the decoded control information of one metablock (the paper's
// "control information ... split values and pointers to its children,
// boundary values and points to the horizontal organization, etc.",
// Theorem 3.2 proof). It is serialized into a blob of O(1) pages.
type metaCtrl struct {
	count   int  // points stored in this metablock's organisations
	bb      bbox // bounding box of the stored points
	vblocks []chunkRef
	hblocks []chunkRef
	corner  *cornerIdx // nil when the box misses the diagonal (or disabled)

	children []childRef

	ts  tsInfo
	upd updInfo

	td *tdInfo // internal metablocks only
}

// chunkRef describes one B-record data page together with the bounding
// coordinates of its contents, so scans know where to stop without reading
// the page.
type chunkRef struct {
	id                     disk.BlockID
	n                      int
	minX, maxX, minY, maxY int64
}

// childRef is the parent-resident description of a child metablock: its
// control blob, x-partition range, stored bounding box and point counts.
type childRef struct {
	ctrl         disk.BlockID
	xlo, xhi     int64 // x-partition (subtree) range
	bb           bbox  // child's stored bounding box
	storedCount  int
	subtreeCount int64
}

// tsInfo is the TS(M) structure: a horizontal blocking of the B^2 points
// with the largest y values among those stored in M's left siblings
// (Fig 10), plus its size and bottom boundary.
type tsInfo struct {
	blocks  []chunkRef
	count   int
	bottomY int64 // min y in TS; meaningful when count > 0
}

// updInfo is an update block: at most B buffered records.
type updInfo struct {
	id    disk.BlockID
	count int
}

// tdInfo is the TD corner structure of an internal metablock (Section 3.2):
// the points recently placed in this metablock's children, organised as a
// corner structure for querying plus a raw entry list for rewrites, plus its
// own update block. Entry aux fields encode (slot, inU): the child index
// the point currently lives under and whether it still sits in that child's
// update block.
type tdInfo struct {
	entryBlocks []chunkRef
	count       int
	corner      *cornerIdx
	upd         updInfo
}

const (
	tdInUFlag = 1 << 16
)

func tdAux(slot int, inU bool) uint32 {
	a := uint32(slot)
	if inU {
		a |= tdInUFlag
	}
	return a
}

func tdSlot(aux uint32) int { return int(aux & 0xFFFF) }
func tdInU(aux uint32) bool { return aux&tdInUFlag != 0 }

// --- serialization ----------------------------------------------------------

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *encoder) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u8() uint8 {
	v := d.b[d.off]
	d.off++
	return v
}
func (d *decoder) u16() uint16 {
	v := uint16(d.b[d.off]) | uint16(d.b[d.off+1])<<8
	d.off += 2
	return v
}
func (d *decoder) u32() uint32 {
	v := le32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *decoder) u64() uint64 {
	v := le64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *decoder) i64() int64 { return int64(d.u64()) }

func encChunks(e *encoder, cs []chunkRef) {
	e.u16(uint16(len(cs)))
	for _, c := range cs {
		e.i64(int64(c.id))
		e.u16(uint16(c.n))
		e.i64(c.minX)
		e.i64(c.maxX)
		e.i64(c.minY)
		e.i64(c.maxY)
	}
}

func decChunks(d *decoder) []chunkRef {
	n := int(d.u16())
	cs := make([]chunkRef, n)
	for i := range cs {
		cs[i].id = disk.BlockID(d.i64())
		cs[i].n = int(d.u16())
		cs[i].minX = d.i64()
		cs[i].maxX = d.i64()
		cs[i].minY = d.i64()
		cs[i].maxY = d.i64()
	}
	return cs
}

func encBBox(e *encoder, b bbox) {
	if b.valid {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i64(b.minX)
	e.i64(b.maxX)
	e.i64(b.minY)
	e.i64(b.maxY)
}

func decBBox(d *decoder) bbox {
	var b bbox
	b.valid = d.u8() == 1
	b.minX = d.i64()
	b.maxX = d.i64()
	b.minY = d.i64()
	b.maxY = d.i64()
	return b
}

func encCorner(e *encoder, c *cornerIdx) {
	if c == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	encChunks(e, c.vblocks)
	e.u16(uint16(len(c.stars)))
	for _, s := range c.stars {
		e.i64(s.value)
		e.u32(uint32(s.count))
		encChunks(e, s.blocks)
	}
}

func decCorner(d *decoder) *cornerIdx {
	if d.u8() == 0 {
		return nil
	}
	c := &cornerIdx{vblocks: decChunks(d)}
	ns := int(d.u16())
	c.stars = make([]starEntry, ns)
	for i := range c.stars {
		c.stars[i].value = d.i64()
		c.stars[i].count = int(d.u32())
		c.stars[i].blocks = decChunks(d)
	}
	return c
}

func (t *Tree) encodeCtrl(m *metaCtrl) []byte {
	e := &encoder{}
	e.u32(uint32(m.count))
	encBBox(e, m.bb)
	encChunks(e, m.vblocks)
	encChunks(e, m.hblocks)
	encCorner(e, m.corner)

	e.u16(uint16(len(m.children)))
	for _, c := range m.children {
		e.i64(int64(c.ctrl))
		e.i64(c.xlo)
		e.i64(c.xhi)
		encBBox(e, c.bb)
		e.u32(uint32(c.storedCount))
		e.i64(c.subtreeCount)
	}

	encChunks(e, m.ts.blocks)
	e.u32(uint32(m.ts.count))
	e.i64(m.ts.bottomY)

	e.i64(int64(m.upd.id))
	e.u16(uint16(m.upd.count))

	if m.td == nil {
		e.u8(0)
	} else {
		e.u8(1)
		encChunks(e, m.td.entryBlocks)
		e.u32(uint32(m.td.count))
		encCorner(e, m.td.corner)
		e.i64(int64(m.td.upd.id))
		e.u16(uint16(m.td.upd.count))
	}
	return e.b
}

func (t *Tree) decodeCtrl(data []byte) *metaCtrl {
	d := &decoder{b: data}
	m := &metaCtrl{}
	m.count = int(d.u32())
	m.bb = decBBox(d)
	m.vblocks = decChunks(d)
	m.hblocks = decChunks(d)
	m.corner = decCorner(d)

	nc := int(d.u16())
	m.children = make([]childRef, nc)
	for i := range m.children {
		m.children[i].ctrl = disk.BlockID(d.i64())
		m.children[i].xlo = d.i64()
		m.children[i].xhi = d.i64()
		m.children[i].bb = decBBox(d)
		m.children[i].storedCount = int(d.u32())
		m.children[i].subtreeCount = d.i64()
	}

	m.ts.blocks = decChunks(d)
	m.ts.count = int(d.u32())
	m.ts.bottomY = d.i64()

	m.upd.id = disk.BlockID(d.i64())
	m.upd.count = int(d.u16())

	if d.u8() == 1 {
		m.td = &tdInfo{}
		m.td.entryBlocks = decChunks(d)
		m.td.count = int(d.u32())
		m.td.corner = decCorner(d)
		m.td.upd.id = disk.BlockID(d.i64())
		m.td.upd.count = int(d.u16())
	}
	return m
}

// loadCtrl reads and decodes a metablock's control blob into fresh
// allocations the caller owns; mutate paths use it because they edit the
// decoded ctrl and keep several alive across arbitrary restructuring. Query
// paths borrow the shared decoded copy from the control cache (ctrl).
func (t *Tree) loadCtrl(id disk.BlockID) *metaCtrl {
	return t.decodeCtrl(t.readBlob(id))
}

// --- decoded control cache --------------------------------------------------

// ctrlEntry is one cached control block, immutable once published and
// shared by concurrent queries. Queries never overlap a mutation, so an
// entry is never invalidated while borrowed: no per-entry lock or refcount.
type ctrlEntry struct {
	m     metaCtrl
	pages int64 // blob chain length: the reads a hit spares
}

// ctrlCache maps a control blob's head id to its decoded form. It is filled
// lazily by the first query to miss (concurrent fillers race benignly: both
// decode the same bytes, one copy wins) and invalidated by dropCtrl at the
// only two places a blob changes, rewriteBlob and freeBlob. Its size is
// bounded by the structure — one entry per metablock — not by a knob.
type ctrlCache struct {
	entries sync.Map // disk.BlockID -> *ctrlEntry
	n       atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	spared  atomic.Int64
}

// CtrlCacheStats is a snapshot of the decoded control cache: lookups that
// hit and missed, and the entries it holds (one per metablock at most). The
// pages the hits did not read are Stats().Spared.
type CtrlCacheStats struct {
	Hits, Misses, Entries int64
}

// Add returns s + o (aggregation over shards and runs).
func (s CtrlCacheStats) Add(o CtrlCacheStats) CtrlCacheStats {
	return CtrlCacheStats{s.Hits + o.Hits, s.Misses + o.Misses, s.Entries + o.Entries}
}

// CtrlCacheStats returns the control cache's counters.
func (t *Tree) CtrlCacheStats() CtrlCacheStats {
	c := &t.ctrls
	return CtrlCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.n.Load()}
}

// Stats returns the store's I/O counters with Spared filled in from the
// control cache, so Stats().ModelIOs() is the paper-model cost: what the
// same operations cost the store when every visit reads its blob.
func (t *Tree) Stats() disk.Stats {
	st := t.pager.Stats()
	st.Spared = t.ctrls.spared.Load()
	return st
}

// ResetStats zeroes the store's counters and the cache's (its entries stay).
func (t *Tree) ResetStats() {
	t.pager.ResetStats()
	t.ctrls.hits.Store(0)
	t.ctrls.misses.Store(0)
	t.ctrls.spared.Store(0)
}

// ctrl returns the decoded control block of the metablock at id for a query
// to borrow: read-only, valid until the next mutation. A hit costs no I/O
// and is accounted as the entry's page count in the spared counter; a miss
// reads and decodes the blob exactly as loadCtrl does and publishes it.
func (t *Tree) ctrl(id disk.BlockID) *metaCtrl {
	c := &t.ctrls
	if v, ok := c.entries.Load(id); ok {
		e := v.(*ctrlEntry)
		c.hits.Add(1)
		c.spared.Add(e.pages)
		return &e.m
	}
	data := t.readBlob(id)
	e := &ctrlEntry{m: *t.decodeCtrl(data), pages: int64(t.blobPages(len(data)))}
	c.misses.Add(1)
	if v, loaded := c.entries.LoadOrStore(id, e); loaded {
		return &v.(*ctrlEntry).m
	}
	c.n.Add(1)
	return &e.m
}

// dropCtrl invalidates the cached decode of the blob headed at id. Called
// before the blob's pages change, so a fault mid-rewrite cannot leave a
// stale entry behind; freeing also covers page-id reuse.
func (t *Tree) dropCtrl(id disk.BlockID) {
	if _, ok := t.ctrls.entries.LoadAndDelete(id); ok {
		t.ctrls.n.Add(-1)
	}
}

// DropCtrlCache empties the control cache (like a mutation, it must not
// overlap queries). Correctness never needs it — dropCtrl covers every blob
// change; E18 uses it to measure the uncached read path, tests to start cold.
func (t *Tree) DropCtrlCache() {
	t.ctrls.entries.Range(func(id, _ any) bool {
		t.dropCtrl(id.(disk.BlockID))
		return true
	})
}

// ctrlFrame is the recyclable per-visit child-classification scratch of the
// single-query path: alive across the recursion into children, hence one
// frame per visited node rather than shared. Frames come from the tree's
// sync.Pool (concurrent queries each get their own).
type ctrlFrame struct {
	classes   []childClass
	direct    []bool
	tsCovered []bool
}

func (t *Tree) getFrame() *ctrlFrame {
	if f, ok := t.frames.Get().(*ctrlFrame); ok {
		return f
	}
	return &ctrlFrame{}
}

func (t *Tree) putFrame(f *ctrlFrame) { t.frames.Put(f) }

// storeCtrl writes m's control blob, preserving the head id; when id is
// NilBlock a fresh blob is created and its head returned.
func (t *Tree) storeCtrl(id disk.BlockID, m *metaCtrl) disk.BlockID {
	return t.rewriteBlob(id, t.encodeCtrl(m))
}

// updPoints reads an update block's buffered records (empty when absent).
func (t *Tree) updRecs(u updInfo) []rec {
	if u.id == disk.NilBlock || u.count == 0 {
		return nil
	}
	rs := t.readRecBlock(u.id)
	return rs
}

// scanUpd streams an update block's buffered records without allocating
// (no I/O when the block is absent or empty, exactly like updRecs).
// Returns false if fn stopped the scan.
func (t *Tree) scanUpd(u updInfo, fn func(rec) bool) bool {
	if u.id == disk.NilBlock || u.count == 0 {
		return true
	}
	return t.scanRecs(u.id, fn)
}

// updPointsOnly reads an update block's buffered points.
func (t *Tree) updPoints(u updInfo) []geom.Point {
	rs := t.updRecs(u)
	pts := make([]geom.Point, len(rs))
	for i, r := range rs {
		pts[i] = r.pt
	}
	return pts
}
