// Package bptree implements an external-memory B+-tree over a simulated
// disk, the reference structure for external dynamic one-dimensional range
// searching (Section 1.1 of the paper):
//
//   - space O(n/B) pages,
//   - range search O(log_B n + t/B) I/Os,
//   - insert and delete O(log_B n) I/Os.
//
// Keys are int64 and may repeat; entries are made unique by the composite
// order (key, rid), and internal separators store the full composite so
// duplicates spanning leaves are located exactly. Data records live only in
// the leaves, which are chained left to right so a range scan streams t
// results in O(t/B) page reads (the B+-tree property the paper highlights
// versus plain B-trees).
package bptree

import (
	"cmp"
	"fmt"

	"ccidx/internal/disk"
)

// Entry is one indexed record: a key, a record identifier, and an
// uninterpreted payload value (Val). Entries are identified by (Key, RID);
// Val rides along (the interval manager stores the second endpoint there,
// the class-indexing baselines a class position).
type Entry struct {
	Key int64
	RID uint64
	Val uint64
}

// sameKR reports whether two entries denote the same record (Key, RID),
// ignoring the payload.
func sameKR(a, b Entry) bool { return a.Key == b.Key && a.RID == b.RID }

// Less orders entries by (Key, RID).
func Less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.RID < b.RID
}

// Compare is Less as a three-way comparison, for slices.SortFunc.
func Compare(a, b Entry) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.RID, b.RID)
}

const (
	kindLeaf     = 1
	kindInternal = 2

	leafHeader     = 1 + 2 + 8 // kind, count, next
	internalHeader = 1 + 2     // kind, count
	entrySize      = 24        // key + rid + val
	sepSize        = 16        // composite separator (key + rid)
	childSize      = 8
)

// Tree is an external B+-tree.
//
// Concurrency: mutations (Insert, Delete, BulkLoad) require external
// serialization; queries (Contains, Range, All) may run concurrently with
// each other — they only read pages through borrowed views.
type Tree struct {
	store    disk.Store
	dev      disk.Device // page I/O surface; the store, or a pool over it
	b        int         // max entries per leaf
	maxSeps  int         // max separators per internal node (fanout-1)
	root     disk.BlockID
	height   int // number of levels; 1 = root is a leaf
	n        int // total entries
	pageSize int

	// wbuf is the reusable page-encode scratch (mutate paths only).
	wbuf []byte
}

// PageSize returns the page size in bytes used for leaf capacity b.
func PageSize(b int) int {
	if b < 4 {
		b = 4
	}
	return leafHeader + b*entrySize
}

// New creates an empty tree with at most b entries per leaf on a fresh
// in-memory pager. The internal fanout is derived from the same page size.
func New(b int) *Tree {
	if b < 4 {
		panic("bptree: branching factor must be at least 4")
	}
	return NewOn(disk.NewPager(PageSize(b)), b)
}

// NewOn creates an empty tree with at most b entries per leaf on the given
// store — an in-memory pager or a file-backed device — whose page size must
// be exactly PageSize(b).
func NewOn(store disk.Store, b int) *Tree {
	t := skeletonOn(store, b)
	root := &node{leaf: true}
	t.root = t.writeNode(disk.NilBlock, root)
	t.height = 1
	return t
}

func skeletonOn(store disk.Store, b int) *Tree {
	if b < 4 {
		panic("bptree: branching factor must be at least 4")
	}
	ps := PageSize(b)
	if store.PageSize() != ps {
		panic(fmt.Sprintf("bptree: store page size %d, want %d for b=%d", store.PageSize(), ps, b))
	}
	t := &Tree{
		store:    store,
		b:        b,
		maxSeps:  (ps - internalHeader - childSize) / (sepSize + childSize),
		pageSize: ps,
	}
	t.dev = t.store
	return t
}

// Pager exposes the underlying store for I/O accounting.
func (t *Tree) Pager() disk.Store { return t.store }

// SetDevice routes all page I/O through d — typically a *disk.Pool over
// Pager(). Call before sharing the tree between goroutines.
func (t *Tree) SetDevice(d disk.Device) { t.dev = d }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.n }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// B returns the leaf capacity.
func (t *Tree) B() int { return t.b }

// node is the decoded form of a page. For internal nodes, child i holds
// entries e with seps[i-1] <= e < seps[i] in (key, rid) order (with the
// obvious conventions at the ends).
type node struct {
	leaf     bool
	entries  []Entry        // leaf payload
	seps     []Entry        // internal separators
	children []disk.BlockID // internal children, len = len(seps)+1
	next     disk.BlockID   // leaf chain
}

func (t *Tree) readNode(id disk.BlockID) *node {
	view := disk.MustView(t.dev, id)
	nd := decodeNode(view)
	t.dev.Release(id)
	return nd
}

func decodeNode(buf []byte) *node {
	kind := buf[0]
	cnt := int(uint16(buf[1]) | uint16(buf[2])<<8)
	nd := &node{}
	switch kind {
	case kindLeaf:
		nd.leaf = true
		nd.next = disk.BlockID(int64(le64(buf[3:])))
		off := leafHeader
		nd.entries = make([]Entry, cnt)
		for i := 0; i < cnt; i++ {
			nd.entries[i] = Entry{
				Key: int64(le64(buf[off:])),
				RID: le64(buf[off+8:]),
				Val: le64(buf[off+16:]),
			}
			off += entrySize
		}
	case kindInternal:
		off := internalHeader
		nd.seps = make([]Entry, cnt)
		for i := 0; i < cnt; i++ {
			nd.seps[i] = Entry{Key: int64(le64(buf[off:])), RID: le64(buf[off+8:])}
			off += sepSize
		}
		nd.children = make([]disk.BlockID, cnt+1)
		for i := 0; i <= cnt; i++ {
			nd.children[i] = disk.BlockID(int64(le64(buf[off:])))
			off += childSize
		}
	default:
		panic(fmt.Sprintf("bptree: corrupt page kind %d", kind))
	}
	return nd
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

// writeNode encodes nd into page id, allocating a page when id is nil.
// It returns the page id used.
func (t *Tree) writeNode(id disk.BlockID, nd *node) disk.BlockID {
	if id == disk.NilBlock {
		id = t.dev.Alloc()
	}
	if t.wbuf == nil {
		t.wbuf = make([]byte, t.pageSize)
	} else {
		clear(t.wbuf)
	}
	buf := t.wbuf
	if nd.leaf {
		buf[0] = kindLeaf
		cnt := len(nd.entries)
		buf[1] = byte(cnt)
		buf[2] = byte(cnt >> 8)
		putLE64(buf[3:], uint64(int64(nd.next)))
		off := leafHeader
		for _, e := range nd.entries {
			putLE64(buf[off:], uint64(e.Key))
			putLE64(buf[off+8:], e.RID)
			putLE64(buf[off+16:], e.Val)
			off += entrySize
		}
	} else {
		buf[0] = kindInternal
		cnt := len(nd.seps)
		buf[1] = byte(cnt)
		buf[2] = byte(cnt >> 8)
		off := internalHeader
		for _, s := range nd.seps {
			putLE64(buf[off:], uint64(s.Key))
			putLE64(buf[off+8:], s.RID)
			off += sepSize
		}
		for _, c := range nd.children {
			putLE64(buf[off:], uint64(int64(c)))
			off += childSize
		}
	}
	disk.MustWriteAt(t.dev, id, buf)
	return id
}

// childIndex returns the child to descend into for entry e: the first child
// whose separator is greater than e.
func childIndex(seps []Entry, e Entry) int {
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if Less(e, seps[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert adds (key, rid) with a zero payload. Duplicate (key, rid) pairs
// are ignored; the return value reports whether the entry was newly added.
func (t *Tree) Insert(key int64, rid uint64) bool {
	return t.InsertEntry(Entry{Key: key, RID: rid})
}

// InsertEntry adds e, identified by (Key, RID). An existing entry with the
// same identity keeps its payload; the return value reports whether the
// entry was newly added.
func (t *Tree) InsertEntry(e Entry) bool {
	added, split := t.insertAt(t.root, e)
	if split != nil {
		nr := &node{
			seps:     []Entry{split.sep},
			children: []disk.BlockID{t.root, split.right},
		}
		t.root = t.writeNode(disk.NilBlock, nr)
		t.height++
	}
	if added {
		t.n++
	}
	return added
}

// splitResult describes a child split that must be recorded in the parent.
type splitResult struct {
	sep   Entry // first entry of right node's subtree
	right disk.BlockID
}

func (t *Tree) insertAt(id disk.BlockID, e Entry) (bool, *splitResult) {
	nd := t.readNode(id)
	if nd.leaf {
		pos := lowerBound(nd.entries, e)
		if pos < len(nd.entries) && sameKR(nd.entries[pos], e) {
			return false, nil // duplicate
		}
		nd.entries = append(nd.entries, Entry{})
		copy(nd.entries[pos+1:], nd.entries[pos:])
		nd.entries[pos] = e
		if len(nd.entries) <= t.b {
			t.writeNode(id, nd)
			return true, nil
		}
		// Split leaf.
		mid := len(nd.entries) / 2
		right := &node{leaf: true, entries: append([]Entry(nil), nd.entries[mid:]...), next: nd.next}
		nd.entries = nd.entries[:mid]
		rid := t.writeNode(disk.NilBlock, right)
		nd.next = rid
		t.writeNode(id, nd)
		return true, &splitResult{sep: right.entries[0], right: rid}
	}
	ci := childIndex(nd.seps, e)
	added, split := t.insertAt(nd.children[ci], e)
	if split == nil {
		return added, nil
	}
	nd.seps = append(nd.seps, Entry{})
	copy(nd.seps[ci+1:], nd.seps[ci:])
	nd.seps[ci] = split.sep
	nd.children = append(nd.children, disk.NilBlock)
	copy(nd.children[ci+2:], nd.children[ci+1:])
	nd.children[ci+1] = split.right
	if len(nd.seps) <= t.maxSeps {
		t.writeNode(id, nd)
		return added, nil
	}
	// Split internal node: middle separator moves up.
	mid := len(nd.seps) / 2
	upSep := nd.seps[mid]
	right := &node{
		seps:     append([]Entry(nil), nd.seps[mid+1:]...),
		children: append([]disk.BlockID(nil), nd.children[mid+1:]...),
	}
	nd.seps = nd.seps[:mid]
	nd.children = nd.children[:mid+1]
	ridBlock := t.writeNode(disk.NilBlock, right)
	t.writeNode(id, nd)
	return added, &splitResult{sep: upSep, right: ridBlock}
}

func lowerBound(es []Entry, e Entry) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if Less(es[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes (key, rid), returning whether it was present. Underfull
// nodes are rebalanced by borrowing from or merging with a sibling, keeping
// the O(log_B n) bound.
func (t *Tree) Delete(key int64, rid uint64) bool {
	e := Entry{Key: key, RID: rid}
	removed, _ := t.deleteAt(t.root, e)
	if removed {
		t.n--
	}
	if t.height > 1 {
		nd := t.readNode(t.root)
		if !nd.leaf && len(nd.seps) == 0 {
			old := t.root
			t.root = nd.children[0]
			disk.MustFreeAt(t.dev, old)
			t.height--
		}
	}
	return removed
}

// deleteAt removes e from the subtree rooted at id. The second return value
// reports whether the node at id became underfull.
func (t *Tree) deleteAt(id disk.BlockID, e Entry) (bool, bool) {
	nd := t.readNode(id)
	if nd.leaf {
		pos := lowerBound(nd.entries, e)
		if pos >= len(nd.entries) || !sameKR(nd.entries[pos], e) {
			return false, false
		}
		nd.entries = append(nd.entries[:pos], nd.entries[pos+1:]...)
		t.writeNode(id, nd)
		return true, len(nd.entries) < t.minLeaf()
	}
	ci := childIndex(nd.seps, e)
	removed, under := t.deleteAt(nd.children[ci], e)
	if !removed {
		return false, false
	}
	if under {
		t.rebalance(id, nd, ci)
		nd = t.readNode(id)
	}
	return true, len(nd.seps) < t.minSeps()
}

func (t *Tree) minLeaf() int { return t.b / 2 }
func (t *Tree) minSeps() int { return t.maxSeps / 2 }

// rebalance fixes the underfull child at index ci of parent nd (page id).
func (t *Tree) rebalance(id disk.BlockID, nd *node, ci int) {
	childID := nd.children[ci]
	child := t.readNode(childID)
	if ci > 0 {
		leftID := nd.children[ci-1]
		left := t.readNode(leftID)
		if t.canLend(left) {
			t.borrowFromLeft(nd, ci, left, child)
			t.writeNode(leftID, left)
			t.writeNode(childID, child)
			t.writeNode(id, nd)
			return
		}
		t.merge(nd, ci-1, left, child)
		t.writeNode(leftID, left)
		disk.MustFreeAt(t.dev, childID)
		t.writeNode(id, nd)
		return
	}
	rightID := nd.children[ci+1]
	right := t.readNode(rightID)
	if t.canLend(right) {
		t.borrowFromRight(nd, ci, child, right)
		t.writeNode(childID, child)
		t.writeNode(rightID, right)
		t.writeNode(id, nd)
		return
	}
	t.merge(nd, ci, child, right)
	t.writeNode(childID, child)
	disk.MustFreeAt(t.dev, rightID)
	t.writeNode(id, nd)
}

func (t *Tree) canLend(nd *node) bool {
	if nd.leaf {
		return len(nd.entries) > t.minLeaf()
	}
	return len(nd.seps) > t.minSeps()
}

func (t *Tree) borrowFromLeft(parent *node, ci int, left, child *node) {
	if child.leaf {
		last := left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		child.entries = append([]Entry{last}, child.entries...)
		parent.seps[ci-1] = child.entries[0]
		return
	}
	sep := parent.seps[ci-1]
	lastSep := left.seps[len(left.seps)-1]
	lastChild := left.children[len(left.children)-1]
	left.seps = left.seps[:len(left.seps)-1]
	left.children = left.children[:len(left.children)-1]
	child.seps = append([]Entry{sep}, child.seps...)
	child.children = append([]disk.BlockID{lastChild}, child.children...)
	parent.seps[ci-1] = lastSep
}

func (t *Tree) borrowFromRight(parent *node, ci int, child, right *node) {
	if child.leaf {
		first := right.entries[0]
		right.entries = right.entries[1:]
		child.entries = append(child.entries, first)
		parent.seps[ci] = right.entries[0]
		return
	}
	sep := parent.seps[ci]
	firstSep := right.seps[0]
	firstChild := right.children[0]
	right.seps = right.seps[1:]
	right.children = right.children[1:]
	child.seps = append(child.seps, sep)
	child.children = append(child.children, firstChild)
	parent.seps[ci] = firstSep
}

// merge folds the child at index ci+1 into the child at index ci and drops
// separator ci from the parent.
func (t *Tree) merge(parent *node, ci int, left, right *node) {
	if left.leaf {
		left.entries = append(left.entries, right.entries...)
		left.next = right.next
	} else {
		left.seps = append(left.seps, parent.seps[ci])
		left.seps = append(left.seps, right.seps...)
		left.children = append(left.children, right.children...)
	}
	parent.seps = append(parent.seps[:ci], parent.seps[ci+1:]...)
	parent.children = append(parent.children[:ci+1], parent.children[ci+2:]...)
}

// viewSep decodes separator i of an internal-node view.
func viewSep(view []byte, i int) Entry {
	off := internalHeader + i*sepSize
	return Entry{Key: int64(le64(view[off:])), RID: le64(view[off+8:])}
}

// viewChild decodes child pointer i of an internal-node view with cnt
// separators.
func viewChild(view []byte, cnt, i int) disk.BlockID {
	off := internalHeader + cnt*sepSize + i*childSize
	return disk.BlockID(int64(le64(view[off:])))
}

// descendTo walks from the root to the leaf that would hold e, reading
// each of the height-1 internal nodes through a borrowed view (one I/O
// apiece, exactly like the decoded descent), and returns the leaf id
// unread so the caller pays the leaf's single I/O itself.
func (t *Tree) descendTo(e Entry) disk.BlockID {
	id := t.root
	for level := 1; level < t.height; level++ {
		view := disk.MustView(t.dev, id)
		cnt := int(uint16(view[1]) | uint16(view[2])<<8)
		// childIndex, inlined over the view.
		lo, hi := 0, cnt
		for lo < hi {
			mid := (lo + hi) / 2
			if Less(e, viewSep(view, mid)) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		next := viewChild(view, cnt, lo)
		t.dev.Release(id)
		id = next
	}
	return id
}

// Contains reports whether (key, rid) is present, in O(log_B n) I/Os and
// without allocating.
func (t *Tree) Contains(key int64, rid uint64) bool {
	e := Entry{Key: key, RID: rid}
	id := t.descendTo(e)
	view := disk.MustView(t.dev, id)
	cnt := int(uint16(view[1]) | uint16(view[2])<<8)
	found := false
	for i, off := 0, leafHeader; i < cnt; i, off = i+1, off+entrySize {
		k := int64(le64(view[off:]))
		r := le64(view[off+8:])
		if k > key || (k == key && r >= rid) {
			found = k == key && r == rid
			break
		}
	}
	t.dev.Release(id)
	return found
}

// Range reports every entry with lo <= key <= hi in (key, rid) order,
// in O(log_B n + t/B) I/Os. Enumeration stops early if emit returns false.
// Leaves are streamed through borrowed views, so the scan allocates
// nothing regardless of result size.
func (t *Tree) Range(lo, hi int64, emit func(Entry) bool) {
	if lo > hi {
		return
	}
	id := t.descendTo(Entry{Key: lo, RID: 0})
	for id != disk.NilBlock {
		view := disk.MustView(t.dev, id)
		cnt := int(uint16(view[1]) | uint16(view[2])<<8)
		next := disk.BlockID(int64(le64(view[3:])))
		for i, off := 0, leafHeader; i < cnt; i, off = i+1, off+entrySize {
			key := int64(le64(view[off:]))
			if key < lo {
				continue
			}
			if key > hi {
				t.dev.Release(id)
				return
			}
			e := Entry{Key: key, RID: le64(view[off+8:]), Val: le64(view[off+16:])}
			if !emit(e) {
				t.dev.Release(id)
				return
			}
		}
		t.dev.Release(id)
		id = next
	}
}

// All reports every entry in order.
func (t *Tree) All(emit func(Entry) bool) {
	if t.n == 0 {
		return
	}
	var min, max int64 = -1 << 63, 1<<63 - 1
	t.Range(min, max, emit)
}

// Min returns the smallest entry, or ok=false when the tree is empty.
func (t *Tree) Min() (Entry, bool) {
	var out Entry
	ok := false
	t.All(func(e Entry) bool {
		out, ok = e, true
		return false
	})
	return out, ok
}

// Fill is a bulk load's page-fill policy.
type Fill int

const (
	// FillSlack leaves about a quarter of every leaf and internal node
	// free, so a tree that takes inserts absorbs them without splitting at
	// once.
	FillSlack Fill = iota
	// FillFull packs every page to capacity, for a tree that is never
	// modified after the load.
	FillFull
)

// caps returns the entries per leaf and children per internal node a bulk
// load under policy f packs at most.
func (t *Tree) caps(f Fill) (leaf, fanout int) {
	if f == FillFull {
		return t.b, t.maxSeps + 1
	}
	return min(t.b*3/4+1, t.b), min(t.maxSeps*3/4+2, t.maxSeps+1)
}

// groups returns how many nearly equal groups of at most size items n items
// split into; an empty input still makes one (empty) group.
func groups(n, size int) int { return max(1, (n+size-1)/size) }

// BulkLoad builds a tree on store, whose page size must be PageSize(b),
// from entries sorted by (key, rid); duplicate entries are kept once. It is
// the O(n/B) construction of the interval manager's endpoint tree.
//
// The layout is planned before anything is written: each level is cut into
// ceil(len/cap) nearly equal groups (so no node is left with a lone child
// or a near-empty tail), and every leaf id is allocated before the first
// leaf is written, so each leaf carries its next pointer from the start.
// The build reads no page and writes every page it allocates exactly once,
// leaves first, then each internal level bottom-up.
func BulkLoad(store disk.Store, b int, entries []Entry, fill Fill) *Tree {
	t := skeletonOn(store, b)
	entries = dedupSorted(entries)
	t.n = len(entries)
	leafCap, fanout := t.caps(fill)

	type built struct {
		id    disk.BlockID
		first Entry
	}
	level := make([]built, groups(len(entries), leafCap))
	for i := range level {
		level[i].id = t.dev.Alloc()
	}
	for i := range level {
		lo, hi := i*len(entries)/len(level), (i+1)*len(entries)/len(level)
		leaf := node{leaf: true, entries: entries[lo:hi], next: disk.NilBlock}
		if i+1 < len(level) {
			leaf.next = level[i+1].id
		}
		t.writeNode(level[i].id, &leaf)
		if lo < hi {
			level[i].first = entries[lo]
		}
	}
	t.height = 1
	var nd node
	for len(level) > 1 {
		next := make([]built, groups(len(level), fanout))
		for i := range next {
			lo, hi := i*len(level)/len(next), (i+1)*len(level)/len(next)
			nd.seps, nd.children = nd.seps[:0], nd.children[:0]
			for k := lo; k < hi; k++ {
				if k > lo {
					nd.seps = append(nd.seps, level[k].first)
				}
				nd.children = append(nd.children, level[k].id)
			}
			next[i] = built{id: t.writeNode(disk.NilBlock, &nd), first: level[lo].first}
		}
		level = next
		t.height++
	}
	t.root = level[0].id
	return t
}

// dedupSorted returns entries without repeated (key, rid) pairs, copying
// only when there is one to drop; it panics when entries is not sorted.
func dedupSorted(entries []Entry) []Entry {
	var out []Entry // nil until a duplicate forces a copy
	for i := 1; i < len(entries); i++ {
		e, prev := entries[i], entries[i-1]
		if Less(e, prev) {
			panic("bptree: BulkLoad input not sorted")
		}
		switch {
		case !sameKR(e, prev):
			if out != nil {
				out = append(out, e)
			}
		case out == nil:
			out = append(make([]Entry, 0, len(entries)-1), entries[:i]...)
		}
	}
	if out == nil {
		return entries
	}
	return out
}
