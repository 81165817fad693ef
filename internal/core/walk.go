package core

import (
	"fmt"
	"reflect"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// Walk enumerates every live point in the tree (stored and buffered), in no
// particular order. TD entries are bookkeeping copies and are not emitted;
// tombstoned copies are filtered like the query path filters them.
func (t *Tree) Walk(emit geom.Emit) {
	if t.deadCount == 0 {
		t.walk(t.root, emit)
		return
	}
	suppressed := make(map[geom.Point]int)
	t.walk(t.root, func(p geom.Point) bool {
		if suppressed[p] < t.dead[p] {
			suppressed[p]++
			return true
		}
		return emit(p)
	})
}

func (t *Tree) walk(id disk.BlockID, emit geom.Emit) bool {
	m := t.loadCtrl(id)
	for _, hb := range m.hblocks {
		for _, p := range t.readPoints(hb.id) {
			if !emit(p) {
				return false
			}
		}
	}
	for _, p := range t.updPoints(m.upd) {
		if !emit(p) {
			return false
		}
	}
	for _, c := range m.children {
		if !t.walk(c.ctrl, emit) {
			return false
		}
	}
	return true
}

// CheckInvariants validates the structural invariants the algorithms rely
// on; tests call it after batches of operations. It returns an error
// describing the first violation found. Reads performed here are metered
// like any others, so measuring callers should snapshot stats around it.
func (t *Tree) CheckInvariants() error {
	cached := 0
	total, err := t.checkNode(t.root, &cached)
	if err != nil {
		return err
	}
	// Control-cache coherence, second half (checkNode did the first): no
	// entry outlives its metablock, or a reused page id would resurrect it.
	if n := t.ctrls.n.Load(); int64(cached) != n {
		return fmt.Errorf("core: control cache holds %d entries, %d of them for live metablocks", n, cached)
	}
	// The physical structure holds the live points plus the tombstoned
	// copies awaiting the next global rebuild.
	if total != t.n+t.deadCount {
		return fmt.Errorf("core: tree claims %d live + %d dead points, found %d", t.n, t.deadCount, total)
	}
	rm := t.loadCtrl(t.root)
	if rm.ts.count != 0 {
		return fmt.Errorf("core: root has a TS structure (%d points)", rm.ts.count)
	}
	return nil
}

// checkNode validates the metablock at id and returns its subtree point
// count, adding the subtree's cached control blocks to *cached.
func (t *Tree) checkNode(id disk.BlockID, cached *int) (int, error) {
	m := t.loadCtrl(id)
	cap2 := t.cap2()

	// Control-cache coherence: a cached decode equals a fresh one.
	if v, ok := t.ctrls.entries.Load(id); ok {
		*cached++
		e := v.(*ctrlEntry)
		if !reflect.DeepEqual(&e.m, m) || e.pages != int64(t.blobPages(len(t.encodeCtrl(m)))) {
			return 0, fmt.Errorf("core: node %d: cached control block is stale", id)
		}
	}

	stored := t.readStoredPoints(m)
	if len(stored) != m.count {
		return 0, fmt.Errorf("core: node %d: count %d but %d points in hblocks", id, m.count, len(stored))
	}
	if m.count > 2*cap2 {
		return 0, fmt.Errorf("core: node %d: %d stored points exceeds 2B^2=%d", id, m.count, 2*cap2)
	}
	var vcount int
	for _, vb := range m.vblocks {
		vcount += vb.n
		if vb.n > t.cfg.B {
			return 0, fmt.Errorf("core: node %d: vertical chunk with %d > B records", id, vb.n)
		}
	}
	if vcount != m.count {
		return 0, fmt.Errorf("core: node %d: vertical org has %d points, want %d", id, vcount, m.count)
	}
	bb := bboxOf(stored)
	if bb != m.bb {
		return 0, fmt.Errorf("core: node %d: stale bbox %+v vs %+v", id, m.bb, bb)
	}
	for _, p := range stored {
		if !p.AboveDiagonal() {
			return 0, fmt.Errorf("core: node %d: stored point %v below diagonal", id, p)
		}
	}
	// Corner structure present whenever the box meets the diagonal.
	if !t.cfg.DisableCorner && m.bb.meetsDiagonal() && m.corner == nil {
		return 0, fmt.Errorf("core: node %d: bbox meets diagonal but no corner structure", id)
	}
	// Corner structure space bound (Lemma 3.1 charging argument).
	if m.corner != nil {
		if sp := m.corner.starPoints(); sp > 3*len(stored)+t.cfg.B {
			return 0, fmt.Errorf("core: node %d: corner structure stores %d star points for %d input points", id, sp, len(stored))
		}
	}
	if m.upd.count > t.cfg.B {
		return 0, fmt.Errorf("core: node %d: update block has %d > B points", id, m.upd.count)
	}

	if len(m.children) == 0 {
		if m.td != nil && (m.td.count > 0 || m.td.upd.count > 0) {
			return 0, fmt.Errorf("core: leaf %d has TD entries", id)
		}
		return m.count + m.upd.count, nil
	}

	if len(m.children) >= 2*t.cfg.B {
		return 0, fmt.Errorf("core: node %d: branching factor %d >= 2B", id, len(m.children))
	}

	// TD entries, indexed by slot, split into buffered and merged copies.
	tdEntries := t.readTDEntries(m)
	if m.td != nil {
		tdEntries = append(tdEntries, t.updRecs(m.td.upd)...)
	}
	tdBuffered := map[int]map[geom.Point]int{}
	tdMerged := map[int]map[geom.Point]int{}
	addTo := func(dst map[int]map[geom.Point]int, slot int, p geom.Point) {
		if dst[slot] == nil {
			dst[slot] = map[geom.Point]int{}
		}
		dst[slot][p]++
	}
	for _, r := range tdEntries {
		if tdInU(r.aux) {
			addTo(tdBuffered, tdSlot(r.aux), r.pt)
		} else {
			addTo(tdMerged, tdSlot(r.aux), r.pt)
		}
	}

	total := m.count + m.upd.count
	var leftStored []geom.Point // stored points of children 0..i-1
	leftMultiset := map[geom.Point]int{}
	prevHi := int64(-1 << 63)
	for i, c := range m.children {
		if c.xlo > c.xhi {
			return 0, fmt.Errorf("core: node %d child %d: inverted partition [%d,%d]", id, i, c.xlo, c.xhi)
		}
		if c.xlo < prevHi {
			return 0, fmt.Errorf("core: node %d child %d: partition overlaps previous (xlo %d < prev xhi %d)", id, i, c.xlo, prevHi)
		}
		prevHi = c.xhi
		cm := t.loadCtrl(c.ctrl)
		if cm.count != c.storedCount {
			return 0, fmt.Errorf("core: node %d child %d: cached storedCount %d, actual %d", id, i, c.storedCount, cm.count)
		}
		if cm.bb != c.bb {
			return 0, fmt.Errorf("core: node %d child %d: cached bbox stale", id, i)
		}
		// Every buffered child point must be covered by this node's TD
		// (that is what lets the query skip children safely, Lemma 3.5).
		for _, p := range t.updPoints(cm.upd) {
			if tdBuffered[i][p] == 0 {
				return 0, fmt.Errorf("core: node %d child %d: buffered point %v not in TD", id, i, p)
			}
			tdBuffered[i][p]--
		}
		cs := t.readStoredPoints(cm)

		// TS coverage (the condition the TS-covered query mode relies on):
		// the TS points are genuine left-sibling stored points, and every
		// current left-sibling stored point above the TS bottom boundary
		// is either in TS or registered in TD as merged-after-build.
		if cm.ts.count > 0 || len(leftStored) > 0 {
			tsPts := map[geom.Point]int{}
			tsTotal := 0
			for _, b := range cm.ts.blocks {
				for _, p := range t.readPoints(b.id) {
					tsPts[p]++
					tsTotal++
				}
			}
			if tsTotal != cm.ts.count {
				return 0, fmt.Errorf("core: node %d child %d: TS count %d but %d points in blocks", id, i, cm.ts.count, tsTotal)
			}
			for p, k := range tsPts {
				if leftMultiset[p] < k {
					return 0, fmt.Errorf("core: node %d child %d: TS point %v not stored in a left sibling", id, i, p)
				}
			}
			if cm.ts.count > 0 {
				seen := map[geom.Point]int{}
				for _, p := range leftStored {
					if p.Y <= cm.ts.bottomY {
						continue
					}
					seen[p]++
					if seen[p] <= tsPts[p] {
						continue
					}
					// Must be TD-covered as a merged point of some left
					// slot (a single TD entry legitimately covers the TS
					// checks of every right sibling).
					covered := false
					for j := 0; j < i; j++ {
						if tdMerged[j][p] > 0 {
							covered = true
							break
						}
					}
					if !covered {
						return 0, fmt.Errorf("core: node %d child %d: stored point %v above TS bottom %d missing from TS and TD", id, i, p, cm.ts.bottomY)
					}
				}
			}
		}

		sub, err := t.checkNode(c.ctrl, cached)
		if err != nil {
			return 0, err
		}
		if int64(sub) != c.subtreeCount {
			return 0, fmt.Errorf("core: node %d child %d: cached subtreeCount %d, actual %d", id, i, c.subtreeCount, sub)
		}
		total += sub
		leftStored = append(leftStored, cs...)
		for _, p := range cs {
			leftMultiset[p]++
		}
	}
	for slot, ms := range tdBuffered {
		for p, k := range ms {
			if k > 0 {
				return 0, fmt.Errorf("core: node %d: TD claims %d extra buffered copies of %v in slot %d", id, k, p, slot)
			}
		}
	}
	return total, nil
}
