package core

import (
	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// Diagonal corner query (Theorem 3.2, procedure diagonal-query of Fig 15,
// augmented per Lemma 3.5 for the semi-dynamic structure).
//
// A metablock falls into one of the four types of Fig 16 according to how
// its stored bounding box interacts with the query boundary (corner at
// (a,a), region x <= a, y >= a):
//
//	Type I   crossed by the vertical side only  -> vertical-blocking scan
//	Type II  contains the corner                -> corner structure
//	Type III entirely inside                    -> dump all blocks
//	Type IV  crossed by the horizontal side only-> horizontal scan, top down
//
// Children left of the descent path are handled with the TS structures: if
// TS(Mr) of the rightmost Type IV child reaches below the query bottom, the
// sibling stored points inside the query are exactly the TS prefix above it
// (read top-down, one pass); otherwise the siblings are guaranteed to hold
// at least B^2 answers and are examined individually, the per-sibling
// wasted block amortized against that output (Fig 17).
//
// Dynamic state is folded in per Lemma 3.5: every metablock's update block
// is reported through the TD corner structure of its parent (which also
// covers points merged into a child's stored set after the last TS
// rebuild), so TS reads never miss buffered points and direct visits never
// double-report them. The root's own update block is scanned directly.

// DiagonalQuery reports every stored point p with p.X <= a and p.Y >= a.
// Enumeration stops early if emit returns false.
// Cost: O(log_B n + t/B) I/Os (Theorem 3.2 / Lemma 3.5).
//
// The query path reads data pages exclusively through zero-copy views and
// borrows control blocks already decoded from the control cache, so a
// steady-state query performs only a handful of small allocations
// regardless of answer size.
func (t *Tree) DiagonalQuery(a int64, emit geom.Emit) {
	st := &qstate{a: a, emit: emit}
	if t.deadCount > 0 {
		st.dead = t.dead
	}
	st.offerFn = st.offer
	st.offerRec = func(r rec) bool { return st.offer(r.pt) }
	st.offerYFn = func(p geom.Point) bool {
		if p.Y >= st.a {
			return st.offer(p)
		}
		return true
	}
	m := t.ctrl(t.root)
	// The root's update block has no parent TD to report it.
	if t.scanUpd(m.upd, st.offerRec) {
		t.visitLoaded(m, st, true)
	}
}

// Stab is DiagonalQuery under the interval reading: report every point
// (lo, hi) with lo <= q <= hi (Proposition 2.2).
func (t *Tree) Stab(q int64, emit geom.Emit) { t.DiagonalQuery(q, emit) }

type qstate struct {
	a       int64
	emit    geom.Emit
	stopped bool

	// dead is the tree's tombstone directory, nil when no weak deletes are
	// pending (the common case: the filter then costs one nil check).
	// suppressed counts, per point, the copies this query has already hidden,
	// so a point with both live and dead copies still reports its live ones.
	dead       map[geom.Point]int
	suppressed map[geom.Point]int

	// offerFn/offerRec/offerYFn are the bound forms of offer, built once
	// per query so hot scan loops don't materialize a new closure per page.
	// offerYFn additionally filters to p.Y >= a (the TS-prefix scan).
	offerFn  geom.Emit
	offerRec func(rec) bool
	offerYFn geom.Emit

	// scanDone is grouped-scan bookkeeping of the batched query path
	// (querybatch.go): within one shared top-down blocking scan it records
	// that this query's sequential scan would already have stopped. Unused
	// by single-query paths.
	scanDone bool
}

// offer forwards a point if it satisfies the query; returns false when
// enumeration must stop. Tombstoned copies are filtered here — the single
// funnel every organisation (blockings, corner, TS, TD) reports through —
// so weak deletes cost queries no extra block reads.
func (st *qstate) offer(p geom.Point) bool {
	if st.stopped {
		return false
	}
	if p.X <= st.a && p.Y >= st.a {
		if st.dead != nil {
			if d := st.dead[p]; d > 0 {
				if st.suppressed == nil {
					st.suppressed = make(map[geom.Point]int)
				}
				if st.suppressed[p] < d {
					st.suppressed[p]++
					return true
				}
			}
		}
		if !st.emit(p) {
			st.stopped = true
			return false
		}
	}
	return true
}

// visit loads and processes one metablock. reportStored is false when the
// metablock's stored points were already reported from a TS structure.
func (t *Tree) visit(id disk.BlockID, st *qstate, reportStored bool) {
	if st.stopped {
		return
	}
	t.visitLoaded(t.ctrl(id), st, reportStored)
}

func (t *Tree) visitLoaded(m *metaCtrl, st *qstate, reportStored bool) {
	if st.stopped {
		return
	}
	if reportStored {
		t.reportStored(m, st)
		if st.stopped {
			return
		}
	}
	if len(m.children) == 0 {
		return
	}
	t.processChildren(m, st)
}

// reportStored emits m's stored points that lie inside the query, choosing
// the organisation dictated by the metablock's type.
func (t *Tree) reportStored(m *metaCtrl, st *qstate) {
	a := st.a
	if m.count == 0 || !m.bb.valid || m.bb.minX > a || m.bb.maxY < a {
		return
	}
	switch {
	case m.bb.minY >= a && m.bb.maxX <= a:
		// Type III: entirely inside; dump everything.
		for _, hb := range m.hblocks {
			if !t.scanPoints(hb.id, st.offerFn) {
				return
			}
		}
	case m.bb.minY >= a:
		// Type I: all stored points are above the query line; scan the
		// vertical blocking left to right, at most one partial block.
		for _, vb := range m.vblocks {
			if vb.minX > a {
				break
			}
			if !t.scanPoints(vb.id, st.offerFn) {
				return
			}
		}
	case m.bb.maxX <= a:
		// Type IV: all stored points are left of the corner; scan the
		// horizontal blocking top-down, at most one partial block.
		for _, hb := range m.hblocks {
			if hb.maxY < a {
				break
			}
			if !t.scanPoints(hb.id, st.offerFn) {
				return
			}
			if hb.minY < a {
				break
			}
		}
	default:
		// Type II: the box straddles both query sides, so it contains the
		// corner (a,a) and carries a corner structure (Lemma 3.1) unless
		// corner structures are disabled for ablation.
		if m.corner != nil {
			t.queryCorner(m.corner, a, st.offerRec)
			return
		}
		// Ablation fallback: vertical scan with up to Theta(B) wasted
		// blocks (every block can straddle y = a).
		for _, vb := range m.vblocks {
			if vb.minX > a {
				break
			}
			if vb.maxY < a {
				continue
			}
			if !t.scanPoints(vb.id, st.offerFn) {
				return
			}
		}
	}
}

// childClass is the Fig 16 classification of a child relative to the query.
type childClass int

const (
	classSkip     childClass = iota // subtree entirely right of or below the query
	classPath                       // x-partition contains the corner column
	classInside                     // stored box entirely inside (Type III)
	classStraddle                   // stored box crossed by the bottom (Type IV)
)

func classify(c childRef, a int64) childClass {
	if c.xlo > a {
		return classSkip
	}
	if a < c.xhi { // xlo <= a < xhi
		return classPath
	}
	// Entirely left of the corner column.
	if !c.bb.valid || c.bb.maxY < a {
		// Stored below the line; descendants are lower still (their points
		// fell past this child when its stored minimum was already >= the
		// current one), and buffered points are covered by this node's TD.
		return classSkip
	}
	if c.bb.minY >= a {
		return classInside
	}
	return classStraddle
}

// boolsFor returns dst resized to n elements, zeroed, reusing capacity.
func boolsFor(dst []bool, n int) []bool {
	if cap(dst) >= n {
		dst = dst[:n]
		clear(dst)
		return dst
	}
	return make([]bool, n)
}

// processChildren implements the per-level sibling handling of Theorem 3.2
// plus the TD consultation of Lemma 3.5. The per-node classification
// scratch lives in a frame of its own, which stays valid across recursion
// into children because each nested visit takes another.
func (t *Tree) processChildren(m *metaCtrl, st *qstate) {
	f := t.getFrame()
	defer t.putFrame(f)
	a := st.a
	f.classes = classesFor(f.classes, len(m.children))
	classes := f.classes
	rightmostIV := -1
	for i, c := range m.children {
		classes[i] = classify(c, a)
		if classes[i] == classStraddle {
			rightmostIV = i
		}
	}

	// direct[i] records that child i's stored points are reported by a
	// direct visit (so TD must only add its buffered points); TS-covered
	// and skipped children get their recent arrivals from TD instead.
	f.direct = boolsFor(f.direct, len(m.children))
	direct := f.direct

	// tsCovered[i] marks left siblings whose stored points came from TS.
	f.tsCovered = boolsFor(f.tsCovered, len(m.children))
	tsCovered := f.tsCovered

	if rightmostIV >= 0 && !t.cfg.DisableTS {
		mrCtrl := t.ctrl(m.children[rightmostIV].ctrl)
		// Report Mr itself directly (one partial block at most).
		direct[rightmostIV] = true
		t.reportStored(mrCtrl, st)
		if st.stopped {
			return
		}
		// Decide how to treat Mr's left siblings using TS(Mr).
		totalLeft := 0
		for i := 0; i < rightmostIV; i++ {
			totalLeft += m.children[i].storedCount
		}
		covers := totalLeft == 0 ||
			(mrCtrl.ts.count > 0 && (mrCtrl.ts.bottomY < a || mrCtrl.ts.count == totalLeft))
		if covers {
			// One pass over TS top-down reports every left-sibling stored
			// point inside the query (left siblings lie entirely left of
			// the corner, so only the y filter applies).
			for _, hb := range mrCtrl.ts.blocks {
				if hb.maxY < a {
					break
				}
				if !t.scanPoints(hb.id, st.offerYFn) {
					return
				}
				if hb.minY < a {
					break
				}
			}
			for i := 0; i < rightmostIV; i++ {
				tsCovered[i] = true
			}
			// Fully-inside left siblings still carry deeper answers:
			// recurse without re-reporting their stored points.
			for i := 0; i < rightmostIV; i++ {
				if classes[i] == classInside {
					t.visit(m.children[i].ctrl, st, false)
					if st.stopped {
						return
					}
				}
			}
		} else {
			// TS guarantees at least B^2 sibling answers: examine each
			// sibling individually, the waste amortized against them.
			for i := 0; i < rightmostIV; i++ {
				t.processFullChild(m.children[i], classes[i], direct, i, st)
				if st.stopped {
					return
				}
			}
		}
		// Children right of Mr but left of the path (inside or skip only).
		for i := rightmostIV + 1; i < len(m.children); i++ {
			if classes[i] == classPath {
				break
			}
			t.processFullChild(m.children[i], classes[i], direct, i, st)
			if st.stopped {
				return
			}
		}
	} else {
		// No Type IV children (or TS disabled): process every non-path
		// child individually.
		for i, c := range m.children {
			if classes[i] == classPath {
				continue
			}
			t.processFullChild(c, classes[i], direct, i, st)
			if st.stopped {
				return
			}
		}
	}

	// Descend the path.
	for i, c := range m.children {
		if classes[i] == classPath {
			direct[i] = true
			t.visit(c.ctrl, st, true)
			if st.stopped {
				return
			}
		}
	}

	// TD consultation (Lemma 3.5): report buffered and recently merged
	// points of the children. For directly visited children only their
	// still-buffered points are new; for everything else the whole TD entry
	// applies.
	if m.td != nil {
		emitTD := func(r rec) bool {
			slot := tdSlot(r.aux)
			if slot < len(direct) && direct[slot] && !tdInU(r.aux) {
				return true // already reported from the child's stored set
			}
			return st.offer(r.pt)
		}
		if m.td.corner != nil {
			if !t.queryCorner(m.td.corner, a, emitTD) {
				return
			}
		}
		if !t.scanUpd(m.td.upd, emitTD) {
			return
		}
	}
}

// processFullChild handles one fully-left child individually: inside
// children are visited (their whole stored set is inside the query);
// straddling children get a horizontal top-down scan; skipped children cost
// nothing.
func (t *Tree) processFullChild(c childRef, cl childClass, direct []bool, idx int, st *qstate) {
	switch cl {
	case classInside:
		direct[idx] = true
		t.visit(c.ctrl, st, true)
	case classStraddle:
		direct[idx] = true
		t.reportStored(t.ctrl(c.ctrl), st)
		// Descendants of a straddling child lie below the query line.
	case classSkip:
		// Nothing: stored and descendants below the line or right of the
		// corner; buffered arrivals are covered by the parent's TD.
	}
}
