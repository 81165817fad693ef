package core

import (
	"sort"

	"ccidx/internal/geom"
)

// Batched diagonal corner queries: a sorted batch of query values descends
// the metablock tree in ONE shared traversal. The amortizations, layer by
// layer:
//
//   - every metablock's control block on the union of search paths is
//     looked up once per batch (the batch is split across children and
//     each child is visited once with its sub-batch);
//   - every data page of a block organisation (vertical/horizontal
//     blockings, TS prefixes, corner-structure blocks, update blocks) is
//     scanned once per batch for the whole group of queries that need it,
//     with each record demultiplexed through the per-query offer funnels;
//   - update-block and TD consultations happen once per metablock per
//     batch instead of once per query.
//
// Correctness invariant: per metablock, each query is assigned exactly ONE
// organisation of the stored points (the same one reportStored would pick),
// so sharing a page scan can never double-report — and pages a query's
// sequential scan would have skipped contain no points satisfying its
// predicate (blockings are bound-ordered), so the offer funnel's predicate
// check makes over-scanning invisible to results. Per-query tombstone
// suppression and early emit-stop live in the per-query qstate exactly as
// in the sequential path; result multisets per query are identical, only
// the emission interleaving across queries differs.

// EmitBatch receives results of a batched query: qi is the position in the
// query batch of the query the point answers. Returning false stops the
// enumeration for that query only.
type EmitBatch func(qi int, p geom.Point) bool

// visitReq is one query's visit request at a metablock: its state plus
// whether the metablock's stored points still need reporting (false when a
// TS prefix already covered them, mirroring visit's reportStored).
type visitReq struct {
	st           *qstate
	reportStored bool
}

// batchChildReq routes query qi (an index into the current node's request
// slice) into a child visit; rep mirrors visitReq.reportStored.
type batchChildReq struct {
	qi  int
	rep bool
}

// nodeScratch holds the per-node scratch of a batched visit — flat
// classification and direct matrices, per-child routing lists, grouped-scan
// membership buffers. Pooled like ctrlFrames so steady-state batched
// queries allocate almost nothing per metablock visited.
type nodeScratch struct {
	classes []childClass // len(reqs) x len(children), row-major
	direct  []bool       // same shape; per-query direct-visit flags for TD
	rIV     []int        // per-query rightmost Type IV child, -1 if none

	mrGroups  [][]int           // per child: queries anchored at it (TS)
	childReqs [][]batchChildReq // per child: recursion requests
	repOnly   [][]int           // per child: stored-report-only queries
	vr        [][]visitReq      // per child: materialized recursion batches

	grpSts  []*qstate // transient group-membership buffer
	covered []*qstate // TS-covered members of one anchor group
	hGroup  []*qstate // reportStoredBatch: horizontal-blocking group
	vGroup  []*qstate // reportStoredBatch: vertical-blocking group
	cqs     []cornerQuery
	tdEmits []func(rec) bool
}

func (t *Tree) getScratch() *nodeScratch {
	if sc, ok := t.bscratch.Get().(*nodeScratch); ok {
		return sc
	}
	return &nodeScratch{}
}

func (t *Tree) putScratch(sc *nodeScratch) { t.bscratch.Put(sc) }

// intsFor returns dst resized to n elements, reusing capacity (contents
// unspecified; callers overwrite every element).
func intsFor(dst []int, n int) []int {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int, n)
}

// classesFor returns dst resized to n zeroed elements, reusing capacity.
func classesFor(dst []childClass, n int) []childClass {
	if cap(dst) >= n {
		dst = dst[:n]
		clear(dst)
		return dst
	}
	return make([]childClass, n)
}

// growLists returns dst resized to n empty sub-lists, keeping the backing
// capacity of each.
func growLists[T any](dst [][]T, n int) [][]T {
	if cap(dst) < n {
		nd := make([][]T, n)
		copy(nd, dst[:cap(dst)])
		dst = nd
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	return dst
}

// StabBatch is DiagonalQueryBatch under the interval reading, the batched
// form of Stab.
func (t *Tree) StabBatch(qs []int64, emit EmitBatch) { t.DiagonalQueryBatch(qs, emit) }

// DiagonalQueryBatch answers a batch of diagonal corner queries in one
// shared traversal; per query, the reported multiset is exactly what
// DiagonalQuery(as[qi], ...) reports. Like the sequential query it is a
// read-only path: batches may run concurrently with each other and with
// single queries as long as no mutation is in flight.
func (t *Tree) DiagonalQueryBatch(as []int64, emit EmitBatch) {
	if len(as) == 0 {
		return
	}
	sts := make([]qstate, len(as))
	reqs := make([]visitReq, len(as))
	for i := range as {
		st := &sts[i]
		st.a = as[i]
		qi := i
		st.emit = func(p geom.Point) bool { return emit(qi, p) }
		if t.deadCount > 0 {
			st.dead = t.dead
		}
		reqs[i] = visitReq{st: st, reportStored: true}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].st.a < reqs[j].st.a })

	m := t.ctrl(t.root)
	// The root's update block has no parent TD to report it: one scan for
	// the whole batch.
	t.scanUpd(m.upd, func(r rec) bool {
		for i := range reqs {
			reqs[i].st.offer(r.pt)
		}
		return true
	})
	t.visitBatchLoaded(m, reqs)
}

// visitBatchLoaded processes one loaded metablock for a batch of requests
// (sorted ascending by query value): stored points for the requests that
// still need them, then the children.
func (t *Tree) visitBatchLoaded(m *metaCtrl, reqs []visitReq) {
	sc := t.getScratch()
	grp := sc.grpSts[:0]
	for _, r := range reqs {
		if r.reportStored && !r.st.stopped {
			grp = append(grp, r.st)
		}
	}
	sc.grpSts = grp
	t.reportStoredBatch(m, grp, sc)
	if len(m.children) > 0 {
		t.processChildrenBatch(m, reqs, sc)
	}
	t.putScratch(sc)
}

// reportStoredBatch reports m's stored points to every query in sts (sorted
// ascending by a), grouping the queries by the organisation reportStored
// would pick for them and scanning each organisation's pages once per
// group.
func (t *Tree) reportStoredBatch(m *metaCtrl, sts []*qstate, sc *nodeScratch) {
	if m.count == 0 || !m.bb.valid || len(sts) == 0 {
		return
	}
	hGroup := sc.hGroup[:0]
	vGroup := sc.vGroup[:0]
	cqs := sc.cqs[:0]
	for _, st := range sts {
		if st.stopped {
			continue
		}
		a := st.a
		if m.bb.minX > a || m.bb.maxY < a {
			continue
		}
		switch {
		case m.bb.minY >= a && m.bb.maxX <= a:
			// Type III: dump everything — the horizontal rule below never
			// stops for this query, so it degenerates to a full scan.
			hGroup = append(hGroup, st)
		case m.bb.minY >= a:
			// Type I: vertical blocking left of the corner column.
			vGroup = append(vGroup, st)
		case m.bb.maxX <= a:
			// Type IV: horizontal blocking top-down.
			hGroup = append(hGroup, st)
		default:
			// Type II: corner structure, or the ablation fallback.
			if m.corner != nil {
				st := st
				cqs = append(cqs, cornerQuery{a: a, emit: func(r rec) bool { return st.offer(r.pt) }})
			} else {
				vGroup = append(vGroup, st)
			}
		}
	}
	if len(hGroup) > 0 {
		t.scanHBatch(m.hblocks, hGroup)
	}
	if len(vGroup) > 0 {
		t.scanVBatch(m, vGroup)
	}
	if len(cqs) > 0 {
		t.queryCornerBatch(m.corner, cqs)
	}
	sc.hGroup = hGroup[:0]
	sc.vGroup = vGroup[:0]
	sc.cqs = cqs[:0]
}

// scanHBatch runs a grouped top-down scan of a horizontal (descending-y)
// blocking: a block is read once per batch while some member's sequential
// scan would still be on it (its line at or below the block's top, its
// partial block not yet passed), and every record is offered to every
// member — the offer predicate filters, and blocks a member's sequential
// scan skips hold no points above its line. Serves Type III dumps, Type IV
// scans and TS prefixes alike.
func (t *Tree) scanHBatch(blocks []chunkRef, grp []*qstate) {
	for _, st := range grp {
		st.scanDone = false
	}
	fn := func(p geom.Point) bool {
		for _, st := range grp {
			st.offer(p)
		}
		return true
	}
	for _, hb := range blocks {
		need := false
		for _, st := range grp {
			if !st.stopped && !st.scanDone && st.a <= hb.maxY {
				need = true
				break
			}
		}
		if !need {
			// maxY is non-increasing down the blocking: nobody needs the
			// deeper blocks either.
			break
		}
		t.scanPoints(hb.id, fn)
		for _, st := range grp {
			if hb.minY < st.a {
				st.scanDone = true
			}
		}
	}
}

// scanVBatch runs a grouped left-to-right scan of m's vertical blocking for
// Type I queries (every block up to the corner column) and corner-disabled
// Type II fallbacks (ditto, minus blocks entirely below their line).
func (t *Tree) scanVBatch(m *metaCtrl, grp []*qstate) {
	maxA := grp[len(grp)-1].a // grp sorted ascending by a
	fn := func(p geom.Point) bool {
		for _, st := range grp {
			st.offer(p)
		}
		return true
	}
	for _, vb := range m.vblocks {
		if vb.minX > maxA {
			break
		}
		need := false
		for _, st := range grp {
			if st.stopped || vb.minX > st.a {
				continue
			}
			if m.bb.minY >= st.a || vb.maxY >= st.a {
				need = true
				break
			}
		}
		if need {
			t.scanPoints(vb.id, fn)
		}
	}
}

// cornerQuery is one member of a batched corner-structure query: the query
// value and its emit funnel (which re-checks the full predicate, so shared
// scans can over-offer safely).
type cornerQuery struct {
	a    int64
	emit func(rec) bool
	done bool // emit stopped
	fin  bool // stage-one scan bookkeeping
}

// queryCornerBatch answers a batch of corner queries (sorted ascending by
// a) on one Lemma 3.1 structure. Queries resolving to the same star share
// the stage-one S* prefix reads and the stage-two strip blocks.
func (t *Tree) queryCornerBatch(c *cornerIdx, qs []cornerQuery) {
	if c == nil || len(c.vblocks) == 0 || len(qs) == 0 {
		return
	}
	star := 0 // advancing star cursor; qs sorted ascending by a
	for lo := 0; lo < len(qs); {
		for star < len(c.stars) && c.stars[star].value <= qs[lo].a {
			star++
		}
		si := star - 1
		hi := lo + 1
		for hi < len(qs) && (si+1 >= len(c.stars) || qs[hi].a < c.stars[si+1].value) {
			hi++
		}
		t.cornerBatchGroup(c, si, qs[lo:hi])
		lo = hi
	}
}

// cornerBatchGroup answers one same-star group of corner queries.
func (t *Tree) cornerBatchGroup(c *cornerIdx, si int, grp []cornerQuery) {
	maxA := grp[len(grp)-1].a
	if si < 0 {
		// Left of every star: only the vertical prefix can hold answers.
		fn := func(r rec) bool {
			for i := range grp {
				g := &grp[i]
				if !g.done && r.pt.X <= g.a && r.pt.Y >= g.a && !g.emit(r) {
					g.done = true
				}
			}
			return true
		}
		for _, vb := range c.vblocks {
			if vb.minX > maxA {
				break
			}
			t.scanRecs(vb.id, fn)
		}
		return
	}
	star := c.stars[si]
	s := star.value

	// Stage one: answers with x <= s, from S*(s) top-down — grouped exactly
	// like scanHBatch.
	oneFn := func(r rec) bool {
		for i := range grp {
			g := &grp[i]
			if !g.done && r.pt.Y >= g.a && !g.emit(r) {
				g.done = true
			}
		}
		return true
	}
	for _, hb := range star.blocks {
		need := false
		for i := range grp {
			g := &grp[i]
			if !g.done && !g.fin && g.a <= hb.maxY {
				need = true
				break
			}
		}
		if !need {
			break
		}
		t.scanRecs(hb.id, oneFn)
		for i := range grp {
			if hb.minY < grp[i].a {
				grp[i].fin = true
			}
		}
	}

	// Stage two: answers with s < x <= a, from the vertical blocking.
	twoFn := func(r rec) bool {
		for i := range grp {
			g := &grp[i]
			if !g.done && r.pt.X > s && r.pt.X <= g.a && r.pt.Y >= g.a && !g.emit(r) {
				g.done = true
			}
		}
		return true
	}
	start := sort.Search(len(c.vblocks), func(i int) bool { return c.vblocks[i].minX >= s })
	for i := start; i < len(c.vblocks); i++ {
		vb := c.vblocks[i]
		if vb.minX > maxA {
			break
		}
		if vb.maxX <= s {
			continue // entirely covered by stage one
		}
		t.scanRecs(vb.id, twoFn)
	}
}

// processChildrenBatch is the batched processChildren: per query the
// routing decisions (TS coverage, sibling classification, path descent,
// direct flags) are exactly the sequential ones, but every child is loaded
// once per batch with the union of its requests, TS prefixes and TD blocks
// are scanned once per group, and the TD corner query is batched.
func (t *Tree) processChildrenBatch(m *metaCtrl, reqs []visitReq, sc *nodeScratch) {
	n := len(m.children)
	k := len(reqs)
	sc.classes = classesFor(sc.classes, k*n)
	sc.direct = boolsFor(sc.direct, k*n)
	sc.rIV = intsFor(sc.rIV, k)
	sc.mrGroups = growLists(sc.mrGroups, n)
	sc.childReqs = growLists(sc.childReqs, n)
	sc.repOnly = growLists(sc.repOnly, n)
	sc.vr = growLists(sc.vr, n)
	direct := sc.direct

	// 1. Classify every (query, child) pair; bucket queries by their
	// rightmost Type IV child (the TS anchor).
	for qi, r := range reqs {
		st := r.st
		sc.rIV[qi] = -1
		if st.stopped {
			continue
		}
		row := sc.classes[qi*n : qi*n+n]
		rIV := -1
		for i, c := range m.children {
			row[i] = classify(c, st.a)
			if row[i] == classStraddle {
				rIV = i
			}
		}
		sc.rIV[qi] = rIV
		if rIV >= 0 && !t.cfg.DisableTS {
			sc.mrGroups[rIV] = append(sc.mrGroups[rIV], qi)
		}
	}

	// 2. One ctrl load per distinct TS anchor: report the anchor's stored
	// points for its whole group, scan its TS prefix once for the covered
	// members, and route every member's siblings.
	for rv := 0; rv < n; rv++ {
		members := sc.mrGroups[rv]
		if len(members) == 0 {
			continue
		}
		mrCtrl := t.ctrl(m.children[rv].ctrl)
		grp := sc.grpSts[:0]
		for _, qi := range members {
			direct[qi*n+rv] = true
			grp = append(grp, reqs[qi].st)
		}
		sc.grpSts = grp
		t.reportStoredBatch(mrCtrl, grp, sc)

		totalLeft := 0
		for i := 0; i < rv; i++ {
			totalLeft += m.children[i].storedCount
		}
		ts := &mrCtrl.ts
		covers := func(st *qstate) bool {
			return totalLeft == 0 ||
				(ts.count > 0 && (ts.bottomY < st.a || ts.count == totalLeft))
		}
		covered := sc.covered[:0]
		for _, qi := range members {
			if st := reqs[qi].st; !st.stopped && covers(st) {
				covered = append(covered, st)
			}
		}
		sc.covered = covered
		if len(covered) > 0 {
			// One TS pass reports every left-sibling stored point inside the
			// covered members' queries.
			t.scanHBatch(ts.blocks, covered)
		}

		for _, qi := range members {
			st := reqs[qi].st
			if st.stopped {
				continue
			}
			row := sc.classes[qi*n : qi*n+n]
			if covers(st) {
				// Fully-inside left siblings still carry deeper answers:
				// recurse without re-reporting their stored points.
				for i := 0; i < rv; i++ {
					if row[i] == classInside {
						sc.childReqs[i] = append(sc.childReqs[i], batchChildReq{qi, false})
					}
				}
			} else {
				// TS guarantees at least B^2 sibling answers: examine each
				// left sibling individually.
				for i := 0; i < rv; i++ {
					switch row[i] {
					case classInside:
						direct[qi*n+i] = true
						sc.childReqs[i] = append(sc.childReqs[i], batchChildReq{qi, true})
					case classStraddle:
						direct[qi*n+i] = true
						sc.repOnly[i] = append(sc.repOnly[i], qi)
					}
				}
			}
			// Children right of the anchor but left of the path.
			for i := rv + 1; i < n; i++ {
				if row[i] == classPath {
					break
				}
				switch row[i] {
				case classInside:
					direct[qi*n+i] = true
					sc.childReqs[i] = append(sc.childReqs[i], batchChildReq{qi, true})
				case classStraddle:
					direct[qi*n+i] = true
					sc.repOnly[i] = append(sc.repOnly[i], qi)
				}
			}
		}
	}

	// 3. Queries without a TS anchor (no Type IV children, or TS disabled):
	// every non-path child individually.
	for qi, r := range reqs {
		st := r.st
		if st.stopped || (sc.rIV[qi] >= 0 && !t.cfg.DisableTS) {
			continue
		}
		row := sc.classes[qi*n : qi*n+n]
		for i := 0; i < n; i++ {
			switch row[i] {
			case classInside:
				direct[qi*n+i] = true
				sc.childReqs[i] = append(sc.childReqs[i], batchChildReq{qi, true})
			case classStraddle:
				direct[qi*n+i] = true
				sc.repOnly[i] = append(sc.repOnly[i], qi)
			}
		}
	}

	// 4. Path descent.
	for qi, r := range reqs {
		st := r.st
		if st.stopped {
			continue
		}
		row := sc.classes[qi*n : qi*n+n]
		for i := 0; i < n; i++ {
			if row[i] == classPath {
				direct[qi*n+i] = true
				sc.childReqs[i] = append(sc.childReqs[i], batchChildReq{qi, true})
			}
		}
	}

	// 5. One load + one recursive batch per child with any requests. The
	// routing lists were appended across phases, so restore query order
	// first (reqs is sorted by a; qi order == a order).
	for i := 0; i < n; i++ {
		creqs := sc.childReqs[i]
		rep := sc.repOnly[i]
		if len(creqs) == 0 && len(rep) == 0 {
			continue
		}
		sort.Slice(creqs, func(x, y int) bool { return creqs[x].qi < creqs[y].qi })
		sort.Ints(rep)
		cm := t.ctrl(m.children[i].ctrl)
		// Merge the stored-report audiences (report-only queries plus
		// recursing queries that still need the stored points) in qi order.
		grp := sc.grpSts[:0]
		ri, ci := 0, 0
		for ri < len(rep) || ci < len(creqs) {
			switch {
			case ci >= len(creqs) || (ri < len(rep) && rep[ri] < creqs[ci].qi):
				grp = append(grp, reqs[rep[ri]].st)
				ri++
			default:
				if creqs[ci].rep {
					grp = append(grp, reqs[creqs[ci].qi].st)
				}
				ci++
			}
		}
		sc.grpSts = grp
		t.reportStoredBatch(cm, grp, sc)
		if len(cm.children) > 0 && len(creqs) > 0 {
			vr := sc.vr[i][:0]
			for _, cr := range creqs {
				if st := reqs[cr.qi].st; !st.stopped {
					vr = append(vr, visitReq{st: st, reportStored: cr.rep})
				}
			}
			sc.vr[i] = vr
			if len(vr) > 0 {
				csc := t.getScratch()
				t.processChildrenBatch(cm, vr, csc)
				t.putScratch(csc)
			}
		}
	}

	// 6. TD consultation (Lemma 3.5), once per node for the whole batch:
	// the TD corner query is batched like any corner structure and the TD
	// update block is scanned once, each record demultiplexed through the
	// per-query direct-visit filters.
	if m.td != nil {
		cqs := sc.cqs[:0]
		tdEmits := sc.tdEmits[:0]
		for qi, r := range reqs {
			st := r.st
			if st.stopped {
				continue
			}
			row := direct[qi*n : qi*n+n]
			fn := func(rc rec) bool {
				slot := tdSlot(rc.aux)
				if slot < len(row) && row[slot] && !tdInU(rc.aux) {
					return true // already reported from the child's stored set
				}
				return st.offer(rc.pt)
			}
			tdEmits = append(tdEmits, fn)
			if m.td.corner != nil {
				cqs = append(cqs, cornerQuery{a: st.a, emit: fn})
			}
		}
		if m.td.corner != nil && len(cqs) > 0 {
			t.queryCornerBatch(m.td.corner, cqs)
		}
		if len(tdEmits) > 0 {
			t.scanUpd(m.td.upd, func(rc rec) bool {
				for _, fn := range tdEmits {
					fn(rc)
				}
				return true
			})
		}
		sc.cqs = cqs[:0]
		sc.tdEmits = tdEmits[:0]
	}
}
