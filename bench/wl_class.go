package main

import (
	"math/rand"
	"time"

	"ccidx"
	"ccidx/internal/classindex"
	"ccidx/internal/workload"
)

const (
	classCount   = 64
	classObjects = 15000 // sized so three set-ups of ~190 us/insert fit a run
	// hierarchySeed fixes the schema: the seed of a run varies the objects
	// and the queries, not the shape of the class tree, whose depth alone
	// moves result sizes and page counts by more than any bound.
	hierarchySeed = 1993
)

// classData is the class-query input: a fixed random 64-class hierarchy
// and objects uniform over classes and attributes.
type classData struct {
	h     *classindex.Hierarchy
	names []string
	objs  []classindex.Object
	span  int64
}

func genClassData(seed int64, n int) classData {
	d := classData{h: workload.RandomHierarchy(hierarchySeed, classCount), span: int64(spanPerIv * n)}
	d.names = make([]string, d.h.Len())
	for i := range d.names {
		d.names[i] = d.h.Name(i)
	}
	d.objs = workload.Objects(seed, d.h, n, d.span)
	return d
}

// load is the set-up being timed: objects go in one at a time through the
// semi-dynamic insert path of the 3-sided trees, then Flush.
func (d classData) load() ccidx.ClassStore {
	cs := ccidx.NewClassStore(d.h, ccidx.Options{B: blockB}, ccidx.StrategyRakeContract)
	for _, o := range d.objs {
		cs.Insert(d.names[o.Class], o.Attr, o.ID)
	}
	cs.Flush()
	return cs
}

// classQuery is one read: a uniform class and an attribute range of 1% of
// the span.
type classQuery struct {
	class  int
	a1, a2 int64
}

func (d classData) query(rng *rand.Rand) classQuery {
	a := rng.Int63n(d.span)
	return classQuery{rng.Intn(d.h.Len()), a, a + d.span/100}
}

// matching is the brute-force oracle: ids of the objects in the full
// extent of the class (its subtree) with the attribute in range.
func (d classData) matching(q classQuery) map[uint64]bool {
	lo, hi := d.h.SubtreeRange(q.class)
	ids := make(map[uint64]bool)
	for _, o := range d.objs {
		if pre := d.h.Pre(o.Class); pre >= lo && pre < hi && o.Attr >= q.a1 && o.Attr <= q.a2 {
			ids[o.ID] = true
		}
	}
	return ids
}

func runClass(p params) (*outcome, error) {
	d := genClassData(p.seed, p.size(classObjects, 500))
	roundOps := p.size(100000, 200)
	cs, setupS, err := medianSetup(setupReps,
		func() (ccidx.ClassStore, error) { return d.load(), nil },
		func(ccidx.ClassStore) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	rng := rand.New(rand.NewSource(p.seed + 1))

	var ids []uint64
	for i := 0; i < oracleReads(p); i++ {
		q := d.query(rng)
		ids = ids[:0]
		cs.Query(d.names[q.class], q.a1, q.a2, func(_ int64, id uint64) bool {
			ids = append(ids, id)
			return true
		})
		out.attempted++
		if !sameIDs(ids, d.matching(q)) {
			out.fail(p, 1, "Query(%s, %d, %d) differs from the brute-force oracle", d.names[q.class], q.a1, q.a2)
		}
	}
	results := 0
	read := func() int64 {
		q := d.query(rng)
		start := time.Now()
		cs.Query(d.names[q.class], q.a1, q.a2, func(int64, uint64) bool { results++; return true })
		return int64(time.Since(start))
	}
	for i := 0; i < roundOps; i++ {
		read()
	}

	var m rounds
	var pages, countedReads int64
	pages0 := cs.Stats().Reads // no pool is attached: every page access is a device read
	m.run(p.seconds, func(round int, lat *[]int64) int {
		for i := 0; i < roundOps; i++ {
			*lat = append(*lat, read())
		}
		if round == countRounds-1 {
			pages = cs.Stats().Reads - pages0
			countedReads = int64(len(*lat))
		}
		return roundOps
	})
	out.attempted += int64(roundOps) + m.ops

	// Conservation: the store has no Len(); a query of every root over the
	// whole attribute span must report each loaded object exactly once.
	seen := make(map[uint64]bool, len(d.objs))
	for c := 0; c < d.h.Len(); c++ {
		if d.h.Parent(c) >= 0 {
			continue
		}
		cs.Query(d.names[c], 0, d.span, func(_ int64, id uint64) bool {
			if seen[id] {
				out.fail(p, 1, "object %d reported twice", id)
			}
			seen[id] = true
			return true
		})
	}
	if len(seen) != len(d.objs) {
		out.fail(p, 1, "full-extent scan found %d objects, want the %d loaded", len(seen), len(d.objs))
	}
	spaceRatio := float64(cs.SpaceBlocks()) * blockB / float64(len(d.objs))
	m.endToEnd(out, p, setupS, ratio(float64(pages), float64(countedReads)), int(countedReads), spaceRatio)
	return out, nil
}
