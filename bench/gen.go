package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// Block capacity and interval geometry shared by every workload.
const (
	blockB    = 32
	maxIvLen  = 128
	spanPerIv = 16 // key span = spanPerIv * n, so density stays fixed across sizes
)

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one generated operation: a read carries the query interval, an
// insert the fresh interval, a delete the live interval it removes.
type op struct {
	kind opKind
	iv   geom.Interval
}

// opGen is the seeded source of one closed-loop client's operation stream
// over interval data. It owns the live intervals its writes may delete, so
// two generators never race on an id, and the brute-force oracle scans
// exactly what the generators believe is live.
type opGen struct {
	rng     *rand.Rand
	span    int64
	live    []geom.Interval
	nextID  uint64
	idStep  uint64
	isWrite func(i int) bool // position in the stream -> write?
	i       int
	writes  int
}

// newOpGen makes a generator over the live intervals it owns. Fresh ids
// start at firstID and advance by idStep, which keeps the id spaces of
// concurrent generators disjoint.
func newOpGen(seed int64, span int64, live []geom.Interval, firstID, idStep uint64, isWrite func(i int) bool) *opGen {
	return &opGen{
		rng: rand.New(rand.NewSource(seed)), span: span,
		live: live, nextID: firstID, idStep: idStep, isWrite: isWrite,
	}
}

func readsOnly(int) bool { return false }

// query is the read every interval workload issues: Intersect([q, q+len])
// with len in [0, maxIvLen), so a stab is the len = 0 case.
func (g *opGen) query() geom.Interval {
	q := g.rng.Int63n(g.span)
	return geom.Interval{Lo: q, Hi: q + g.rng.Int63n(maxIvLen)}
}

// next returns the next operation. Writes alternate an insert of a fresh
// id with a delete of a random live one, so the live count stays constant.
func (g *opGen) next() op {
	i := g.i
	g.i++
	if !g.isWrite(i) {
		return op{kind: opRead, iv: g.query()}
	}
	g.writes++
	if g.writes%2 == 1 || len(g.live) == 0 {
		lo := g.rng.Int63n(g.span)
		iv := geom.Interval{Lo: lo, Hi: lo + g.rng.Int63n(maxIvLen+1), ID: g.nextID}
		g.nextID += g.idStep
		g.live = append(g.live, iv)
		return op{kind: opInsert, iv: iv}
	}
	j := g.rng.Intn(len(g.live))
	iv := g.live[j]
	g.live[j] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return op{kind: opDelete, iv: iv}
}

// streamHash folds the first n operations of a generator into one value;
// equal seeds must give equal hashes (the determinism test).
func streamHash(g *opGen, n int) uint64 {
	h := fnv.New64a()
	var buf [25]byte
	for i := 0; i < n; i++ {
		o := g.next()
		buf[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(o.iv.Lo))
		binary.LittleEndian.PutUint64(buf[9:], uint64(o.iv.Hi))
		binary.LittleEndian.PutUint64(buf[17:], o.iv.ID)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// genIntervals is the data set of the four interval workloads.
func genIntervals(seed int64, n int) (ivs []geom.Interval, span int64) {
	span = int64(spanPerIv * n)
	return workload.UniformIntervals(seed, n, span, maxIvLen), span
}

// intersecting is the brute-force oracle: the ids of every live interval,
// across all generators, that intersects q.
func intersecting(gens []*opGen, q geom.Interval) map[uint64]bool {
	ids := make(map[uint64]bool)
	for _, g := range gens {
		for _, iv := range g.live {
			if iv.Lo <= q.Hi && q.Lo <= iv.Hi {
				ids[iv.ID] = true
			}
		}
	}
	return ids
}

// sameIDs reports whether got holds exactly the ids of want, each once.
func sameIDs(got []uint64, want map[uint64]bool) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[uint64]bool, len(got))
	for _, id := range got {
		if !want[id] || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

func liveCount(gens []*opGen) int {
	n := 0
	for _, g := range gens {
		n += len(g.live)
	}
	return n
}
