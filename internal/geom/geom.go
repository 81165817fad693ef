// Package geom defines the planar point, interval and query types shared by
// every index structure in this repository, together with the reductions of
// Section 2 of the paper:
//
//   - an interval [lo,hi] maps to the point (lo,hi) above the diagonal y=x
//     (Proposition 2.2, Fig 3);
//   - a stabbing query at q maps to the diagonal corner query anchored at
//     (q,q), i.e. report all points with X <= q and Y >= q;
//   - a 3-sided query is [X1,X2] x [Y,inf) (Section 4, Fig 1).
//
// All comparisons are inclusive. Coordinates are int64; identifiers uint64.
package geom

import (
	"cmp"
	"fmt"
	"slices"
)

// Point is a planar point with a record identifier. For interval workloads,
// X is the left endpoint and Y the right endpoint of an interval.
type Point struct {
	X, Y int64
	ID   uint64
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d;#%d)", p.X, p.Y, p.ID) }

// AboveDiagonal reports whether p satisfies the metablock tree input
// invariant Y >= X.
func (p Point) AboveDiagonal() bool { return p.Y >= p.X }

// Less orders points by (X, Y, ID). It is the canonical total order used by
// vertical blockings and by tests that compare result sets.
func Less(a, b Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.ID < b.ID
}

// YDescLess orders points by decreasing Y, breaking ties by (X, ID). It is
// the order used by horizontal blockings, which store the B points with the
// largest Y values in the first block (Section 3.1, Fig 9).
func YDescLess(a, b Point) bool {
	if a.Y != b.Y {
		return a.Y > b.Y
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.ID < b.ID
}

// SortByX sorts points by the canonical (X, Y, ID) order.
func SortByX(ps []Point) {
	slices.SortFunc(ps, func(a, b Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Y, b.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// SortByYDesc sorts points by decreasing Y (the YDescLess order).
func SortByYDesc(ps []Point) {
	slices.SortFunc(ps, func(a, b Point) int {
		if c := cmp.Compare(b.Y, a.Y); c != 0 {
			return c
		}
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// CornerQuery is a diagonal corner query: the corner lies at (A, A) on the
// line y = x, and the query region is the quarter plane above and to the
// left of the corner (Fig 1).
type CornerQuery struct {
	A int64
}

// Contains reports whether p lies in the query region X <= A and Y >= A.
func (q CornerQuery) Contains(p Point) bool { return p.X <= q.A && p.Y >= q.A }

// ThreeSidedQuery is the region [X1, X2] x [Y, +inf).
type ThreeSidedQuery struct {
	X1, X2 int64 // X1 <= X2
	Y      int64
}

// Contains reports whether p lies in the query region.
func (q ThreeSidedQuery) Contains(p Point) bool {
	return p.X >= q.X1 && p.X <= q.X2 && p.Y >= q.Y
}

// Valid reports whether X1 <= X2.
func (q ThreeSidedQuery) Valid() bool { return q.X1 <= q.X2 }

// RangeQuery is a general (4-sided) two-dimensional range query
// [X1,X2] x [Y1,Y2]. Only baselines answer these directly; the paper's
// structures answer its special cases.
type RangeQuery struct {
	X1, X2 int64
	Y1, Y2 int64
}

// Contains reports whether p lies in the closed rectangle.
func (q RangeQuery) Contains(p Point) bool {
	return p.X >= q.X1 && p.X <= q.X2 && p.Y >= q.Y1 && p.Y <= q.Y2
}

// Interval is a closed interval [Lo, Hi] with an identifier.
type Interval struct {
	Lo, Hi int64
	ID     uint64
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d;#%d]", iv.Lo, iv.Hi, iv.ID) }

// Valid reports whether Lo <= Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether the closed interval contains q.
func (iv Interval) Contains(q int64) bool { return iv.Lo <= q && q <= iv.Hi }

// Intersects reports whether two closed intervals share a point.
func (iv Interval) Intersects(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// ToPoint maps the interval to its endpoint representation (Lo, Hi) above
// the diagonal (Proposition 2.2).
func (iv Interval) ToPoint() Point { return Point{X: iv.Lo, Y: iv.Hi, ID: iv.ID} }

// PointToInterval is the inverse of Interval.ToPoint.
func PointToInterval(p Point) Interval { return Interval{Lo: p.X, Hi: p.Y, ID: p.ID} }

// Rect is a named axis-aligned rectangle, used by the CQL rectangle
// intersection example (Example 2.1, Fig 2).
type Rect struct {
	Name           uint64
	X1, Y1, X2, Y2 int64 // X1 <= X2, Y1 <= Y2
}

// Intersects reports whether two closed rectangles share a point.
func (r Rect) Intersects(s Rect) bool {
	return r.X1 <= s.X2 && s.X1 <= r.X2 && r.Y1 <= s.Y2 && s.Y1 <= r.Y2
}

// Emit receives reported points during a query. Returning false stops the
// enumeration early.
type Emit func(Point) bool

// Collect returns an Emit that appends to the given slice.
func Collect(dst *[]Point) Emit {
	return func(p Point) bool {
		*dst = append(*dst, p)
		return true
	}
}

// DedupIDs returns the sorted distinct IDs from ps; a test helper shared by
// oracle comparisons.
func DedupIDs(ps []Point) []uint64 {
	ids := make([]uint64, 0, len(ps))
	for _, p := range ps {
		ids = append(ids, p.ID)
	}
	slices.Sort(ids)
	out := ids[:0]
	var last uint64
	for i, id := range ids {
		if i == 0 || id != last {
			out = append(out, id)
			last = id
		}
	}
	return out
}
