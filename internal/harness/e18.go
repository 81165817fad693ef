package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// E18 — the read-path ablation: the paper's cost model counts block
// transfers, but a reproduction also pays host-side costs on every
// transfer. Four read paths over the identical metablock tree and query
// stream:
//
//	copy   — every page read materializes a fresh PageSize buffer and
//	         memcpy (the pre-PR-2 behaviour, reconstructed by copyDevice);
//	view   — zero-copy borrowed views straight into the pager's storage
//	         (the default device of every structure);
//	pooled — views through a concurrent CLOCK buffer pool, so repeated
//	         reads hit memory-resident frames without device I/O;
//	cached — view, plus the decoded control cache left warm: a metablock
//	         visit borrows its control block instead of reading and
//	         decoding the blob chain (the only read path the tree has; the
//	         three arms above empty the cache before every query, outside
//	         the timed section, to show what it replaced).
//
// Model I/Os (device I/Os + spared page reads) are identical for copy, view
// and cached — the cost model is untouched; the pool trades device reads
// for frame hits, the cache trades them for no access at all. Wall-clock
// and allocations are where the four separate.

// copyDevice reproduces the pre-PR-2 read path: View allocates a fresh
// buffer and copies the page into it, exactly like the old
// make+Pager.Read call sites.
type copyDevice struct {
	p disk.Store
}

func (c copyDevice) PageSize() int                          { return c.p.PageSize() }
func (c copyDevice) Alloc() disk.BlockID                    { return c.p.Alloc() }
func (c copyDevice) Read(id disk.BlockID, buf []byte) error { return c.p.Read(id, buf) }
func (c copyDevice) Write(id disk.BlockID, buf []byte) error {
	return c.p.Write(id, buf)
}
func (c copyDevice) Free(id disk.BlockID) error { return c.p.Free(id) }
func (c copyDevice) View(id disk.BlockID) ([]byte, error) {
	buf := make([]byte, c.p.PageSize())
	if err := c.p.Read(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
func (c copyDevice) Release(disk.BlockID) {}

func runE18(w io.Writer) {
	const (
		b       = 32
		n       = 100000
		queries = 2000
		// frames is sized like a real buffer pool: a constant fraction of
		// the data (~half the tree's pages), not O(1). Undersizing it to,
		// say, 512 frames thrashes the CLOCK on this access pattern and
		// the hit rate collapses — worth reproducing by hand, not worth
		// printing as the headline.
		frames = 4096
	)
	fmt.Fprintf(w, "B=%d, n=%d diagonal points; %d stab queries per read path.\n", b, n, queries)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s %12s\n",
		"path", "ns/op", "allocs/op", "B/op", "devIOs/op", "modelIOs/op", "poolHit%")

	type mode struct {
		name   string
		cached bool // leave the decoded control cache warm
		attach func(tr *core.Tree) *disk.Pool
	}
	// The default device is already the zero-copy pager.
	view := func(*core.Tree) *disk.Pool { return nil }
	modes := []mode{
		{"copy", false, func(tr *core.Tree) *disk.Pool {
			tr.SetDevice(copyDevice{tr.Pager()})
			return nil
		}},
		{"view", false, view},
		{"pooled", false, func(tr *core.Tree) *disk.Pool {
			pl := disk.NewPool(tr.Pager(), frames, 8)
			tr.SetDevice(pl)
			return pl
		}},
		{"cached", true, view},
	}

	pts := workload.DiagonalPoints(18, n, int64(4*n))
	for _, md := range modes {
		tr := core.New(core.Config{B: b}, pts)
		pool := md.attach(tr)
		// Warm up over the query set so pool frames, scratch capacities and
		// (cached arm) the control cache settle.
		for i := 0; i < 997; i++ {
			tr.DiagonalQuery(int64(i)*int64(4*n)/997, func(geom.Point) bool { return true })
		}

		var ms0, ms1 runtime.MemStats
		var elapsed time.Duration
		var mallocs, bytes uint64
		before := tr.Stats()
		for i := 0; i < queries; i++ {
			a := int64(i%997) * int64(4*n) / 997
			if !md.cached {
				tr.DropCtrlCache()
			}
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			tr.DiagonalQuery(a, func(geom.Point) bool { return true })
			elapsed += time.Since(start)
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		st := tr.Stats().Sub(before)

		hitPct := 0.0
		if pool != nil {
			if total := pool.Hits() + pool.Misses(); total > 0 {
				hitPct = 100 * float64(pool.Hits()) / float64(total)
			}
		}
		fmt.Fprintf(w, "%-8s %12.0f %12.1f %12.0f %12.2f %12.2f %12.1f\n",
			md.name,
			float64(elapsed.Nanoseconds())/float64(queries),
			float64(mallocs)/float64(queries),
			float64(bytes)/float64(queries),
			float64(st.IOs())/float64(queries),
			float64(st.ModelIOs())/float64(queries),
			hitPct)
	}
	fmt.Fprintln(w, "shape check: copy, view and cached must show identical modelIOs/op (the")
	fmt.Fprintln(w, "cost model is untouched); view must cut B/op by >=2x vs copy (what is")
	fmt.Fprintln(w, "left is the decode a cold visit keeps); cached must cut allocs/op by")
	fmt.Fprintln(w, ">=100x vs view; pooled must cut devIOs/op via frame hits, cached via")
	fmt.Fprintln(w, "visits that read no control page, without changing any query answer.")
}
