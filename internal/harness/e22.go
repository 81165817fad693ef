package harness

// E22 — Serving front-end: adaptive auto-batching under concurrent load.
//
// E20 showed that the shard layer's batch entry points share traversals
// and pay far fewer I/Os per query than sequential calls — but only for
// callers that ARRIVE with a batch in hand. E22 closes the loop for the
// serving path: independent concurrent clients issue SINGLE stabbing
// queries over HTTP, and the server's auto-batcher coalesces them into
// StabBatch calls behind their backs. Measured per (batching arm x client
// count): throughput, client-observed p50/p99 latency, mean coalesced
// batch size, and ios/query from the backend's counters — the experiment's
// claim is that ios/query under concurrency drops materially with batching
// ON while answers stay byte-identical (oracle-checked through HTTP first).
//
// The backend runs with buffer pools DISABLED so every page access counts,
// the paper's bare cost model: the ios/query column then isolates the
// shared-traversal effect from caching.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccidx/internal/geom"
	"ccidx/internal/server"
	"ccidx/internal/shard"
	"ccidx/internal/workload"
)

// E22Intervals is the interval count of the E22 workload (flag -e22n).
var E22Intervals = 50000

func runE22(w io.Writer) {
	const (
		b          = 32
		perClient  = 300
		oracleQs   = 64
		maxClients = 256
	)
	n := E22Intervals
	span := int64(n) * 16
	ivs := workload.UniformIntervals(91, n, span, span/64)

	im := shard.NewIntervals(shard.Config{
		Shards: 4, B: b, Batch: 32,
		Partition: shard.PartitionRange, Span: span, PoolFrames: -1,
	}, ivs)
	fmt.Fprintf(w, "n=%d intervals, 4 shards, B=%d, pools off; %d stab queries per client.\n\n",
		n, b, perClient)

	// Oracle first: answers through the batching server must equal the
	// sequential backend call, query by query.
	srv, base, stop := startServer(im, false)
	mismatches := 0
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < oracleQs; i++ {
		q := rng.Int63n(span)
		var want []uint64
		im.Stab(q, func(iv geom.Interval) bool { want = append(want, iv.ID); return true })
		got, err := httpStabIDs(base, q)
		if err != nil {
			panic(err)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if !uint64sEqual(got, want) {
			mismatches++
		}
	}
	stop()
	_ = srv
	if mismatches > 0 {
		fmt.Fprintf(w, "!! %d/%d oracle queries differ between HTTP-batched and sequential answers\n",
			mismatches, oracleQs)
	} else {
		fmt.Fprintf(w, "oracle: %d HTTP answers identical to sequential backend calls.\n\n", oracleQs)
	}

	fmt.Fprintf(w, "%-10s %8s %12s %10s %10s %10s %10s\n",
		"batching", "clients", "req/s", "p50 us", "p99 us", "batch avg", "ios/query")
	type cell struct {
		on      bool
		clients int
		ios     float64
	}
	var cells []cell
	for _, on := range []bool{false, true} {
		for clients := 1; clients <= maxClients; clients *= 4 {
			srv, base, stop := startServer(im, !on)
			before := im.Stats().ModelIOs()
			total := clients * perClient
			lats := make([]time.Duration, total)
			var next atomic.Int64
			start := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					crng := rand.New(rand.NewSource(int64(1000 + c)))
					client := &http.Client{}
					for {
						i := int(next.Add(1)) - 1
						if i >= total {
							return
						}
						t0 := time.Now()
						if _, err := httpStabIDsWith(client, base, crng.Int63n(span)); err != nil {
							panic(err)
						}
						lats[i] = time.Since(t0)
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			ios := float64(im.Stats().ModelIOs()-before) / float64(total)
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			mode := "off"
			if on {
				mode = "on"
			}
			fmt.Fprintf(w, "%-10s %8d %12.0f %10.0f %10.0f %10.1f %10.2f\n",
				mode, clients,
				float64(total)/elapsed.Seconds(),
				float64(lats[total/2].Microseconds()),
				float64(lats[total*99/100].Microseconds()),
				srv.BatchMean(), ios)
			cells = append(cells, cell{on, clients, ios})
			stop()
		}
	}

	var offHi, onHi float64
	for _, c := range cells {
		if c.clients == maxClients {
			if c.on {
				onHi = c.ios
			} else {
				offHi = c.ios
			}
		}
	}
	fmt.Fprintf(w, "\nat %d clients: ios/query %.2f unbatched vs %.2f auto-batched (%.1fx lower).\n",
		maxClients, offHi, onHi, offHi/onHi)
	fmt.Fprintln(w, "shape check: the auto-batcher converts concurrent single-query traffic into")
	fmt.Fprintln(w, "shared traversals — ios/query falls toward E20's in-process batch numbers as")
	fmt.Fprintln(w, "concurrency grows, while the single-client arms stay near the sequential cost.")
}

// startServer brings up an in-process front-end on a loopback port and
// returns the server handle, base URL, and a stop closure. The batching
// arm runs a 2ms window: at this workload's per-query cost the offered
// rates sit near the adaptive window's open threshold with the 1ms
// default, and 2ms keeps the latency tax bounded while letting the
// coalescing effect show (the off arm never waits regardless).
func startServer(im *shard.Intervals, disableBatching bool) (*server.Server, string, func()) {
	srv, err := server.New(server.Backend{Intervals: im}, server.Config{
		MaxWait:         2 * time.Millisecond,
		DisableBatching: disableBatching,
	})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		srv.Close()
	}
	return srv, "http://" + ln.Addr().String(), stop
}

func httpStabIDs(base string, q int64) ([]uint64, error) {
	return httpStabIDsWith(http.DefaultClient, base, q)
}

func httpStabIDsWith(client *http.Client, base string, q int64) ([]uint64, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/stab?q=%d", base, q))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stab(%d): %s", q, resp.Status)
	}
	var rows []struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, err
	}
	ids := make([]uint64, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
	}
	return ids, nil
}

func uint64sEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
