package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ccidx/internal/geom"
	"ccidx/internal/server"
	"ccidx/internal/shard"
)

const httpClients = 2 // keep-alive connections, one closed-loop goroutine each

// served is the serve-http system under test: every serving default
// (4 range-partitioned shards, group commit 64, 256 pool frames per shard,
// server.Config{}), in memory, behind net/http on a loopback socket in this
// process.
type served struct {
	backend *shard.Intervals
	srv     *server.Server
	httpSrv *http.Server
	client  *http.Client
	base    string
	done    chan error // Serve's return
}

func shardConfig(span int64) shard.Config {
	return shard.Config{Shards: 4, B: blockB, Batch: 64, Partition: shard.PartitionRange, Span: span}
}

// loadShards builds the backend the way set-up is defined for in-memory
// workloads: load the generated intervals, then Flush.
func loadShards(ivs []geom.Interval, span int64) *shard.Intervals {
	backend := shard.NewIntervals(shardConfig(span), ivs)
	backend.Flush()
	return backend
}

func serve(backend *shard.Intervals) (*served, error) {
	srv, err := server.New(server.Backend{Intervals: backend}, server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		backend: backend,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: httpClients, MaxConnsPerHost: httpClients,
		}},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the batch dispatchers down and waits for the
// serving goroutine.
func (s *served) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

// request maps a generated operation to its endpoint.
func (s *served) request(o op) (method, url string) {
	switch o.kind {
	case opInsert:
		return http.MethodPost, fmt.Sprintf("%s/v1/insert?lo=%d&hi=%d&id=%d", s.base, o.iv.Lo, o.iv.Hi, o.iv.ID)
	case opDelete:
		return http.MethodPost, s.base + "/v1/delete?id=" + strconv.FormatUint(o.iv.ID, 10)
	default:
		return http.MethodGet, fmt.Sprintf("%s/v1/intersect?lo=%d&hi=%d", s.base, o.iv.Lo, o.iv.Hi)
	}
}

// do sends one operation over the loopback socket and returns the status
// and the body (read into buf, which is returned grown).
func (s *served) do(o op, buf []byte) (status int, body []byte, err error) {
	method, url := s.request(o)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, buf, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	body, err = readInto(buf[:0], resp.Body)
	return resp.StatusCode, body, err
}

func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// bodyIDs decodes an /v1/intersect answer into its ids.
func bodyIDs(body []byte) ([]uint64, error) {
	var rows []struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, err
	}
	ids := make([]uint64, len(rows))
	for i, row := range rows {
		ids[i] = row.ID
	}
	return ids, nil
}

// httpClient is one closed-loop connection: its own generator (so the ids
// it deletes are ids it owns) and its own tallies, merged after each round.
type httpClient struct {
	gen       *opGen
	buf       []byte
	lat       []int64
	attempted int64
	failures  []string
}

func (c *httpClient) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// step performs the client's next operation and returns its kind; a non-200
// answer, a transport error or (when gens is set) an oracle mismatch is a
// failed operation.
func (c *httpClient) step(s *served, gens []*opGen) opKind {
	o := c.gen.next()
	c.attempted++
	start := time.Now()
	status, body, err := s.do(o, c.buf)
	took := int64(time.Since(start))
	c.buf = body
	switch {
	case err != nil:
		c.failf("%v", err)
	case status != http.StatusOK:
		c.failf("status %d: %s", status, body)
	case o.kind != opRead:
	case gens == nil:
		c.lat = append(c.lat, took)
	default:
		ids, err := bodyIDs(body)
		if err != nil || !sameIDs(ids, intersecting(gens, o.iv)) {
			c.failf("GET /v1/intersect %v differs from the brute-force oracle (%v)", o.iv, err)
		}
	}
	return o.kind
}

// newHTTPClients splits the loaded intervals between the clients and gives
// each a disjoint id space for its inserts.
func newHTTPClients(seed int64, ivs []geom.Interval, span int64) ([]*httpClient, []*opGen) {
	clients := make([]*httpClient, httpClients)
	gens := make([]*opGen, httpClients)
	for k := range clients {
		var own []geom.Interval
		for i := k; i < len(ivs); i += httpClients {
			own = append(own, ivs[i])
		}
		// every 10th request is a write, alternating insert and delete
		gens[k] = newOpGen(seed+1+int64(k), span, own, uint64(len(ivs)+k), httpClients,
			func(i int) bool { return i%10 == 9 })
		clients[k] = &httpClient{gen: gens[k]}
	}
	return clients, gens
}

func runHTTP(p params) (*outcome, error) {
	n := p.size(200000, 1000)
	roundOps := p.size(1000, 100)     // requests per round, split between the clients
	countedReads := p.size(4000, 100) // reads pages_per_read is taken over
	ivs, span := genIntervals(p.seed, n)
	backend, setupS, err := medianSetup(setupReps,
		func() (*shard.Intervals, error) { return loadShards(ivs, span), nil },
		func(*shard.Intervals) {})
	if err != nil {
		return nil, err
	}
	s, err := serve(backend)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	out := &outcome{}
	clients, gens := newHTTPClients(p.seed, ivs, span)

	// Warm-up from one connection, so the oracle sees a serial history: its
	// reads are compared with the brute-force scan while its writes keep
	// the shards' pending logs non-empty.
	for reads := 0; reads < oracleReads(p); {
		if clients[0].step(s, gens) == opRead {
			reads++
		}
	}
	tally(p, out, clients)

	var m rounds
	var spaceRatio float64
	m.run(p.seconds, func(round int, lat *[]int64) int {
		drive(clients, roundOps/httpClients, func(c *httpClient) { c.step(s, nil) })
		for _, c := range clients {
			*lat = append(*lat, c.lat...)
			c.lat = c.lat[:0]
		}
		tally(p, out, clients)
		if round == countRounds-1 {
			spaceRatio = float64(backend.SpaceBlocks()) * blockB / float64(liveCount(gens))
		}
		return roundOps / httpClients * httpClients
	})

	// Page accesses per read are counted over a burst of reads alone, after
	// the timed rounds. Counted beside the writes, they would include the
	// group-commit flushes, which restructure trees in lumps of hundreds of
	// pages against the ~30 a read costs.
	for _, g := range gens {
		g.isWrite = readsOnly
	}
	pageAccesses := func() int64 { h, miss := backend.PoolStats(); return h + miss }
	pages0 := pageAccesses()
	drive(clients, countedReads/httpClients, func(c *httpClient) { c.step(s, nil) })
	pages := pageAccesses() - pages0
	tally(p, out, clients)

	if got, want := backend.Len(), liveCount(gens); got != want {
		out.fail(p, 1, "Len() = %d, want loaded + inserted - deleted = %d", got, want)
	}
	m.endToEnd(out, p, setupS, float64(pages)/float64(countedReads), countedReads, spaceRatio)
	return out, nil
}

// drive has every client run fn n times, concurrently, and waits for them.
func drive(clients []*httpClient, n int, fn func(c *httpClient)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(c)
			}
		}(c)
	}
	wg.Wait()
}

// tally moves the clients' attempted and failed operations into out.
func tally(p params, out *outcome, clients []*httpClient) {
	for _, c := range clients {
		out.attempted += c.attempted
		c.attempted = 0
		for _, f := range c.failures {
			out.fail(p, 1, "%s", f)
		}
		c.failures = nil
	}
}
