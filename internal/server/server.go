// Package server is the HTTP serving front-end over the sharded interval
// manager and class index. Its job is to convert concurrent single-query
// network traffic into the shard layer's batch entry points (StabBatch /
// IntersectBatch / QueryBatch) through an adaptive auto-batching window,
// while enforcing per-request deadlines and admission control so overload
// degrades by shedding instead of by collapse.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/replication"
	"ccidx/internal/shard"
)

var errServerClosed = errors.New("server: closed")

// errCheckpointBusy sheds a mutation that could not take the checkpoint
// lock's read side before its deadline: a long checkpoint must turn
// mutations away with 503 instead of letting them queue past their
// deadline and answer 504 after the client gave up.
var errCheckpointBusy = errors.New("checkpoint in progress")

// Backend is what the server serves. Intervals is required; Classes is
// optional (class endpoints 404 without it).
type Backend struct {
	Intervals *shard.Intervals
	Classes   *shard.Classes
}

// Config bounds the server's resources. Zero values take the defaults.
type Config struct {
	// MaxBatch caps how many coalesced queries one dispatch hands to the
	// shard layer. Default 1024.
	MaxBatch int
	// MaxWait caps how long an admitted query may be held waiting for its
	// batch to fill. Default 1ms.
	MaxWait time.Duration
	// MaxInFlight caps concurrently admitted requests; beyond it requests
	// are shed with 503. Default 1024.
	MaxInFlight int
	// RequestTimeout is the per-request deadline (504 on expiry). Default 2s.
	RequestTimeout time.Duration
	// DisableBatching routes queries one at a time straight to the
	// sequential shard paths — the experimental control arm.
	DisableBatching bool
	// ReadOnly rejects every mutation endpoint with 403: the configuration
	// of a read replica, whose only writer is its replication tailer.
	ReadOnly bool
	// Replication serves the snapshot + logical-WAL endpoints replicas
	// hydrate from (/v1/snapshot, /v1/wal). Requires a durable backend —
	// the snapshot is the checkpoint directory.
	Replication bool
	// ReplicationLog bounds the retained replication-log tail in ops
	// (default 65536). A replica that falls further behind than this must
	// re-hydrate from a fresh snapshot.
	ReplicationLog int
	// Status overrides the readiness document (/readyz and the epoch/LSN
	// response headers). A replica front-end injects its tailer's status
	// here; when nil the server reports itself as a ready primary.
	Status func() replication.Status
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	return c
}

// attrPair is one class-query result row.
type attrPair struct {
	Attr int64  `json:"attr"`
	ID   uint64 `json:"id"`
}

// Server is the HTTP front-end. Create with New, serve its Handler, Close
// when done (Close stops the batch dispatchers, not the backend).
type Server struct {
	cfg Config
	b   Backend
	m   *metrics
	mux *http.ServeMux

	admit chan struct{} // admission semaphore

	// ckptMu serializes checkpoints against mutations: mutations hold the
	// read side so a checkpoint captures a buffer boundary, never a torn
	// multi-structure update.
	ckptMu sync.RWMutex

	stab      *batcher[int64, []geom.Interval]
	intersect *batcher[geom.Interval, []geom.Interval]
	class     *batcher[shard.ClassQuery, []attrPair]

	// epoch identifies this server's mutation history; rep is the bounded
	// replication log (nil unless cfg.Replication). See replicate.go.
	epoch string
	rep   *repLog

	closeOnce sync.Once
}

// New wires a server over backend. The returned server owns three batch
// dispatcher goroutines until Close.
func New(b Backend, cfg Config) (*Server, error) {
	if b.Intervals == nil {
		return nil, fmt.Errorf("server: Backend.Intervals is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Replication && !b.Intervals.Durable() {
		return nil, fmt.Errorf("server: replication requires a durable (file-backed) backend")
	}
	s := &Server{
		cfg:   cfg,
		b:     b,
		m:     newMetrics(),
		admit: make(chan struct{}, cfg.MaxInFlight),
		epoch: newEpoch(),
	}
	if cfg.Replication {
		s.rep = newRepLog(cfg.ReplicationLog)
	}
	s.stab = newBatcher(cfg.MaxBatch, cfg.MaxWait, s.m, func(qs []int64) ([][]geom.Interval, error) {
		out := make([][]geom.Interval, len(qs))
		b.Intervals.StabBatch(qs, func(qi int, iv geom.Interval) bool {
			out[qi] = append(out[qi], iv)
			return true
		})
		return out, nil
	})
	s.intersect = newBatcher(cfg.MaxBatch, cfg.MaxWait, s.m, func(qs []geom.Interval) ([][]geom.Interval, error) {
		out := make([][]geom.Interval, len(qs))
		b.Intervals.IntersectBatch(qs, func(qi int, iv geom.Interval) bool {
			out[qi] = append(out[qi], iv)
			return true
		})
		return out, nil
	})
	if b.Classes != nil {
		s.class = newBatcher(cfg.MaxBatch, cfg.MaxWait, s.m, func(qs []shard.ClassQuery) ([][]attrPair, error) {
			out := make([][]attrPair, len(qs))
			b.Classes.QueryBatch(qs, func(qi int, attr int64, id uint64) bool {
				out[qi] = append(out[qi], attrPair{attr, id})
				return true
			})
			return out, nil
		})
	}
	s.m.gaugeFunc("ccidx_intervals", "Live intervals across all shards.", func() float64 {
		return float64(b.Intervals.Len())
	})
	s.m.gaugeFunc("ccidx_ios_total", "Cumulative page I/Os (reads+writes) across interval shards.", func() float64 {
		return float64(b.Intervals.Stats().IOs())
	})
	s.m.gaugeFunc("ccidx_pool_hit_rate", "Buffer-pool hit rate across interval shards.", func() float64 {
		h, miss := b.Intervals.PoolStats()
		if h+miss == 0 {
			return 0
		}
		return float64(h) / float64(h+miss)
	})
	s.m.gaugeFunc("ccidx_ctrl_cache_hits_total", "Metablock visits answered from the decoded control cache.", func() float64 {
		return float64(b.Intervals.CtrlCacheStats().Hits)
	})
	s.m.gaugeFunc("ccidx_ctrl_cache_misses_total", "Metablock visits that read and decoded their control blob.", func() float64 {
		return float64(b.Intervals.CtrlCacheStats().Misses)
	})
	s.m.gaugeFunc("ccidx_ctrl_cache_entries", "Decoded control blocks held across interval shards and runs.", func() float64 {
		return float64(b.Intervals.CtrlCacheStats().Entries)
	})
	s.m.gaugeFunc("ccidx_rebuilds_total", "Global rebuilds across interval shards.", func() float64 {
		return float64(b.Intervals.Rebuilds())
	})
	s.m.gaugeFunc("ccidx_inflight", "Currently admitted requests.", func() float64 {
		return float64(len(s.admit))
	})
	// Log-structured ingest instrumentation (all zero when the backend runs
	// the amortized-rebuild tree): run counts bound read fan-in; flush/merge/
	// compaction counters expose write amplification; stalls count inline
	// backpressure drains, the signal that ingest is outrunning the merger.
	s.m.gaugeFunc("ccidx_runs", "Immutable log-structured runs across interval shards.", func() float64 {
		return float64(b.Intervals.IngestStats().Runs)
	})
	s.m.gaugeFunc("ccidx_memtable_intervals", "Intervals buffered in active memtables across shards.", func() float64 {
		st := b.Intervals.IngestStats()
		return float64(st.MemtableLen)
	})
	s.m.gaugeFunc("ccidx_merge_flushes_total", "Memtable-to-run flushes across interval shards.", func() float64 {
		return float64(b.Intervals.IngestStats().Flushes)
	})
	s.m.gaugeFunc("ccidx_merge_merges_total", "Run-to-run merges across interval shards.", func() float64 {
		return float64(b.Intervals.IngestStats().Merges)
	})
	s.m.gaugeFunc("ccidx_merge_compactions_total", "Dead-fraction run compactions across interval shards.", func() float64 {
		return float64(b.Intervals.IngestStats().Compactions)
	})
	s.m.gaugeFunc("ccidx_merge_stalls_total", "Ingest backpressure stalls (inline drains) across interval shards.", func() float64 {
		return float64(b.Intervals.IngestStats().Stalls)
	})
	s.buildMux()
	return s, nil
}

// Close stops the batch dispatchers. Requests racing Close get 500s with
// errServerClosed; the backend is left for the caller to close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.stab.close()
		s.intersect.close()
		if s.class != nil {
			s.class.close()
		}
	})
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics access for in-process harnesses (E22 reads quantiles directly
// instead of re-parsing its own exposition text).
func (s *Server) LatencyQuantile(q float64) float64 { return s.m.latency.Quantile(q) }
func (s *Server) BatchMean() float64                { return s.m.batches.Mean() }
func (s *Server) BatchCount() int64                 { return s.m.batches.Count() }
func (s *Server) RequestCount() int64               { return s.m.requests.Load() }
func (s *Server) ShedCount() int64                  { return s.m.shed.Load() }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	// /healthz is LIVENESS only: the process is up and able to answer.
	// Whether a router should send reads here is /readyz's question.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /readyz bypasses admission control on purpose: a router's health
	// probes must keep working while the server sheds query load, or an
	// overloaded replica could never be steered around.
	mux.HandleFunc("/readyz", s.handleReady)
	if s.rep != nil {
		// The replication endpoints also bypass admission: a replica's
		// tail polls must not be shed under query overload, or lag would
		// grow exactly when the cluster most needs the replicas.
		mux.HandleFunc("/v1/wal", s.bare(http.MethodGet, s.handleWAL))
		mux.HandleFunc("/v1/snapshot", s.bare(http.MethodGet, s.handleSnapshot))
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.m.render(w)
	})
	mux.HandleFunc("/v1/stats", s.guard(http.MethodGet, s.handleStats))
	mux.HandleFunc("/v1/stab", s.guard(http.MethodGet, s.handleStab))
	mux.HandleFunc("/v1/intersect", s.guard(http.MethodGet, s.handleIntersect))
	mux.HandleFunc("/v1/class", s.guard(http.MethodGet, s.handleClass))
	mux.HandleFunc("/v1/insert", s.guard(http.MethodPost, s.handleInsert))
	mux.HandleFunc("/v1/delete", s.guard(http.MethodPost, s.handleDelete))
	mux.HandleFunc("/v1/flush", s.guard(http.MethodPost, s.handleFlush))
	mux.HandleFunc("/v1/checkpoint", s.guard(http.MethodPost, s.handleCheckpoint))
	s.mux = mux
}

// guard is the shared request spine: method check, admission control with
// load shedding, per-request deadline, latency and outcome accounting.
func (s *Server) guard(method string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.stamp(w)
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		default:
			s.m.shed.Inc()
			// Shed responses tell the client when to come back instead of
			// letting it hammer an overloaded server (ccload and the read
			// router both honor it).
			w.Header().Set("Retry-After", retryAfterShed)
			http.Error(w, "overloaded, request shed", http.StatusServiceUnavailable)
			return
		}
		s.m.requests.Inc()
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Track whether the handler started the response: once body bytes
		// (or an explicit status) went out, the error paths below must not
		// stack a second status line onto the stream — a handler that fails
		// mid-write (client gone, connection severed) returns an error with
		// a 200 already committed.
		tw := &trackingWriter{ResponseWriter: w}
		err := s.safeHandle(h, ctx, tw, r.WithContext(ctx))
		s.m.latency.Observe(time.Since(start).Seconds())
		if err != nil && tw.wrote {
			if !errors.Is(err, context.Canceled) {
				s.m.errors.Inc()
			}
			return
		}
		var corrupt disk.ErrCorrupt
		switch {
		case err == nil:
		case errors.As(err, &corrupt):
			// A page failed CRC verification somewhere under this request.
			// Detected corruption is a clean 500 — never a panic, never a
			// silently wrong answer — and is counted for alerting.
			s.m.corrupt.Inc()
			s.m.errors.Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
		case errors.Is(err, errCheckpointBusy):
			s.m.shed.Inc()
			w.Header().Set("Retry-After", retryAfterShed)
			http.Error(w, "checkpoint in progress, mutation shed", http.StatusServiceUnavailable)
		case errors.Is(err, errReadOnly):
			s.m.errors.Inc()
			http.Error(w, "read-only replica: mutations go to the primary", http.StatusForbidden)
		case errors.Is(err, context.DeadlineExceeded):
			s.m.timeouts.Inc()
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
		case errors.Is(err, errBadRequest):
			s.m.errors.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			s.m.errors.Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// trackingWriter records whether a handler committed the response (explicit
// WriteHeader or first body byte), so guard's error paths know whether an
// error status can still be sent.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

// safeHandle runs one handler, converting a backend panic into a request
// error. The unbatched query paths and the mutation paths call straight
// into the shard layer, whose trees panic with disk.ErrCorrupt when a page
// fails verification; recovering here (with %w so errors.As still sees the
// typed error) turns that into a 500 for one request instead of a dead
// process. Non-error panics keep their stack — those are real bugs.
// http.ErrAbortHandler passes through untouched: it is the stdlib's
// sanctioned "sever this connection" signal (the snapshot streamer uses it
// when the tar dies mid-stream), and converting it to an error would end
// the chunked response CLEANLY — a truncated tar that ends at an entry
// boundary would look complete to the replica.
func (s *Server) safeHandle(h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error, ctx context.Context, w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if e, ok := p.(error); ok {
				err = fmt.Errorf("backend panic: %w", e)
			} else {
				err = fmt.Errorf("backend panic: %v", p)
			}
		}
	}()
	return h(ctx, w, r)
}

// lockMutate takes the read side of the checkpoint lock, but gives up at
// the request deadline: TryRLock, then poll — sync.RWMutex has no
// context-aware acquire — so mutations blocked behind a long checkpoint
// shed with errCheckpointBusy instead of queueing indefinitely.
func (s *Server) lockMutate(ctx context.Context) error {
	if s.ckptMu.TryRLock() {
		return nil
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return errCheckpointBusy
		case <-tick.C:
			if s.ckptMu.TryRLock() {
				return nil
			}
		}
	}
}

var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

func qInt(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, badRequestf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequestf("parameter %q: %v", name, err)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// ivRow is the wire form of one interval result.
type ivRow struct {
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
	ID uint64 `json:"id"`
}

func ivRows(ivs []geom.Interval) []ivRow {
	rows := make([]ivRow, len(ivs))
	for i, iv := range ivs {
		rows[i] = ivRow{iv.Lo, iv.Hi, iv.ID}
	}
	return rows
}

func (s *Server) handleStab(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	q, err := qInt(r, "q")
	if err != nil {
		return err
	}
	var ivs []geom.Interval
	if s.cfg.DisableBatching {
		s.b.Intervals.Stab(q, func(iv geom.Interval) bool {
			ivs = append(ivs, iv)
			return true
		})
	} else if ivs, err = s.stab.do(ctx, q); err != nil {
		return err
	}
	return writeJSON(w, ivRows(ivs))
}

func (s *Server) handleIntersect(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	lo, err := qInt(r, "lo")
	if err != nil {
		return err
	}
	hi, err := qInt(r, "hi")
	if err != nil {
		return err
	}
	if lo > hi {
		return badRequestf("lo %d > hi %d", lo, hi)
	}
	q := geom.Interval{Lo: lo, Hi: hi}
	var ivs []geom.Interval
	if s.cfg.DisableBatching {
		s.b.Intervals.Intersect(q, func(iv geom.Interval) bool {
			ivs = append(ivs, iv)
			return true
		})
	} else if ivs, err = s.intersect.do(ctx, q); err != nil {
		return err
	}
	return writeJSON(w, ivRows(ivs))
}

func (s *Server) handleClass(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if s.b.Classes == nil {
		return badRequestf("no class index attached")
	}
	class, err := qInt(r, "class")
	if err != nil {
		return err
	}
	a1, err := qInt(r, "a1")
	if err != nil {
		return err
	}
	a2, err := qInt(r, "a2")
	if err != nil {
		return err
	}
	if a1 > a2 {
		return badRequestf("a1 %d > a2 %d", a1, a2)
	}
	cq := shard.ClassQuery{Class: int(class), A1: a1, A2: a2}
	var rows []attrPair
	if s.cfg.DisableBatching {
		s.b.Classes.Query(cq.Class, cq.A1, cq.A2, func(attr int64, id uint64) bool {
			rows = append(rows, attrPair{attr, id})
			return true
		})
	} else if rows, err = s.class.do(ctx, cq); err != nil {
		return err
	}
	if rows == nil {
		rows = []attrPair{}
	}
	return writeJSON(w, rows)
}

func (s *Server) handleInsert(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	lo, err := qInt(r, "lo")
	if err != nil {
		return err
	}
	hi, err := qInt(r, "hi")
	if err != nil {
		return err
	}
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	if lo > hi {
		return badRequestf("lo %d > hi %d", lo, hi)
	}
	if err := s.mutable(); err != nil {
		return err
	}
	if err := s.lockMutate(ctx); err != nil {
		return err
	}
	defer s.ckptMu.RUnlock()
	s.b.Intervals.Insert(geom.Interval{Lo: lo, Hi: hi, ID: uint64(id)})
	// Acknowledge into the replication log while still holding the
	// checkpoint read-lock: the snapshot endpoint takes the write side, so
	// its (image, LSN) capture can never catch a mutation applied to the
	// backend but not yet logged (or vice versa).
	s.logRep(replication.Op{Lo: lo, Hi: hi, ID: uint64(id)})
	return writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleDelete(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	if err := s.mutable(); err != nil {
		return err
	}
	if err := s.lockMutate(ctx); err != nil {
		return err
	}
	defer s.ckptMu.RUnlock()
	found := s.b.Intervals.Delete(uint64(id))
	if found {
		s.logRep(replication.Op{Del: true, ID: uint64(id)})
	}
	return writeJSON(w, map[string]bool{"ok": true, "found": found})
}

func (s *Server) handleFlush(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.mutable(); err != nil {
		return err
	}
	if err := s.lockMutate(ctx); err != nil {
		return err
	}
	defer s.ckptMu.RUnlock()
	s.b.Intervals.Flush()
	if s.b.Classes != nil {
		s.b.Classes.Flush()
	}
	return writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleCheckpoint(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.mutable(); err != nil {
		return err
	}
	if !s.b.Intervals.Durable() {
		return badRequestf("backend is in-memory; nothing to checkpoint")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.b.Intervals.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if s.b.Classes != nil && s.b.Classes.Durable() {
		if err := s.b.Classes.Checkpoint(); err != nil {
			return fmt.Errorf("class checkpoint: %w", err)
		}
	}
	return writeJSON(w, map[string]any{"ok": true, "seq": s.b.Intervals.Seq()})
}

// statsDoc is the /v1/stats document — the load generator and E22 read
// these counters as deltas to compute ios/query per phase.
type statsDoc struct {
	Intervals   int     `json:"intervals"`
	Reads       int64   `json:"reads"`
	Writes      int64   `json:"writes"`
	IOs         int64   `json:"ios"`
	PoolHits    int64   `json:"pool_hits"`
	PoolMisses  int64   `json:"pool_misses"`
	CtrlHits    int64   `json:"ctrl_cache_hits"`
	CtrlMisses  int64   `json:"ctrl_cache_misses"`
	CtrlEntries int64   `json:"ctrl_cache_entries"`
	Spared      int64   `json:"pages_spared"`
	Rebuilds    int     `json:"rebuilds"`
	Runs        int     `json:"runs"`
	MemtableLen int     `json:"memtable_len"`
	Flushes     int64   `json:"flushes"`
	Merges      int64   `json:"merges"`
	Compactions int64   `json:"compactions"`
	Stalls      int64   `json:"stalls"`
	Requests    int64   `json:"requests"`
	Shed        int64   `json:"shed"`
	Timeouts    int64   `json:"timeouts"`
	Errors      int64   `json:"errors"`
	Batches     int64   `json:"batches"`
	BatchMean   float64 `json:"batch_mean"`
	LatencyP50  float64 `json:"latency_p50_s"`
	LatencyP95  float64 `json:"latency_p95_s"`
	LatencyP99  float64 `json:"latency_p99_s"`
	LatencyMean float64 `json:"latency_mean_s"`
}

func (s *Server) handleStats(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	st := s.b.Intervals.Stats()
	hits, misses := s.b.Intervals.PoolStats()
	if s.b.Classes != nil {
		cst := s.b.Classes.Stats()
		st.Reads += cst.Reads
		st.Writes += cst.Writes
	}
	ing := s.b.Intervals.IngestStats()
	cc := s.b.Intervals.CtrlCacheStats()
	return writeJSON(w, statsDoc{
		Intervals:   s.b.Intervals.Len(),
		Reads:       st.Reads,
		Writes:      st.Writes,
		IOs:         st.IOs(),
		PoolHits:    hits,
		PoolMisses:  misses,
		CtrlHits:    cc.Hits,
		CtrlMisses:  cc.Misses,
		CtrlEntries: cc.Entries,
		Spared:      st.Spared,
		Rebuilds:    s.b.Intervals.Rebuilds(),
		Runs:        ing.Runs,
		MemtableLen: ing.MemtableLen,
		Flushes:     ing.Flushes,
		Merges:      ing.Merges,
		Compactions: ing.Compactions,
		Stalls:      ing.Stalls,
		Requests:    s.m.requests.Load(),
		Shed:        s.m.shed.Load(),
		Timeouts:    s.m.timeouts.Load(),
		Errors:      s.m.errors.Load(),
		Batches:     s.m.batches.Count(),
		BatchMean:   s.m.batches.Mean(),
		LatencyP50:  s.m.latency.Quantile(0.50),
		LatencyP95:  s.m.latency.Quantile(0.95),
		LatencyP99:  s.m.latency.Quantile(0.99),
		LatencyMean: s.m.latency.Mean(),
	})
}
