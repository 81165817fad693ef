package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. The spans of one request share req; parent names the rung
// above, of which this call replays the lower part. Rungs of a ladder run
// one after the other, not nested, so a rung's self time is its duration
// minus the durations of its children, not minus an overlap.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // the two HTTP clients record concurrently
	spans []span
	reqs  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// req returns a fresh request identifier.
func (t *tracer) req() int { return int(t.reqs.Add(1)) }

// call times fn as one span and returns its duration in ns.
func (t *tracer) call(name, parent string, req int, fn func()) int64 {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name, req, parent, int64(start), int64(end)})
	t.mu.Unlock()
	return int64(end - start)
}

// since returns the spans recorded from index i on (one section's spans).
func (t *tracer) since(i int) []span { return t.spans[i:] }

// durations returns the durations of the spans called name, ascending.
func durations(spans []span, name string) []int64 {
	var ds []int64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	sortInt64s(ds)
	return ds
}

// selfTimes returns, per span name, each span's duration minus the summed
// durations of the spans of the same request that name it as parent,
// ascending.
func selfTimes(spans []span) map[string][]int64 {
	type key struct {
		req  int
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.dur()
		}
	}
	self := make(map[string][]int64)
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], s.dur()-children[key{s.Req, s.Name}])
	}
	for _, ds := range self {
		sortInt64s(ds)
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
