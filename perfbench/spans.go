package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the request it served
// (Trace: a run, a sweep point, a job), the simulated rank that made it
// (-1 outside ranks), the span that caused it, and its interval in
// nanoseconds from the start of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, at the end.
// Rank goroutines record concurrently.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// scope is where new spans attach: a request and a parent span.
type scope struct {
	rec    *recorder
	trace  string
	rank   int
	parent int
}

func (r *recorder) scope(trace string, rank int) scope {
	return scope{rec: r, trace: trace, rank: rank, parent: -1}
}

// open starts a span; the returned function ends it, records it and
// returns its duration. The span's ID is reserved at open so children
// can name it as their parent.
func (sc scope) open(name string) (scope, func() time.Duration) {
	r := sc.rec
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: sc.parent, Trace: sc.trace, Name: name, Rank: sc.rank})
	r.mu.Unlock()
	start := time.Now()
	child := sc
	child.parent = id
	return child, func() time.Duration {
		end := time.Now()
		r.mu.Lock()
		r.spans[id].Start = int64(start.Sub(r.t0))
		r.spans[id].End = int64(end.Sub(r.t0))
		r.mu.Unlock()
		return end.Sub(start)
	}
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name, trace string, rank int, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: -1, Trace: trace, Name: name, Rank: rank,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// do records fn as one span and returns its duration.
func (sc scope) do(name string, fn func()) time.Duration {
	_, end := sc.open(name)
	fn()
	return end()
}

// durations lists the durations of the spans named name, from the given
// rank (any rank when rank < -1) and trace (any when "").
func (r *recorder) durations(name, trace string, rank int) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && (trace == "" || s.Trace == trace) && (rank < -1 || s.Rank == rank) {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
