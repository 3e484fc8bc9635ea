package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, interval relative to
// the tracer's start, the span that caused it (-1 for none) and the
// request it belongs to (-1 for daemon-wide spans such as fleet RPCs).
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	// Bytes counts payload bytes a wire span moved (request + response).
	Bytes int64 `json:"bytes,omitempty"`
	// N is a per-span count: leases granted by a claim, verdicts carried
	// by a report.
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed run calls the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id, recording its byte and item counts.
func (t *tracer) end(id int, bytes int64, n int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Bytes, s.N = now, bytes, n
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// spanIndex groups finished spans for the per-layer reductions.
type spanIndex struct {
	spans    []span
	byName   map[string][]span
	children map[int][]span
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, byName: map[string][]span{}, children: map[int][]span{}}
	for _, s := range spans {
		x.byName[s.Name] = append(x.byName[s.Name], s)
		if s.Parent >= 0 {
			x.children[s.Parent] = append(x.children[s.Parent], s)
		}
	}
	return x
}

// total is the summed duration of every span with the name.
func (x *spanIndex) total(name string) time.Duration {
	var d time.Duration
	for _, s := range x.byName[name] {
		d += s.End - s.Start
	}
	return d
}

// meanMS is the mean duration of the named spans in milliseconds (0
// when there are none: the workload bypasses that layer).
func (x *spanIndex) meanMS(name string) float64 {
	n := len(x.byName[name])
	if n == 0 {
		return 0
	}
	return ms(x.total(name)) / float64(n)
}

// self is the span's self time: its duration minus the union of its
// children's intervals.
func (x *spanIndex) self(s span) time.Duration {
	var ivs []interval
	for _, c := range x.children[s.ID] {
		ivs = append(ivs, interval{c.Start, c.End})
	}
	return selfTime(interval{s.Start, s.End}, ivs)
}

// coveredByChildren is the union of the named children of s.
func (x *spanIndex) coveredByChildren(s span, name string) time.Duration {
	var ivs []interval
	for _, c := range x.children[s.ID] {
		if c.Name == name {
			ivs = append(ivs, interval{c.Start, c.End})
		}
	}
	return covered(ivs, s.Start, s.End)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
