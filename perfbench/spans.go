package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one replayed simulation share Run;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// SelfNs is the span's duration minus the time its children cover;
	// filled in by finish.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory; they are written once the run ends so
// that writing costs nothing inside the measured calls.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name and returns the span's ID.
func (t *tracer) do(run, parent int, name string, f func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNs: int64(time.Since(t.t0))})
	f()
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
	return id
}

// open starts a span that close ends, for spans that enclose other
// spans.
func (t *tracer) open(run, parent int, name string) int {
	return t.do(run, parent, name, func() {})
}

func (t *tracer) close(id int) { t.spans[id-1].EndNs = int64(time.Since(t.t0)) }

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// finish computes every span's self time. Children of one span run one
// after another, so their durations never overlap.
func (t *tracer) finish() {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - child[s.ID]
	}
}

// selfMs returns the self times in milliseconds of every span named
// name.
func (t *tracer) selfMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.SelfNs)/1e6)
		}
	}
	return out
}

// write stores the run context and then one span per line.
func (t *tracer) write(path string, ctx runContext) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		f.Close()
		return err
	}
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

// median returns the middle value (mean of the middle two for an even
// count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
