package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one recorded interval. Spans of one op share an op id; the
// parent is the index of the enclosing span, -1 for an op's root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. It is used from one goroutine at a time (the traced
// lifetime replica is serial), so an explicit stack gives each span its
// parent. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// startOp opens the root span of a new op.
func (t *tracer) startOp(name string) int {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name)
}

// layerTimes aggregates the spans: total is each span name's summed
// duration, self is each layer's (the name up to its first '.') summed
// self time — a span's duration minus its direct children's — and
// uncovered is the roots' self time, the part of the ops no layer span
// covers. Children are serial, so their durations never overlap.
type layerTimes struct {
	total     map[string]time.Duration
	self      map[string]time.Duration
	uncovered time.Duration
	ops       time.Duration
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		lt.total[s.Name] += d
		if s.Parent < 0 {
			lt.ops += d
			lt.uncovered += d - child[i]
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		lt.self[layer] += d - child[i]
	}
	return lt
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
