package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attrs are the structured attributes attached to a span or event.
// Values must be JSON-encodable (numbers, strings, bools).
type Attrs map[string]any

// Tracer emits spans and events as JSONL, one object per line:
//
//	{"type":"event","name":"lifetime/cycle","t_us":1234,"attrs":{...}}
//	{"type":"span","name":"tuning/tune","span":7,"t_us":900,"dur_us":334,"attrs":{...}}
//
// t_us is microseconds since the tracer was created; span lines are
// written when the span ends. Writes are serialized, so every line is
// whole — a killed process can tear at most the final line (the same
// torn-tail contract as the campaign checkpoint journal).
//
// A nil *Tracer is the disabled tracer: StartSpan returns a nil span
// and Event is a no-op, so call sites need no enabled-check.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	nextID atomic.Uint64
	err    error
}

// NewTracer returns a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, start: time.Now()}
}

// traceLine is the wire form of one span or event.
type traceLine struct {
	Type  string `json:"type"`
	Name  string `json:"name"`
	Span  uint64 `json:"span,omitempty"`
	TUs   int64  `json:"t_us"`
	DurUs int64  `json:"dur_us,omitempty"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

func (t *Tracer) emit(l traceLine) {
	b, err := json.Marshal(l)
	if err != nil {
		// Unencodable attrs: record the failure, keep the stream valid.
		b, _ = json.Marshal(traceLine{Type: "error", Name: l.Name, TUs: l.TUs,
			Attrs: Attrs{"error": err.Error()}})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return // sink broke earlier; tracing is best-effort
	}
	if _, err := t.w.Write(append(b, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first sink write error (nil while healthy).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Event emits one instantaneous event.
func (t *Tracer) Event(name string, attrs Attrs) {
	if t == nil {
		return
	}
	t.emit(traceLine{Type: "event", Name: name, TUs: time.Since(t.start).Microseconds(), Attrs: attrs})
}

// Span is one in-flight timed operation; End emits it.
type Span struct {
	t     *Tracer
	name  string
	id    uint64
	start time.Time
}

// StartSpan opens a span. On the nil tracer it returns a nil span
// whose End is a no-op.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, id: t.nextID.Add(1), start: time.Now()}
}

// End emits the span line with its duration and the given attributes.
// Safe on the nil span.
func (s *Span) End(attrs Attrs) {
	if s == nil {
		return
	}
	s.t.emit(traceLine{
		Type:  "span",
		Name:  s.name,
		Span:  s.id,
		TUs:   s.start.Sub(s.t.start).Microseconds(),
		DurUs: time.Since(s.start).Microseconds(),
		Attrs: attrs,
	})
}

// TraceRecord is the parsed form of one JSONL trace line, used by
// tests and tooling reading back a -trace-out file.
type TraceRecord struct {
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	Span  uint64         `json:"span,omitempty"`
	TUs   int64          `json:"t_us"`
	DurUs int64          `json:"dur_us,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// ReadTrace parses a JSONL trace stream. A torn (non-JSON) final line
// is tolerated, matching the writer's kill contract; a malformed
// interior line is an error.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []TraceRecord
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		if pendingErr != nil {
			// The malformed line was not the last one: corruption.
			return nil, pendingErr
		}
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			pendingErr = fmt.Errorf("telemetry: trace line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read trace: %w", err)
	}
	return out, nil
}
