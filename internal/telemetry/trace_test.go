package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestTracerSpansAndEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sp := tr.StartSpan("tuning/tune")
	tr.Event("lifetime/cycle", Attrs{"cycle": 1, "acc": 0.75})
	sp.End(Attrs{"iterations": 12, "converged": true})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// The event was emitted before the span ended, so it comes first.
	if recs[0].Type != "event" || recs[0].Name != "lifetime/cycle" || recs[0].Attrs["cycle"].(float64) != 1 {
		t.Fatalf("event record wrong: %+v", recs[0])
	}
	if recs[1].Type != "span" || recs[1].Name != "tuning/tune" || recs[1].Span == 0 {
		t.Fatalf("span record wrong: %+v", recs[1])
	}
	if recs[1].Attrs["converged"].(bool) != true {
		t.Fatalf("span attrs lost: %+v", recs[1].Attrs)
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("a/b")
	if sp != nil {
		t.Fatal("nil tracer must return an inactive span")
	}
	sp.End(Attrs{"x": 1})
	tr.Event("a/b", nil)
	if tr.Err() != nil {
		t.Fatal("nil tracer must report no error")
	}
}

func TestTracerConcurrentLinesWhole(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Event("t/e", Attrs{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the stream: %v", err)
	}
	if len(recs) != 400 {
		t.Fatalf("got %d records, want 400", len(recs))
	}
}

func TestReadTraceTornTail(t *testing.T) {
	in := `{"type":"event","name":"a/b","t_us":1}` + "\n" + `{"type":"span","name":`
	recs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	// A malformed interior line is corruption.
	in = `{"bad` + "\n" + `{"type":"event","name":"a/b","t_us":1}` + "\n"
	if _, err := ReadTrace(strings.NewReader(in)); err == nil {
		t.Fatal("malformed interior line must be an error")
	}
}

func TestTracerUnencodableAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Event("a/b", Attrs{"bad": func() {}}) // functions cannot marshal
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != "error" {
		t.Fatalf("unencodable attrs must degrade to an error record, got %+v", recs)
	}
}
