package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"memlife/internal/campaign"
)

// FuzzQueueReplay feeds arbitrary bytes to the daemon's job-journal
// replay (openQueue), the first thing a restarted daemon reads. The
// seed corpus (testdata/fuzz/FuzzQueueReplay) holds a clean
// submit/done/failed history, a torn tail, interior garbage, records
// of unknown jobs and ops, a malformed submit and an empty file.
// Contract: openQueue returns an error or a queue, and never panics or
// hangs; a journal it opened reopens to the same jobs, because opening
// only cuts a torn tail that replay already ignored.
func FuzzQueueReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), queueFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := openQueue(campaign.OSFiles{}, path, 8)
		if err != nil {
			return
		}
		first := q.Jobs()
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		q2, err := openQueue(campaign.OSFiles{}, path, 8)
		if err != nil {
			t.Fatalf("reopen of a journal that opened cleanly: %v", err)
		}
		defer q2.Close()
		again := q2.Jobs()
		if len(again) != len(first) {
			t.Fatalf("reopen replayed %d jobs, first open %d", len(again), len(first))
		}
		states := map[string]JobState{}
		for _, j := range first {
			states[j.ID] = j.State
		}
		for _, j := range again {
			if st, ok := states[j.ID]; !ok || st != j.State {
				t.Fatalf("job %s is %q after reopen, %q before", j.ID, j.State, st)
			}
		}
	})
}

// FuzzHandleSubmit feeds arbitrary bodies and seeds parameters to the
// POST /v1/jobs handler, on a fresh store and queue per input. The
// seed corpus (testdata/fuzz/FuzzHandleSubmit) holds the serve smoke
// spec, a fleet spec, JSON that is not a spec, unknown fields, an
// empty body and seeds that are zero, negative, too large or not a
// number. Contract: the handler answers 200, 202, 400 or 413 with a
// JSON body, and never panics or hangs; an accepted job has a valid key and
// a Location header. Every input builds a store on disk, so minimizing
// a new input at the default -fuzzminimizetime stalls the exec count
// for up to a minute; a few seconds is enough.
func FuzzHandleSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, seeds string) {
		dir := t.TempDir()
		st, err := openStore(campaign.OSFiles{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		q, err := openQueue(campaign.OSFiles{}, st.queuePath(), 8)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		s := &Server{cfg: Config{Dir: dir}.withDefaults(), store: st, queue: q, tel: newServerTel()}

		target := "/v1/jobs?" + url.Values{"seeds": {seeds}}.Encode()
		rec := httptest.NewRecorder()
		s.handleSubmit(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))

		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			var env jobEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if !validKey(env.ID) || rec.Header().Get("Location") != "/v1/jobs/"+env.ID {
				t.Fatalf("accepted job %q with Location %q", env.ID, rec.Header().Get("Location"))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
