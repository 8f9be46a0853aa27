package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func TestDebugServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("server/cache_hits").Add(7)
	srv, err := StartDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get("/metrics/json")
	if code != 200 {
		t.Fatalf("/metrics/json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics/json is not a snapshot: %v\n%s", err, body)
	}
	if v, ok := snap.Counter("server/cache_hits"); !ok || v != 7 {
		t.Fatalf("served snapshot lost the counter: %v %v", v, ok)
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestDebugServerNilRegistry(t *testing.T) {
	srv, err := StartDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics/json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("nil-registry snapshot must still be valid JSON: %v", err)
	}
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry must serve an empty snapshot: %+v", snap)
	}
}

func TestDebugServerCloseNil(t *testing.T) {
	var srv *DebugServer
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
