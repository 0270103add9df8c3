package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"irgrid/internal/faultinject"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
)

// The HTTP golden suite snapshots the service's wire format — error
// envelopes and job-status documents — into testdata/server/*.json.
// Any change to a status code, error code, message or document shape
// shows up as a golden diff. Regenerate after an intentional API
// change with:
//
//	go test ./internal/server -run TestGoldenHTTP -update
//
// and review the JSON diff like any other code change.

var updateHTTPGolden = flag.Bool("update", false, "rewrite testdata/server fixtures with current responses")

// goldenExchange is one snapshotted response: the status code plus the
// decoded body with volatile fields scrubbed.
type goldenExchange struct {
	Status int `json:"status"`
	Body   any `json:"body"`
}

// scrub zeroes wall-clock fields and drops measured ones so fixtures
// are deterministic across runs and machines.
func scrub(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "created_unix_ns", "started_unix_ns", "finished_unix_ns", "degraded_since_unix_ns":
				if f, ok := val.(float64); ok && f != 0 {
					x[k] = 1
				}
			case "spans", "runtime_seconds", "version":
				delete(x, k)
			case "degraded_reason", "reason":
				// Degraded reasons embed temp-dir paths; pin the shape,
				// not the path.
				if s, ok := val.(string); ok && s != "" && s != "draining" {
					x[k] = "scrubbed"
				}
			default:
				x[k] = scrub(val)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrub(x[i])
		}
		return x
	default:
		return v
	}
}

func checkGolden(t *testing.T, name string, status int, body []byte) {
	t.Helper()
	var doc any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: response is not JSON: %v\n%s", name, err, body)
		}
	}
	got, err := json.MarshalIndent(goldenExchange{Status: status, Body: scrub(doc)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "server", name+".json")
	if *updateHTTPGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden %s\n--- got ---\n%s--- want ---\n%s\nregenerate with: go test ./internal/server -run TestGoldenHTTP -update",
			name, path, got, want)
	}
}

// TestGoldenHTTP drives the live API through every documented error
// path and the status document of a finished job, snapshotting each
// response against its fixture.
func TestGoldenHTTP(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.Workers = 1
		c.QueueDepth = 4
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	raw := func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, ts.HTTP.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Error envelopes that need no jobs at all.
	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"error_invalid_json", http.MethodPost, "/v1/jobs", []byte(`{not json`)},
		{"error_unknown_field", http.MethodPost, "/v1/jobs", []byte(`{"benchmark":"apte","bogus":1}`)},
		{"error_workers_option", http.MethodPost, "/v1/jobs", []byte(`{"benchmark":"apte","options":{"workers":2}}`)},
		{"error_invalid_options", http.MethodPost, "/v1/jobs", []byte(`{"benchmark":"apte","options":{"alpha":-1}}`)},
		{"error_two_sources", http.MethodPost, "/v1/jobs", []byte(`{"benchmark":"apte","yal":"MODULE x;"}`)},
		{"error_not_found", http.MethodGet, "/v1/jobs/j99999999", nil},
		{"error_method_not_allowed", http.MethodPut, "/v1/jobs", nil},
	} {
		status, body := raw(tc.method, tc.path, tc.body)
		checkGolden(t, tc.name, status, body)
	}

	// Job-bearing fixtures: pin the worker on a long job so the second
	// submission is deterministically queued.
	blocker, err := ts.Submit(ctx, longRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitStatus(ctx, blocker.ID, func(st *server.JobStatus) bool {
		return st.State == server.StateRunning
	}); err != nil {
		t.Fatal(err)
	}
	queuedBody, err := json.Marshal(testRequest("apte", 7))
	if err != nil {
		t.Fatal(err)
	}
	status, body := raw(http.MethodPost, "/v1/jobs", queuedBody)
	checkGolden(t, "status_accepted", status, body)
	var queued server.JobStatus
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}

	status, body = raw(http.MethodGet, fmt.Sprintf("/v1/jobs/%s/result", queued.ID), nil)
	checkGolden(t, "error_not_ready", status, body)

	status, body = raw(http.MethodDelete, fmt.Sprintf("/v1/jobs/%s", queued.ID), nil)
	checkGolden(t, "status_canceled", status, body)
	status, body = raw(http.MethodGet, fmt.Sprintf("/v1/jobs/%s/result", queued.ID), nil)
	checkGolden(t, "error_job_canceled", status, body)

	// Unpin the worker and snapshot a finished job's status document.
	if _, err := ts.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitTerminal(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	done, err := ts.Submit(ctx, testRequest("apte", 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitTerminal(ctx, done.ID); err != nil {
		t.Fatal(err)
	}
	status, body = raw(http.MethodGet, fmt.Sprintf("/v1/jobs/%s", done.ID), nil)
	checkGolden(t, "status_done", status, body)

	// Liveness and readiness docs ride along (version scrubbed).
	status, body = raw(http.MethodGet, "/healthz", nil)
	checkGolden(t, "healthz", status, body)
	status, body = raw(http.MethodGet, "/readyz", nil)
	checkGolden(t, "readyz", status, body)

	// Degraded mode on the wire: with every durable write under the
	// state dir failing, a job is still accepted and runs to done from
	// memory; /healthz stays 200 (liveness) reporting durable=false,
	// /readyz flips to 503.
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.FSWrite && strings.HasPrefix(path, ts.StateDir) {
			return errors.New("injected EIO")
		}
		return nil
	})
	defer faultinject.Reset()
	deg, err := ts.Submit(ctx, tinyRequest(11))
	if err != nil {
		t.Fatalf("submit while store degraded: %v", err)
	}
	if st, werr := ts.WaitTerminal(ctx, deg.ID); werr != nil || st.State != server.StateDone {
		t.Fatalf("degraded job ended (%v, %v), want done", st, werr)
	}
	status, body = raw(http.MethodGet, "/healthz", nil)
	checkGolden(t, "healthz_degraded", status, body)
	status, body = raw(http.MethodGet, "/readyz", nil)
	checkGolden(t, "readyz_degraded", status, body)
	faultinject.Reset()
}
