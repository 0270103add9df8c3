package server_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/ckpt"
	"irgrid/internal/faultinject"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
	"irgrid/telemetry"
)

// The chaos battery is the CrashMonkey-style proof of the service's
// storage-fault contract: every registered faultinject.Point is
// exercised against a live server, and under each injected failure no
// accepted job is lost, no result is torn or duplicated, and a healed
// restart serves bits identical to a direct library run.
//
// Tests here arm process-global hooks, so none of them run parallel.

// waitMetric polls reg until the named instrument reads want (exact)
// or the deadline passes.
func waitMetric(t *testing.T, reg *telemetry.Registry, name string, want float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var got float64
	for time.Now().Before(deadline) {
		got = reg.Snapshot()[name]
		if got == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("metric %s = %v, want %v (after %s)", name, got, want, timeout)
}

// waitState polls a job until it reaches exactly state — unlike
// WaitTerminal (which accepts any terminal state, quarantined
// included) it pins the specific outcome under test.
func waitState(ctx context.Context, t *testing.T, c *harness.Client, id, state string) *server.JobStatus {
	t.Helper()
	st, err := c.WaitStatus(ctx, id, func(st *server.JobStatus) bool {
		return st.State == state
	})
	if err != nil {
		t.Fatalf("waiting for job %s to reach %q: %v", id, state, err)
	}
	return st
}

// directReference runs the same job testRequest(bench, seed) describes
// through the library, for bit-identity assertions.
func directReference(t *testing.T, bench string, seed int64) *floorplan.Result {
	t.Helper()
	c, err := floorplan.Benchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	want, err := floorplan.Run(c, directOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// chaosServer boots a server tuned for fault drills: fast store
// retries, fast disk re-probe, and a registry the test owns so metric
// assertions survive restarts (Restart reuses the same Config).
func chaosServer(t *testing.T, opts ...func(*server.Config)) (*harness.TestServer, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ts := harness.StartTestServer(t, append([]func(*server.Config){func(c *server.Config) {
		c.Obs = reg
		c.StoreRetryDelay = time.Millisecond
		c.ProbeEvery = 25 * time.Millisecond
	}}, opts...)...)
	return ts, reg
}

// TestFaultMatrixCoversAllRegisteredPoints is the matrix driver: it
// iterates every Point the faultinject registry declares and runs its
// scenario. A newly registered point without a scenario fails the
// test, so new fault sites cannot ship unexercised; a scenario whose
// hook never fired fails too, so a seam that silently stopped firing
// is caught.
func TestFaultMatrixCoversAllRegisteredPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server per fault point")
	}
	scenarios := map[faultinject.Point]func(*testing.T) int64{
		faultinject.FSCreate:      func(t *testing.T) int64 { return writeFaultScenario(t, faultinject.FSCreate, 31) },
		faultinject.FSWrite:       func(t *testing.T) int64 { return writeFaultScenario(t, faultinject.FSWrite, 32) },
		faultinject.FSSync:        func(t *testing.T) int64 { return writeFaultScenario(t, faultinject.FSSync, 33) },
		faultinject.FSRename:      func(t *testing.T) int64 { return writeFaultScenario(t, faultinject.FSRename, 34) },
		faultinject.FSTornWrite:   func(t *testing.T) int64 { return writeFaultScenario(t, faultinject.FSTornWrite, 35) },
		faultinject.FSRead:        readFaultScenario,
		faultinject.FSCorruptRead: corruptReadScenario,
		faultinject.JobRun:        jobRunFaultScenario,
		faultinject.CheckpointWrite: func(t *testing.T) int64 {
			return observeScenario(t, faultinject.CheckpointWrite, testRequest("apte", 47))
		},
	}
	for _, p := range faultinject.Points() {
		sc, ok := scenarios[p]
		if !ok {
			t.Errorf("registered fault point %q (%s) has no chaos scenario — add one to the matrix",
				p, faultinject.Doc(p))
			continue
		}
		t.Run(string(p), func(t *testing.T) {
			defer faultinject.Reset()
			if fired := sc(t); fired == 0 {
				t.Fatalf("fault point %q was never fired by its scenario — the seam is dead", p)
			}
		})
	}
}

// writeFaultScenario drills one fs write-path point: with every
// envelope write under the state dir failing at that point, a
// submitted job is still accepted, still runs to done, and its result
// is served from memory; disarming the fault lets the probe loop heal
// the store, and a restart then serves the identical result from the
// flushed durable records.
func writeFaultScenario(t *testing.T, point faultinject.Point, seed int64) int64 {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var fired atomic.Int64
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == point && strings.HasPrefix(path, ts.StateDir) {
			fired.Add(1)
			return errors.New("injected EIO")
		}
		return nil
	})
	defer faultinject.Reset()

	st, err := ts.Submit(ctx, testRequest("apte", seed))
	if err != nil {
		t.Fatalf("submit with %s failing: %v", point, err)
	}
	fin, err := ts.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("job under %s fault finished %q (%s), want done", point, fin.State, fin.Error)
	}
	// The result is real and servable even though the disk is gone.
	if _, err := ts.Result(ctx, st.ID); err != nil {
		t.Fatalf("result while degraded: %v", err)
	}
	snap := reg.Snapshot()
	if snap["store_degraded"] != 1 {
		t.Errorf("store_degraded = %v while every write fails, want 1", snap["store_degraded"])
	}
	if snap["store_write_retries"] == 0 {
		t.Error("store_write_retries = 0, want retries before degrading")
	}

	// Disarm: the next probe heals the store and flushes the records.
	faultinject.Reset()
	waitMetric(t, reg, "store_degraded", 0, 5*time.Second)

	// A restart over the healed store recovers the job from the flushed
	// records and serves the identical bits.
	ts = ts.Restart(t)
	fin, err = ts.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("recovered job state %q, want done", fin.State)
	}
	got, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after heal+restart: %v", err)
	}
	assertResultMatchesDirect(t, got, directReference(t, "apte", seed))
	return fired.Load()
}

// readFaultScenario drills fs.read: a done job whose job.json cannot
// be read at recovery is quarantined as a tombstone rather than
// silently vanishing — and because the quarantine never destroys the
// record, a later restart with the disk healthy restores the job and
// its exact result. Transient read faults self-heal.
func readFaultScenario(t *testing.T) int64 {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := ts.Submit(ctx, testRequest("apte", 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitTerminal(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	var fired atomic.Int64
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.FSRead && strings.HasPrefix(path, ts.StateDir) &&
			strings.HasSuffix(path, "job.json") {
			fired.Add(1)
			return errors.New("injected EIO on read")
		}
		return nil
	})
	defer faultinject.Reset()

	ts = ts.Restart(t)
	q := waitState(ctx, t, ts.Client, st.ID, server.StateQuarantined)
	if !strings.Contains(q.Error, "quarantined at recovery") {
		t.Errorf("quarantine reason = %q, want a recovery-scan reason", q.Error)
	}
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined = %v, want 1", n)
	}

	// Disk healthy again: the record verifies, the job comes back whole.
	faultinject.Reset()
	ts = ts.Restart(t)
	fin := waitState(ctx, t, ts.Client, st.ID, server.StateDone)
	if fin.Outcome != telemetry.OutcomeCompleted {
		t.Errorf("restored job outcome = %q, want completed", fin.Outcome)
	}
	got, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after transient read fault healed: %v", err)
	}
	assertResultMatchesDirect(t, got, directReference(t, "apte", 41))
	return fired.Load()
}

// corruptReadScenario drills fs.corrupt-read: bit rot in job.json is
// detected by the envelope checksum at recovery, the job is
// quarantined with the damage preserved, and — the corruption being in
// the read path, not on disk — a later clean restart restores it.
func corruptReadScenario(t *testing.T) int64 {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := ts.Submit(ctx, testRequest("apte", 43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitTerminal(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	var fired atomic.Int64
	faultinject.SetRead(func(p faultinject.Point, path string, data []byte) ([]byte, error) {
		if strings.HasPrefix(path, ts.StateDir) && strings.HasSuffix(path, "job.json") && len(data) > 0 {
			fired.Add(1)
			rot := append([]byte(nil), data...)
			rot[len(rot)/2] ^= 0xff
			return rot, nil
		}
		return data, nil
	})
	defer faultinject.Reset()

	ts = ts.Restart(t)
	waitState(ctx, t, ts.Client, st.ID, server.StateQuarantined)
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined = %v, want 1", n)
	}

	faultinject.Reset()
	ts = ts.Restart(t)
	waitState(ctx, t, ts.Client, st.ID, server.StateDone)
	got, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after bit-rot healed: %v", err)
	}
	assertResultMatchesDirect(t, got, directReference(t, "apte", 43))
	return fired.Load()
}

// jobRunFaultScenario drills job.run's error contract: an injected
// immediate run failure is terminal (failed, not retried), carries the
// injected message, and survives a restart.
func jobRunFaultScenario(t *testing.T) int64 {
	ts, _ := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var fired atomic.Int64
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.JobRun {
			fired.Add(1)
			return errors.New("injected immediate run failure")
		}
		return nil
	})
	defer faultinject.Reset()

	st, err := ts.Submit(ctx, tinyRequest(45))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(ctx, t, ts.Client, st.ID, server.StateFailed)
	if !strings.Contains(fin.Error, "injected immediate run failure") {
		t.Errorf("failure message = %q, want the injected error", fin.Error)
	}

	faultinject.Reset()
	ts = ts.Restart(t)
	fin = waitState(ctx, t, ts.Client, st.ID, server.StateFailed)
	if !strings.Contains(fin.Error, "injected immediate run failure") {
		t.Errorf("failure message after restart = %q, want the injected error preserved", fin.Error)
	}
	return fired.Load()
}

// observeScenario proves a point that other packages' tests drill in
// depth (checkpoint I/O in internal/ckpt) actually fires on the
// service's hot path: a counting no-op hook sees it during a normal
// job.
func observeScenario(t *testing.T, point faultinject.Point, req *server.JobRequest) int64 {
	ts, _ := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var fired atomic.Int64
	faultinject.Set(func(p faultinject.Point, _ int) error {
		if p == point {
			fired.Add(1)
		}
		return nil
	})
	defer faultinject.Reset()

	st, err := ts.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := ts.WaitTerminal(ctx, st.ID); err != nil || fin.State != server.StateDone {
		t.Fatalf("observed job ended (%v, %v), want done", fin, err)
	}
	return fired.Load()
}

// TestTornJobRecordQuarantinedOnRestart is the torn-write recovery
// drill without any hook in the read path: the on-disk job.json is
// physically truncated to half (what a crash mid-write leaves on a
// filesystem without atomic rename), and the restarted daemon must
// quarantine the directory — preserving the offending bytes in
// quarantine.json for inspection — instead of crashing or silently
// dropping the job. A second restart keeps the quarantine stable
// without re-counting it.
func TestTornJobRecordQuarantinedOnRestart(t *testing.T) {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := ts.Submit(ctx, tinyRequest(51))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := ts.WaitTerminal(ctx, st.ID); err != nil || fin.State != server.StateDone {
		t.Fatalf("job ended (%v, %v), want done", fin, err)
	}

	// Tear the record in place. The job is terminal, so nothing will
	// rewrite it before the restart reads it.
	recPath := filepath.Join(ts.StateDir, "jobs", st.ID, "job.json")
	whole, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)/2]
	if err := os.WriteFile(recPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ts = ts.Restart(t)
	q := waitState(ctx, t, ts.Client, st.ID, server.StateQuarantined)
	if !strings.Contains(q.Error, "quarantined at recovery") {
		t.Errorf("quarantine reason = %q, want a recovery-scan reason", q.Error)
	}
	if _, err := ts.Result(ctx, st.ID); err == nil {
		t.Error("result of a quarantined job succeeded, want 409")
	} else {
		var apiErr *server.Error
		if !errors.As(err, &apiErr) || apiErr.Code != server.CodeJobQuarantined {
			t.Errorf("result of quarantined job = %v, want %s", err, server.CodeJobQuarantined)
		}
	}

	// quarantine.json preserves the exact torn bytes.
	var doc struct {
		ID             string `json:"id"`
		Reason         string `json:"reason"`
		OffendingFile  string `json:"offending_file"`
		OffendingBytes []byte `json:"offending_bytes"`
	}
	qPath := filepath.Join(ts.StateDir, "jobs", st.ID, "quarantine.json")
	if err := ckpt.LoadAs(qPath, "irgrid-quarantine", 1, &doc); err != nil {
		t.Fatalf("quarantine.json does not verify: %v", err)
	}
	if doc.ID != st.ID || doc.OffendingFile != recPath {
		t.Errorf("quarantine doc = {id %q, file %q}, want {%q, %q}", doc.ID, doc.OffendingFile, st.ID, recPath)
	}
	if string(doc.OffendingBytes) != string(torn) {
		t.Errorf("offending bytes (%d) differ from the torn record (%d)", len(doc.OffendingBytes), len(torn))
	}
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined = %v, want 1", n)
	}

	// Restart again: the quarantine is stable (rebuilt from
	// quarantine.json, not re-counted) and the torn file is untouched.
	ts = ts.Restart(t)
	waitState(ctx, t, ts.Client, st.ID, server.StateQuarantined)
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined after second restart = %v, want still 1", n)
	}
	if after, err := os.ReadFile(recPath); err != nil || string(after) != string(torn) {
		t.Errorf("torn job.json was modified by recovery (err %v); it must be preserved for inspection", err)
	}
}

// TestPoisonJobQuarantinedAfterRetries is the crash-loop killer drill:
// a job that panics its worker on every attempt is retried up to
// MaxAttempts, then quarantined with a postmortem — and a healthy job
// sharing the queue is unharmed.
func TestPoisonJobQuarantinedAfterRetries(t *testing.T) {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Job IDs are allocated in accept order on a fresh store, so the
	// poison job is deterministically j00000001.
	const poisonID = "j00000001"
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.JobRun && path == poisonID {
			panic("injected poison-job crash")
		}
		return nil
	})
	defer faultinject.Reset()

	poison, err := ts.Submit(ctx, tinyRequest(61))
	if err != nil {
		t.Fatal(err)
	}
	if poison.ID != poisonID {
		t.Fatalf("first job got id %q, want %q", poison.ID, poisonID)
	}
	healthy, err := ts.Submit(ctx, tinyRequest(62))
	if err != nil {
		t.Fatal(err)
	}

	q := waitState(ctx, t, ts.Client, poison.ID, server.StateQuarantined)
	if q.Attempts != 3 {
		t.Errorf("poison job attempts = %d, want 3 (the default budget)", q.Attempts)
	}
	if !strings.Contains(q.Error, "poison job") || !strings.Contains(q.Error, "injected poison-job crash") {
		t.Errorf("quarantine reason = %q, want the poison verdict with the panic value", q.Error)
	}
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined = %v, want 1", n)
	}

	// Every quarantine carries forensics: the flight recorder dumped a
	// postmortem and quarantine.json marks the verdict durably.
	dir := filepath.Join(ts.StateDir, "jobs", poison.ID)
	for _, f := range []string{"postmortem.json", "quarantine.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("poison job left no %s: %v", f, err)
		}
	}
	if _, err := ts.Result(ctx, poison.ID); err == nil {
		t.Error("result of quarantined poison job succeeded, want 409")
	}

	// The sibling job shares the worker the poison job kept crashing —
	// it must still complete normally.
	if fin, err := ts.WaitTerminal(ctx, healthy.ID); err != nil || fin.State != server.StateDone {
		t.Fatalf("healthy sibling ended (%v, %v), want done", fin, err)
	}

	// The verdict is durable: a restarted daemon keeps the job
	// quarantined instead of running the poison again.
	faultinject.Reset()
	ts = ts.Restart(t)
	waitState(ctx, t, ts.Client, poison.ID, server.StateQuarantined)
	if n := reg.Snapshot()["jobs_quarantined"]; n != 1 {
		t.Errorf("jobs_quarantined after restart = %v, want still 1", n)
	}
}

// TestWatchdogCancelsStalledRun pins the stuck-run watchdog: a run
// making no observable progress (its worker is wedged before any
// annealing move) is postmortem-dumped and canceled after
// StallTimeout, and the job marked failed with the stall verdict —
// terminal, not requeued.
func TestWatchdogCancelsStalledRun(t *testing.T) {
	ts, reg := chaosServer(t, func(c *server.Config) {
		c.StallTimeout = 200 * time.Millisecond
		c.WatchdogEvery = 25 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Wedge the worker at run start until released; the run context it
	// would use is already canceled by then.
	release := make(chan struct{})
	faultinject.SetPath(func(p faultinject.Point, _ string, _ int) error {
		if p == faultinject.JobRun {
			<-release
		}
		return nil
	})
	defer faultinject.Reset()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	st, err := ts.Submit(ctx, tinyRequest(71))
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog fires while the worker is still wedged.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot()["watchdog_cancels"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never canceled the wedged run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)

	fin := waitState(ctx, t, ts.Client, st.ID, server.StateFailed)
	if !strings.Contains(fin.Error, "watchdog") || !strings.Contains(fin.Error, "no observable progress") {
		t.Errorf("stalled job error = %q, want the watchdog verdict", fin.Error)
	}
	if n := reg.Snapshot()["watchdog_cancels"]; n != 1 {
		t.Errorf("watchdog_cancels = %v, want 1", n)
	}
	// The stall left forensics behind.
	if _, err := os.Stat(filepath.Join(ts.StateDir, "jobs", st.ID, "postmortem.json")); err != nil {
		t.Errorf("stalled job left no postmortem: %v", err)
	}
}

// TestDegradedModeServesAndHeals is the end-to-end degraded-operation
// drill: with the disk gone the service keeps accepting and completing
// jobs from memory and reports itself degraded; when the disk returns
// it heals, flushes every held record durably, and a restart then
// serves bits identical to a direct run — nothing accepted during the
// outage is lost.
func TestDegradedModeServesAndHeals(t *testing.T) {
	ts, reg := chaosServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.FSWrite && strings.HasPrefix(path, ts.StateDir) {
			return errors.New("injected EIO")
		}
		return nil
	})
	defer faultinject.Reset()

	st, err := ts.Submit(ctx, testRequest("apte", 81))
	if err != nil {
		t.Fatalf("submit while disk is failing: %v", err)
	}
	if fin, err := ts.WaitTerminal(ctx, st.ID); err != nil || fin.State != server.StateDone {
		t.Fatalf("degraded job ended (%v, %v), want done", fin, err)
	}
	want := directReference(t, "apte", 81)
	got, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result served from memory: %v", err)
	}
	assertResultMatchesDirect(t, got, want)

	snap := reg.Snapshot()
	if snap["store_degraded"] != 1 {
		t.Errorf("store_degraded = %v, want 1", snap["store_degraded"])
	}
	if snap["store_write_retries"] == 0 {
		t.Error("store_write_retries = 0, want bounded retries before degrading")
	}
	if snap["jobs_quarantined"] != 0 {
		t.Errorf("jobs_quarantined = %v during a pure write outage, want 0", snap["jobs_quarantined"])
	}

	// Disk returns: probe heals, flush writes the held records.
	faultinject.Reset()
	waitMetric(t, reg, "store_degraded", 0, 5*time.Second)

	// The flushed records verify on disk as proper envelopes.
	dir := filepath.Join(ts.StateDir, "jobs", st.ID)
	var anyDoc struct{}
	if err := ckpt.LoadAs(filepath.Join(dir, "job.json"), "irgrid-job", 1, &anyDoc); err != nil {
		t.Errorf("flushed job.json does not verify: %v", err)
	}
	if err := ckpt.LoadAs(filepath.Join(dir, "result.json"), "irgrid-job-result", 1, &anyDoc); err != nil {
		t.Errorf("flushed result.json does not verify: %v", err)
	}

	// And a restarted daemon serves the identical bits from them.
	ts = ts.Restart(t)
	waitState(ctx, t, ts.Client, st.ID, server.StateDone)
	got, err = ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after heal+restart: %v", err)
	}
	assertResultMatchesDirect(t, got, want)
}
