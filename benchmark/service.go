package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
	"irgrid/telemetry"
)

const (
	// serviceClients is the closed loop's client count.
	serviceClients = 2
	// tracedJobsPerClient gives the traced run 100 jobs, enough for a
	// p90 with ten samples beyond it.
	tracedJobsPerClient = 50
	// pollEvery is how often a client polls its job's status.
	pollEvery = 10 * time.Millisecond
	// serviceTimeout bounds a whole service run, so a stuck server
	// fails the run instead of hanging it.
	serviceTimeout = 150 * time.Second
	// rssSampleEvery is how often the resident set size is sampled
	// while jobs run; a job runs for 100 ms or more.
	rssSampleEvery = 5 * time.Millisecond
)

// serviceCircuits alternate per client: a client's k-th job floorplans
// serviceCircuits[(k+client)%2].
var serviceCircuits = [2]string{"hp", "ami33"}

// service is one in-process floorpland with its defaults: one worker,
// queue depth 16, a checkpoint every 5 temperature steps and no rate
// limit.
type service struct {
	srv *server.Server
	hs  *httptest.Server
	dir string
}

func startService() (*service, error) {
	dir, err := os.MkdirTemp("", "irgrid-bench-state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &service{srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// stop drains the server, closes its HTTP front end and deletes its
// state directory.
func (s *service) stop() error {
	err := s.shutdown()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *service) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.hs.Close()
	return err
}

func (s *service) client(id int) *harness.Client {
	cl := harness.NewClient(s.hs.URL)
	cl.ClientID = fmt.Sprintf("bench-%d", id)
	return cl
}

// jobSample is one job as its client saw it.
type jobSample struct {
	index   int
	circuit string
	seed    int64
	latency span          // submit to result fetched
	submit  time.Duration // the submit call
	fetch   time.Duration // the result call
	polls   int
	st      *server.JobStatus
	res     *server.JobResult
	err     error
}

// jobOptions is the submitted form of serviceOptions.
func jobOptions(seed int64, smoke bool) server.RunOptions {
	o := serviceOptions(seed, smoke)
	return server.RunOptions{
		Alpha: o.Alpha, Beta: o.Beta, Gamma: o.Gamma,
		Model: o.Congestion.Model, Pitch: o.Congestion.Pitch,
		Seed: o.Seed, MaxTemps: o.MaxTemps, MovesPerTemp: o.MovesPerTemp,
	}
}

// doJob submits one job, polls it to a terminal state and fetches its
// result.
func doJob(ctx context.Context, cl *harness.Client, js jobSample, smoke bool) jobSample {
	t0 := time.Now()
	st, err := cl.Submit(ctx, &server.JobRequest{Benchmark: js.circuit, Options: jobOptions(js.seed, smoke)})
	js.submit = time.Since(t0)
	if err != nil {
		js.err = fmt.Errorf("submit: %w", err)
		return js
	}
	for {
		st, err = cl.Status(ctx, st.ID)
		js.polls++
		if err != nil {
			js.err = fmt.Errorf("status: %w", err)
			return js
		}
		if st.State != server.StateQueued && st.State != server.StateRunning {
			break
		}
		select {
		case <-ctx.Done():
			js.err = ctx.Err()
			return js
		case <-time.After(pollEvery):
		}
	}
	js.st = st
	if st.State != server.StateDone {
		js.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return js
	}
	t1 := time.Now()
	js.res, err = cl.Result(ctx, st.ID)
	js.fetch = time.Since(t1)
	js.latency = spanSince(t0)
	if err != nil {
		js.err = fmt.Errorf("result: %w", err)
	}
	return js
}

// closedLoop runs the clients until each has done perClient jobs or,
// with perClient 0, until the window has elapsed (at least one job
// each). It returns the jobs by index and the loop's span.
func (s *service) closedLoop(ctx context.Context, seed int64, smoke bool, perClient int, window time.Duration) ([]jobSample, span) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs []jobSample
	)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.client(c)
			for k := 0; ; k++ {
				if (perClient > 0 && k >= perClient) || (perClient == 0 && k > 0 && time.Since(start) >= window) {
					return
				}
				i := serviceClients*k + c
				name, jobSeed := serviceJob(i, seed)
				js := doJob(ctx, cl, jobSample{index: i, circuit: name, seed: jobSeed}, smoke)
				mu.Lock()
				jobs = append(jobs, js)
				mu.Unlock()
				if js.err != nil {
					return // the service is broken; the failure is recorded
				}
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].index < jobs[b].index })
	return jobs, spanSince(start)
}

func outcomeOfJob(js jobSample) outcome {
	r := js.res
	return outcome{
		Circuit: r.Circuit, Seed: js.seed,
		Cost: r.Cost, Area: r.Area, Wirelength: r.Wirelength, Congestion: r.CongestionCost,
		Temps: r.Temperatures, Moves: r.Moves, Accepted: r.Accepted,
		Modules: placementHash(r.Modules),
	}
}

// checkJob verifies one job's result; jobs 0 and 1 are also run
// directly through floorplan.Run, untimed, and must match exactly.
func checkJob(rc *runConfig, w *workload, js jobSample) error {
	if js.err != nil {
		return js.err
	}
	in := mcncInput(js.circuit)
	r := js.res
	if r.Outcome != telemetry.OutcomeCompleted {
		return fmt.Errorf("outcome %q", r.Outcome)
	}
	if err := checkPlacement(in, r.ChipW, r.ChipH, r.Area, r.Modules); err != nil {
		return err
	}
	o := outcomeOfJob(js)
	if js.index < 2 {
		opts := serviceOptions(js.seed, rc.smoke())
		direct, err := floorplan.Run(in, opts)
		if err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		if _, err := checkResult(in, opts, direct); err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		if d := outcomeOf(direct, js.seed); d != o {
			return fmt.Errorf("job outcome %+v, direct run %+v", o, d)
		}
	}
	return rc.checkExpected(w.name, o)
}

// setupService boots a floorpland and runs one warm-up job on it, an
// hp job on the smoke schedule, setupReps times, and keeps the last
// server. The warm-up job is the same whatever the benchmark seed, so
// every run sets up alike.
func setupService(ctx context.Context) (svc *service, warmID string, reps []span, err error) {
	name, seed := serviceJob(0, 1)
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startService()
		if err != nil {
			return nil, "", nil, fmt.Errorf("starting the service: %w", err)
		}
		warm := doJob(ctx, s.client(0), jobSample{index: -1, circuit: name, seed: seed}, true)
		if warm.err != nil {
			s.stop()
			return nil, "", nil, fmt.Errorf("warm-up job: %w", warm.err)
		}
		reps = append(reps, spanSince(t0))
		if i == setupReps-1 {
			return s, warm.st.ID, reps, nil
		}
		if err := s.stop(); err != nil {
			return nil, "", nil, fmt.Errorf("stopping the service: %w", err)
		}
	}
}

// runService runs the service workload.
func runService(rc *runConfig, w *workload) *record {
	rec := newRecord(rc, w)
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	stopClock := func() *hostClock { return nil }
	if !rc.trace {
		stopClock = startHostClock()
	}
	svc, warmID, setups, err := setupService(ctx)
	if err != nil {
		stopClock()
		rec.Attempted++
		rec.fail("%v", err)
		return rec
	}
	defer os.RemoveAll(svc.dir)

	perClient := 0
	switch {
	case rc.smoke():
		perClient = 2
	case rc.trace:
		perClient = tracedJobsPerClient
	}
	stopRSS := sampleEvery(rssSampleEvery, residentMiB)
	jobs, loop := svc.closedLoop(ctx, rc.seed, rc.smoke(), perClient, rc.window())
	rssReadings, rssErr := stopRSS()
	clock := stopClock()
	if rssErr != nil {
		rec.fail("sampling the resident set size: %v", rssErr)
	}
	if err := svc.shutdown(); err != nil {
		rec.fail("stopping the service: %v", err)
	}

	rss := map[string][]float64{}
	var done []jobSample
	moveCount := 0
	for _, js := range jobs {
		rec.Attempted++
		if err := checkJob(rc, w, js); err != nil {
			rec.fail("job %d (%s): %v", js.index, js.circuit, err)
			continue
		}
		done = append(done, js)
		if vs := within(rssReadings, js.st.StartedUnixNs, js.st.FinishedUnixNs); len(vs) > 0 {
			rss[js.circuit] = append(rss[js.circuit], slices.Max(vs))
		}
		moveCount += js.res.Moves + js.res.CalibrationMoves
	}

	if rc.trace {
		reportServiceLayers(rec, done, svc.dir, warmID, rc.smoke())
		// The layer split of jobs 0 and 1 (one hp, one ami33).
		lr := &layerRun{}
		for i := range serviceCircuits {
			rec.Attempted++
			name, seed := serviceJob(i, rc.seed)
			if err := lr.traceCircuit(mcncInput(name), serviceOptions(seed, rc.smoke())); err != nil {
				rec.fail("%s: %v", name, err)
			}
		}
		lr.report(rec)
		return rec
	}
	peak, peaks := 0.0, 0
	for _, name := range serviceCircuits {
		peak = math.Max(peak, median(rss[name]))
		peaks += len(rss[name])
	}
	// op_s is the median latency per circuit, then the geometric mean
	// over circuits; moves_per_s is every job's moves over the loop.
	timings := func(seconds func(span) float64) map[string]float64 {
		var ops []float64
		for _, name := range serviceCircuits {
			var ls []float64
			for _, js := range done {
				if js.circuit == name {
					ls = append(ls, seconds(js.latency))
				}
			}
			ops = append(ops, median(ls))
		}
		return map[string]float64{
			"setup_s":     median(mapSpans(setups, seconds)),
			"op_s":        geomean(ops),
			"moves_per_s": float64(moveCount) / seconds(loop),
		}
	}
	t := timings(clock.seconds)
	rec.set("setup_s", t["setup_s"], len(setups))
	rec.set("op_s", t["op_s"], len(done))
	rec.set("moves_per_s", t["moves_per_s"], len(done))
	rec.set("peak_rss_mib", peak, peaks)
	rec.setRaw(timings(span.wall), clock)
	return rec
}

// reportServiceLayers sets the server metrics, from job timestamps and
// client timings, and the ckpt metrics, from the state directory the
// jobs left behind (the warm-up job excluded). A smoke run has too few
// jobs for a p90 and reports the slowest job.
func reportServiceLayers(rec *record, done []jobSample, dir, warmID string, smoke bool) {
	var queueWait, runPhase, submit, fetch, latency []float64
	polls := 0
	for _, js := range done {
		queueWait = append(queueWait, float64(js.st.StartedUnixNs-js.st.CreatedUnixNs)/1e9)
		runPhase = append(runPhase, float64(js.st.FinishedUnixNs-js.st.StartedUnixNs)/1e9)
		submit = append(submit, float64(js.submit.Nanoseconds())/1e6)
		fetch = append(fetch, float64(js.fetch.Nanoseconds())/1e6)
		latency = append(latency, js.latency.wall())
		polls += js.polls
	}
	p90, ok := percentile(latency, 0.90)
	if !ok && smoke && len(latency) > 0 {
		p90, ok = slices.Max(latency), true
	}
	if !ok {
		rec.fail("server.job_p90_s needs %d jobs beyond p90, have %d jobs", minBeyond, len(latency))
	}
	n := len(done)
	rec.set("server.queue_wait_s_p50", median(queueWait), n)
	rec.set("server.run_phase_s_p50", median(runPhase), n)
	rec.set("server.submit_ms_p50", median(submit), n)
	rec.set("server.result_ms_p50", median(fetch), n)
	rec.set("server.job_p90_s", p90, n)
	rec.set("server.polls_per_job", float64(polls)/float64(n), n)

	var dirs, files, bytes int64
	jobsDir := filepath.Join(dir, "jobs")
	err := filepath.WalkDir(jobsDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case d.Name() == warmID:
				return filepath.SkipDir
			case filepath.Dir(path) == jobsDir:
				dirs++
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	if err != nil {
		rec.fail("walking the job store: %v", err)
	}
	rec.set("ckpt.state_bytes_per_job", float64(bytes)/float64(dirs), int(dirs))
	rec.set("ckpt.files_per_job", float64(files)/float64(dirs), int(dirs))
}
