// Package server turns the floorplan library into a long-running
// multi-tenant service: an HTTP JSON job API (submit, poll, fetch
// results, cancel, stream run traces) over a bounded FIFO work queue
// with backpressure and per-client rate limits, executed by worker
// goroutines under the library's lifecycle machinery — per-job
// contexts, periodic checkpoints keyed by job ID, and crash-safe
// resume of in-flight jobs when a restarted daemon reopens the same
// state directory.
//
// Durability model: every job owns a directory under
// <StateDir>/jobs/<id>/ holding its job record (job.json), its
// periodic resumable checkpoint (run.ckpt), its JSONL run trace
// (trace.jsonl), its terminal result (result.json) and, on panic or
// cancellation, a postmortem dump. All records ride internal/ckpt's
// versioned, checksummed, atomically-renamed envelope, so a crash at
// any instant leaves either the old file or the new one — never a
// torn one. Because checkpointed annealing resumes bit-identically
// (the PR 4 contract), a job that survives any number of daemon
// restarts returns the same bits a direct floorplan.Run would have.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/ckpt"
	"irgrid/internal/faultinject"
	"irgrid/telemetry"
)

// Job-record envelope identifiers (see internal/ckpt).
const (
	jobMagic      = "irgrid-job"
	jobVersion    = 1
	resultMagic   = "irgrid-job-result"
	resultVersion = 1
)

// Config parameterizes a Server. The zero value is not runnable:
// StateDir is required.
type Config struct {
	// StateDir is the durable root of the job store. Required.
	StateDir string
	// Workers is the number of concurrent job-running goroutines
	// (default 1: floorplanning saturates a core, so the default
	// trades latency for predictable per-job throughput).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it get 429 + Retry-After (default 16).
	QueueDepth int
	// RateLimit is the per-client submission rate in jobs/second
	// (token bucket of RateBurst tokens); <= 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity (default 4).
	RateBurst int
	// CheckpointEvery is the per-job snapshot period in temperature
	// steps (default 5).
	CheckpointEvery int
	// MaxBodyBytes caps submission bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxAttempts caps run starts per job (first run, resumes after a
	// daemon crash, panic retries) before the job is quarantined as
	// poison instead of run again (default 3). Clean drain/restart
	// cycles do not count: the attempt counter resets when a run is
	// interrupted by shutdown rather than by a crash.
	MaxAttempts int
	// StallTimeout arms the stuck-run watchdog: a running job whose
	// observable progress (annealing moves, temperature steps,
	// checkpoints) does not advance for this long is postmortem-dumped
	// and canceled, and the job marked failed. 0 disables the watchdog.
	StallTimeout time.Duration
	// WatchdogEvery is the watchdog scan period (default
	// StallTimeout/4, clamped to [50ms, 5s]).
	WatchdogEvery time.Duration
	// StoreAttempts bounds write attempts per durable-store save
	// (default 3); retries back off exponentially with jitter from
	// StoreRetryDelay (default 5ms). After the last attempt the write
	// fails persistently and the store degrades.
	StoreAttempts   int
	StoreRetryDelay time.Duration
	// ProbeEvery is the degraded store's disk re-probe period (default
	// 2s). A successful probe heals the store and flushes every record
	// held in memory.
	ProbeEvery time.Duration
	// Obs receives the server's metrics (queue depth, job counts,
	// latencies) and every job's run metrics; a new registry is
	// created when nil.
	Obs *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.StateDir == "" {
		return errors.New("server: Config.StateDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RateBurst <= 0 {
		c.RateBurst = 4
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WatchdogEvery <= 0 && c.StallTimeout > 0 {
		c.WatchdogEvery = c.StallTimeout / 4
		if c.WatchdogEvery < 50*time.Millisecond {
			c.WatchdogEvery = 50 * time.Millisecond
		}
		if c.WatchdogEvery > 5*time.Second {
			c.WatchdogEvery = 5 * time.Second
		}
	}
	if c.StoreAttempts <= 0 {
		c.StoreAttempts = 3
	}
	if c.StoreRetryDelay <= 0 {
		c.StoreRetryDelay = 5 * time.Millisecond
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 2 * time.Second
	}
	if c.Obs == nil {
		c.Obs = telemetry.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Server is the floorplanning job service. Construct with New, mount
// Handler on any HTTP front end (or ListenAndServe), and stop with
// Shutdown.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	limiter  *limiter
	handler  http.Handler
	store    *store
	watchdog *watchdog

	// baseCtx parents every job context; baseCancel is the drain
	// signal.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	nextID   int
	draining bool
	// pending counts submissions that hold a reserved queue slot while
	// their job record is persisted outside s.mu (see submit): the
	// admission check uses len(queue)+pending so concurrent submits
	// cannot oversubscribe the queue during the disk write.
	pending int
	// turn is the ID number of the next reservation allowed to enqueue;
	// turnCond (on s.mu) wakes the submits waiting for it. Submits thus
	// enqueue in ID order even when their record writes finish out of
	// order.
	turn     int
	turnCond *sync.Cond

	wg sync.WaitGroup

	httpMu   sync.Mutex
	httpSrv  *http.Server
	httpAddr net.Addr
	httpDone chan struct{}

	// metrics
	mSubmitted   *telemetry.Counter
	mCompleted   *telemetry.Counter
	mFailed      *telemetry.Counter
	mCanceled    *telemetry.Counter
	mResumed     *telemetry.Counter
	mRecovered   *telemetry.Counter
	mQueueFull   *telemetry.Counter
	mRateLimited *telemetry.Counter
	mRequests    *telemetry.Counter
	gQueueDepth  *telemetry.Gauge
	gRunning     *telemetry.Gauge
	hQueueWait   *telemetry.Histogram
	hRunSeconds  *telemetry.Histogram

	// Robustness metrics (the chaos battery asserts these by name).
	mStoreRetries    *telemetry.Counter // store_write_retries
	gStoreDegraded   *telemetry.Gauge   // store_degraded (0|1)
	mQuarantined     *telemetry.Counter // jobs_quarantined
	mWatchdogCancels *telemetry.Counter // watchdog_cancels
}

// New builds the server: it creates the state directory, recovers
// every persisted job (terminal jobs become queryable again; queued
// and running jobs re-enter the queue, to be resumed from their last
// checkpoint), and starts the worker pool. The HTTP side starts
// separately (Handler / ListenAndServe).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Obs,
		limiter: newLimiter(cfg.RateLimit, cfg.RateBurst),
		jobs:    map[string]*job{},
		nextID:  1,
	}
	s.cond = sync.NewCond(&s.mu)
	s.turnCond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mSubmitted = s.reg.Counter("server_jobs_submitted_total")
	s.mCompleted = s.reg.Counter("server_jobs_completed_total")
	s.mFailed = s.reg.Counter("server_jobs_failed_total")
	s.mCanceled = s.reg.Counter("server_jobs_canceled_total")
	s.mResumed = s.reg.Counter("server_jobs_resumed_total")
	s.mRecovered = s.reg.Counter("server_jobs_recovered_total")
	s.mQueueFull = s.reg.Counter("server_queue_full_total")
	s.mRateLimited = s.reg.Counter("server_rate_limited_total")
	s.mRequests = s.reg.Counter("server_http_requests_total")
	s.gQueueDepth = s.reg.Gauge("server_queue_depth")
	s.gRunning = s.reg.Gauge("server_jobs_running")
	s.hQueueWait = s.reg.Histogram("server_queue_wait_seconds",
		[]float64{0.01, 0.1, 1, 10, 60, 600})
	s.hRunSeconds = s.reg.Histogram("server_job_run_seconds",
		[]float64{0.1, 1, 10, 60, 600, 3600})
	s.mStoreRetries = s.reg.Counter("store_write_retries")
	s.gStoreDegraded = s.reg.Gauge("store_degraded")
	s.mQuarantined = s.reg.Counter("jobs_quarantined")
	s.mWatchdogCancels = s.reg.Counter("watchdog_cancels")
	s.store = newStore(storeConfig{
		probePath:  filepath.Join(cfg.StateDir, ".probe"),
		attempts:   cfg.StoreAttempts,
		baseDelay:  cfg.StoreRetryDelay,
		probeEvery: cfg.ProbeEvery,
		logf:       cfg.Logf,
		onHeal:     s.flushDirty,
		retries:    s.mStoreRetries,
		degraded:   s.gStoreDegraded,
	})

	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("server: creating state dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.turn = s.nextID
	s.handler = s.buildHandler()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if cfg.StallTimeout > 0 {
		s.watchdog = newWatchdog(s, cfg.StallTimeout, cfg.WatchdogEvery)
		go s.watchdog.run()
	}
	return s, nil
}

func (s *Server) jobsDir() string { return filepath.Join(s.cfg.StateDir, "jobs") }

// Config returns a copy of the server's effective configuration
// (defaults filled in), so a harness can restart an identical
// instance over the same state directory.
func (s *Server) Config() Config { return s.cfg }

// recover rebuilds the job table from the state directory. Directory
// names are zero-padded job IDs, so lexical order is submission
// order — recovered jobs re-enter the queue FIFO as originally
// submitted.
//
// The scan is tolerant: a directory whose record is corrupt, torn or
// version-skewed is quarantined (a terminal tombstone preserving the
// offending bytes) rather than aborting startup or silently vanishing,
// and a job that already burned its whole run-attempt budget crashing
// previous daemons is quarantined instead of re-entering the queue —
// the crash-loop killer.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("server: scanning job store: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(s.jobsDir(), name)
		if n := idNumber(name); n >= s.nextID {
			s.nextID = n + 1
		}
		j, err := s.loadJob(name, dir)
		if err != nil {
			// A previously quarantined directory rebuilds from its
			// quarantine record (its job.json may be the corrupt file
			// that caused the quarantine); anything else newly broken
			// is quarantined now.
			if qj := s.loadQuarantined(name, dir); qj != nil {
				s.jobs[name] = qj
				continue
			}
			s.quarantineRecovered(name, dir, err)
			continue
		}
		s.jobs[j.id] = j
		if !terminalState(j.state) {
			if j.attempts >= s.cfg.MaxAttempts {
				s.quarantineJob(j, fmt.Sprintf(
					"crash loop: %d run attempts without a clean exit (cap %d)",
					j.attempts, s.cfg.MaxAttempts))
				continue
			}
			s.queue = append(s.queue, j)
			s.mRecovered.Inc()
			s.cfg.Logf("server: recovered job %s (%s, %d checkpointed resumes)",
				j.id, j.spec.circuit.Name, j.resumes)
		}
	}
	s.gQueueDepth.Set(float64(len(s.queue)))
	return nil
}

// loadJob reads one persisted job directory back into a live record.
// A queued or running record becomes queued: "running" on disk means
// the previous daemon died mid-run, and the job's checkpoint (if it
// got far enough to write one) makes re-running it bit-identical to
// never having died.
func (s *Server) loadJob(name, dir string) (*job, error) {
	var pj persistedJob
	if err := ckpt.LoadAs(filepath.Join(dir, "job.json"), jobMagic, jobVersion, &pj); err != nil {
		return nil, fmt.Errorf("%w: %v", errJobCorrupt, err)
	}
	if pj.ID != name {
		return nil, fmt.Errorf("%w: record id %q in dir %q", errJobCorrupt, pj.ID, name)
	}
	spec, apiErr := validateRequest(pj.Request)
	if apiErr != nil {
		return nil, fmt.Errorf("%w: persisted request no longer validates: %v", errJobCorrupt, apiErr)
	}
	j := newJob(pj.ID, dir, spec, pj.CreatedUnixNs)
	j.started = pj.StartedUnixNs
	j.finished = pj.FinishedUnixNs
	j.outcome = pj.Outcome
	j.errMsg = pj.Error
	j.resumes = pj.Resumes
	j.attempts = pj.Attempts
	if terminalState(pj.State) {
		j.state = pj.State //irlint:allow statemachine(restoring a persisted terminal state; terminalState gates the value)
		close(j.done)
	} else {
		j.state = StateQueued
	}
	return j, nil
}

func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

// Handler returns the server's HTTP API. Mount it directly on an
// httptest.Server in tests, or let ListenAndServe own the listener.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe binds addr and serves the job API in a background
// goroutine, returning the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.httpSrv != nil {
		ln.Close()
		return nil, errors.New("server: already serving")
	}
	s.httpSrv = &http.Server{Handler: s.handler}
	s.httpAddr = ln.Addr()
	s.httpDone = make(chan struct{})
	done := s.httpDone
	go func() {
		defer close(done)
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.cfg.Logf("server: http serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Addr returns the bound address after ListenAndServe, else nil.
func (s *Server) Addr() net.Addr {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	return s.httpAddr
}

// Shutdown gracefully drains the server: new submissions are refused,
// queued jobs stay persisted as queued, running jobs are canceled at
// their next annealing move — each writes a final resumable
// checkpoint and is persisted back to queued — and the worker pool
// plus the HTTP listener (when ListenAndServe was used) are joined
// before returning. A later New on the same state directory resumes
// every interrupted job bit-identically.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	// Cancel every in-flight job context (queued jobs have none).
	s.baseCancel()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = fmt.Errorf("server: draining workers: %w", ctx.Err())
	}

	if s.watchdog != nil {
		s.watchdog.close()
	}
	s.store.close()
	if down, reason, _ := s.store.state(); down {
		s.cfg.Logf("server: shutting down degraded (%s); records held in memory are lost", reason)
	} else {
		// Final best-effort flush of anything a past degraded window
		// left dirty.
		s.flushDirty()
	}

	s.httpMu.Lock()
	srv, done := s.httpSrv, s.httpDone
	s.httpMu.Unlock()
	if srv != nil {
		if herr := srv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
		select {
		case <-done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	return err
}

// workerLoop runs jobs until drain.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		j := s.dequeue()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// dequeue pops the FIFO head, blocking while the queue is empty.
// It returns nil when the server is draining — including when jobs
// remain queued: they stay persisted for the next daemon.
func (s *Server) dequeue() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.draining {
		s.cond.Wait()
	}
	if s.draining {
		return nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	s.gQueueDepth.Set(float64(len(s.queue)))
	return j
}

// submit validates and enqueues one job. It is called with the
// request body already read (and capped).
func (s *Server) submit(body []byte) (*JobStatus, *Error) {
	spec, apiErr := decodeJobRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	now := time.Now().UnixNano()

	// Phase 1 under s.mu: admission control and identity. The queue
	// slot is reserved (pending) so the record can be persisted off the
	// lock — the retrying store can spend seconds on a sick disk, and
	// holding s.mu across that would stall every status poll and
	// dequeue (the lockscope invariant) — without letting concurrent
	// submits oversubscribe the queue meanwhile.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &Error{Status: http.StatusServiceUnavailable, Code: CodeShuttingDown,
			Message: "server is draining; resubmit after restart"}
	}
	if len(s.queue)+s.pending >= s.cfg.QueueDepth {
		occupied := len(s.queue) + s.pending
		s.mQueueFull.Inc()
		s.mu.Unlock()
		return nil, &Error{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
			Message: fmt.Sprintf("job queue is full (%d queued)", occupied)}
	}
	n := s.nextID
	id := fmt.Sprintf("j%08d", n)
	s.nextID++
	dir := filepath.Join(s.jobsDir(), id)
	j := newJob(id, dir, spec, now)
	s.jobs[id] = j
	s.pending++
	s.mu.Unlock()

	// Disk I/O with no server lock held. Degraded acceptance: a failing
	// disk does not refuse work. The job is accepted and runs from
	// memory; its record is marked dirty and written by the heal flush
	// once the store recovers. (Readiness — /readyz — reports degraded
	// so load balancers can steer new traffic elsewhere, but jobs that
	// do arrive are served.)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.store.degrade(&StoreError{Op: "mkdir", Path: dir, Err: err})
		j.mu.Lock()
		j.dirty = true
		j.mu.Unlock()
	} else {
		s.persistJob(j)
	}

	// Phase 2 under s.mu: wait until every earlier reservation has
	// passed phase 2, so the queue order is the ID (accept) order, then
	// release the reservation and enqueue. The job was visible in
	// s.jobs during the write, so it may already have been canceled —
	// a canceled job must not enter the queue.
	s.mu.Lock()
	for s.turn != n {
		s.turnCond.Wait()
	}
	s.turn++
	s.turnCond.Broadcast()
	s.pending--
	j.mu.Lock()
	enqueue := j.state == StateQueued
	j.mu.Unlock()
	pos := 0
	if enqueue {
		s.queue = append(s.queue, j)
		pos = len(s.queue)
	}
	s.gQueueDepth.Set(float64(len(s.queue)))
	s.mSubmitted.Inc()
	s.cond.Signal()
	s.mu.Unlock()
	return j.status(pos), nil
}

// persistJob writes the job record durably through the retrying store.
// On persistent failure the record is held in memory (dirty) and the
// store degrades; the heal flush rewrites it when the disk returns.
// Synthetic quarantine tombstones (spec == nil) have no job record to
// write — quarantine.json is their persistence.
func (s *Server) persistJob(j *job) {
	if j.spec == nil {
		return
	}
	err := s.store.save(filepath.Join(j.dir, "job.json"), jobMagic, jobVersion, j.persisted())
	j.mu.Lock()
	j.dirty = err != nil
	j.mu.Unlock()
	if err != nil {
		s.store.degrade(err)
		s.cfg.Logf("server: job %s record held in memory: %v", j.id, err)
	}
}

// flushDirty rewrites every record held in memory while the store was
// degraded: job records, result documents, quarantine documents. It is
// the store's onHeal callback and Shutdown's final best-effort flush.
// A write failure during the flush re-degrades the store (restarting
// the probe loop) and stops; remaining records stay dirty for the next
// heal.
func (s *Server) flushDirty() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	for _, j := range jobs {
		j.mu.Lock()
		dirty, rdirty, qdirty := j.dirty, j.resultDirty, j.quarDirty
		res, qdoc := j.result, j.quarDoc
		j.mu.Unlock()
		if !dirty && !rdirty && !qdirty {
			continue
		}
		if err := os.MkdirAll(j.dir, 0o755); err != nil {
			s.store.degrade(&StoreError{Op: "mkdir", Path: j.dir, Err: err})
			return
		}
		if dirty {
			s.persistJob(j)
			if down, _, _ := s.store.state(); down {
				return
			}
		}
		if rdirty && res != nil {
			err := s.store.save(filepath.Join(j.dir, "result.json"), resultMagic, resultVersion, res)
			if err != nil {
				s.store.degrade(err)
				return
			}
			j.mu.Lock()
			j.resultDirty = false
			j.mu.Unlock()
		}
		if qdirty && qdoc != nil {
			s.persistQuarantine(j, qdoc)
			if down, _, _ := s.store.state(); down {
				return
			}
		}
		s.cfg.Logf("server: job %s records flushed after heal", j.id)
	}
}

// lookup finds a job and its current queue position (0 when not
// queued).
func (s *Server) lookup(id string) (*job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, 0
	}
	for i, q := range s.queue {
		if q == j {
			return j, i + 1
		}
	}
	return j, 0
}

// cancelJob implements DELETE /v1/jobs/{id}: a queued job is canceled
// immediately (freeing its queue slot); a running job's context is
// canceled, and the worker marks it canceled at the next annealing
// move; a terminal job is not cancelable.
func (s *Server) cancelJob(id string) (*JobStatus, *Error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, &Error{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: fmt.Sprintf("no job %q", id)}
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.gQueueDepth.Set(float64(len(s.queue)))
		j.state = StateCanceled
		j.outcome = telemetry.OutcomeCanceled
		j.finished = time.Now().UnixNano()
		j.cancelRequested = true
		close(j.done)
		j.mu.Unlock()
		s.mu.Unlock()
		s.mCanceled.Inc()
		s.persistJob(j)
		return j.status(0), nil
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j.status(0), nil
	default:
		j.mu.Unlock()
		s.mu.Unlock()
		return nil, &Error{Status: http.StatusConflict, Code: CodeNotCancelable,
			Message: fmt.Sprintf("job %s is %s", id, j.status(0).State)}
	}
}

// listJobs snapshots every job's status, newest first.
func (s *Server) listJobs() []*JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	pos := map[*job]int{}
	for i, q := range s.queue {
		pos[q] = i + 1
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id > jobs[b].id })
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(pos[j])
	}
	return out
}

// runJob executes one job under the library's lifecycle machinery.
// A panic anywhere in the run is recovered (with a postmortem dump)
// instead of killing the worker: the job is retried until its attempt
// budget (Config.MaxAttempts) is spent, then quarantined as poison.
func (s *Server) runJob(j *job) {
	rec := telemetry.NewRecorder(0)
	live := telemetry.NewStatus()
	defer func() {
		if r := recover(); r != nil {
			if path, derr := rec.Dump("job_panic"); derr == nil && path != "" {
				s.cfg.Logf("server: job %s panic postmortem written to %s", j.id, path)
			}
			s.handleRunPanic(j, r)
			s.gRunning.Set(s.runningCount())
		}
	}()

	var ctx context.Context
	var cancel context.CancelFunc
	if j.spec.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.spec.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start.UnixNano()
	j.ckptStep = 0
	j.cancel = cancel
	j.attempts++
	j.rec, j.live = rec, live
	j.lastProgress, j.lastProgressAtNs, j.watchdogFired = 0, 0, false
	attempt := j.attempts
	waited := time.Duration(j.started - j.created)
	j.mu.Unlock()
	s.hQueueWait.Observe(waited.Seconds())
	s.gRunning.Set(s.runningCount())
	// The attempt counter is persisted before any job code runs, so a
	// crash loop that kills the whole process is still counted on
	// restart.
	s.persistJob(j)

	// A poison job's crash may land before the library arms the
	// recorder; arm it here so every quarantine and stall carries a
	// postmortem.
	rec.Arm(filepath.Join(j.dir, "postmortem.json"),
		telemetry.PostmortemInfo{Circuit: j.spec.circuit.Name, Seed: j.spec.opts.Seed},
		s.reg, nil, live)

	if ferr := faultinject.FirePath(faultinject.JobRun, j.id, attempt); ferr != nil {
		// An injected immediate run failure (not a panic): terminal,
		// like any non-cancellation run error.
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
		s.finishJob(j, StateFailed, telemetry.OutcomeError, ferr.Error())
		s.gRunning.Set(s.runningCount())
		return
	}

	opts := j.spec.opts
	opts.CheckpointPath = filepath.Join(j.dir, "run.ckpt")
	opts.CheckpointEvery = s.cfg.CheckpointEvery
	opts.Obs = s.reg
	opts.Status = live
	opts.Recorder = rec
	opts.PostmortemPath = filepath.Join(j.dir, "postmortem.json")
	spans := telemetry.NewSpans()
	opts.Spans = spans
	opts.Checkpoint = func(snap *floorplan.Snapshot) error {
		j.mu.Lock()
		j.ckptStep = snap.Step
		j.mu.Unlock()
		return nil
	}
	tracer, terr := openTrace(filepath.Join(j.dir, "trace.jsonl"))
	if terr != nil {
		s.cfg.Logf("server: job %s trace: %v", j.id, terr)
	} else {
		opts.Trace = tracer
	}

	var res *floorplan.Result
	var runErr error
	resumed := false
	if snap, lerr := floorplan.LoadCheckpoint(opts.CheckpointPath); lerr == nil {
		resumed = true
		res, runErr = floorplan.Resume(ctx, j.spec.circuit, opts, snap)
	} else {
		if !os.IsNotExist(underlying(lerr)) {
			// A checkpoint exists but does not verify (e.g. a version
			// skew): rerunning from scratch is always safe — it
			// produces the same bits the checkpointed run would have.
			s.cfg.Logf("server: job %s checkpoint unusable (%v); rerunning from scratch", j.id, lerr)
		}
		res, runErr = floorplan.RunContext(ctx, j.spec.circuit, opts)
	}
	tracer.Close()
	s.hRunSeconds.Observe(time.Since(start).Seconds())
	j.mu.Lock()
	if resumed {
		j.resumes++
	}
	j.spans = spans.Aggregates()
	j.cancel = nil
	userCancel := j.cancelRequested
	wdFired := j.watchdogFired
	j.mu.Unlock()
	if resumed {
		s.mResumed.Inc()
	}

	switch {
	case runErr == nil:
		s.writeResult(j, res, telemetry.OutcomeCompleted)
	case errors.Is(runErr, floorplan.ErrDeadline):
		// The job's own timebox expired; the best-so-far result is
		// valid and fully evaluated.
		s.writeResult(j, res, telemetry.OutcomeDeadline)
	case errors.Is(runErr, floorplan.ErrCanceled):
		switch {
		case userCancel:
			s.finishJob(j, StateCanceled, telemetry.OutcomeCanceled, "")
		case wdFired:
			// The watchdog canceled a stalled run: terminal failure, not
			// a requeue — a job that stalled once would stall again.
			s.finishJob(j, StateFailed, telemetry.OutcomeError, stallError(s.cfg.StallTimeout))
		default:
			// Server drain: the final checkpoint is on disk; hand the
			// job back to the queue for the next daemon. The clean exit
			// proves this job did not crash the worker, so its attempt
			// does not count against the crash-loop budget.
			s.requeueJob(j)
		}
	default:
		s.finishJob(j, StateFailed, telemetry.OutcomeError, runErr.Error())
	}
	s.gRunning.Set(s.runningCount())
}

// handleRunPanic routes a recovered worker panic: requeue for another
// attempt while budget remains, quarantine when it is spent.
func (s *Server) handleRunPanic(j *job, r any) {
	j.mu.Lock()
	j.cancel = nil
	attempts := j.attempts
	j.mu.Unlock()
	if attempts >= s.cfg.MaxAttempts {
		s.quarantineJob(j, fmt.Sprintf("poison job: panicked on attempt %d/%d: %v",
			attempts, s.cfg.MaxAttempts, r))
		return
	}
	s.cfg.Logf("server: job %s panicked on attempt %d/%d (%v); requeued",
		j.id, attempts, s.cfg.MaxAttempts, r)
	s.requeueForRetry(j)
}

// requeueForRetry puts a crashed job back on the queue, keeping its
// attempt count — the difference from requeueJob's clean-drain path.
func (s *Server) requeueForRetry(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	j.started = 0
	j.rec, j.live = nil, nil
	j.mu.Unlock()
	s.persistJob(j)
	s.mu.Lock()
	if !s.draining {
		s.queue = append(s.queue, j)
		s.gQueueDepth.Set(float64(len(s.queue)))
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// underlying unwraps the fs error inside floorplan.LoadCheckpoint
// failures so IsNotExist works.
func underlying(err error) error {
	for {
		u := errors.Unwrap(err)
		if u == nil {
			return err
		}
		err = u
	}
}

func (s *Server) runningCount() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			n++
		}
		j.mu.Unlock()
	}
	return float64(n)
}

// writeResult records the terminal result — in memory first (the
// authoritative serving copy), then durably — and marks the job done.
// Result JSON round-trips float64 exactly (encoding/json emits the
// shortest representation that parses back to the same bits), so the
// served result is bit-identical to the in-memory one.
//
// A result-persist failure no longer fails the job: the computed
// result is real and servable from memory. The store degrades, and the
// heal flush writes result.json when the disk returns.
func (s *Server) writeResult(j *job, res *floorplan.Result, outcome string) {
	j.mu.Lock()
	resumes := j.resumes
	j.mu.Unlock()
	doc := resultDoc(res, outcome, resumes)
	err := s.store.save(filepath.Join(j.dir, "result.json"), resultMagic, resultVersion, doc)
	j.mu.Lock()
	j.result = doc
	j.resultDirty = err != nil
	j.mu.Unlock()
	if err != nil {
		s.store.degrade(err)
		s.cfg.Logf("server: job %s result held in memory: %v", j.id, err)
	}
	s.finishJob(j, StateDone, outcome, "")
}

// finishJob marks the job terminal, persists it and releases waiters.
func (s *Server) finishJob(j *job, state, outcome, errMsg string) {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state //irlint:allow statemachine(callers pass a terminal-state constant; the terminalState guard above keeps terminal states sticky)
	j.outcome = outcome
	j.errMsg = errMsg
	j.finished = time.Now().UnixNano()
	close(j.done)
	j.mu.Unlock()
	switch state {
	case StateDone:
		s.mCompleted.Inc()
	case StateFailed:
		s.mFailed.Inc()
		s.cfg.Logf("server: job %s failed: %s", j.id, errMsg)
	case StateCanceled:
		s.mCanceled.Inc()
	}
	s.persistJob(j)
}

// requeueJob hands a drain-interrupted job back to the persisted
// queue so the next daemon resumes it. The clean exit resets the
// crash-loop attempt counter: an orderly drain proves the job did not
// take the worker down.
func (s *Server) requeueJob(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	j.started = 0
	j.attempts = 0
	j.rec, j.live = nil, nil
	j.mu.Unlock()
	s.persistJob(j)
	s.cfg.Logf("server: job %s checkpointed and requeued for restart", j.id)
}

// loadResult returns a terminal job's result document: the in-memory
// copy when this process computed it (always present while the store
// is degraded), else the persisted one.
func (s *Server) loadResult(j *job) (*JobResult, error) {
	j.mu.Lock()
	doc := j.result
	j.mu.Unlock()
	if doc != nil {
		return doc, nil
	}
	var out JobResult
	if err := ckpt.LoadAs(filepath.Join(j.dir, "result.json"), resultMagic, resultVersion, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// openTrace opens the job's JSONL trace for appending: a resumed
// job's trace carries the full event history across restarts, one
// run_start..run_end block per attempt.
func openTrace(path string) (*telemetry.Tracer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return telemetry.NewTracer(f), nil
}
