package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"irgrid/floorplan"
	"irgrid/telemetry"
)

// Job states. queued and running are live; done, failed, canceled and
// quarantined are terminal. A daemon restart re-enqueues queued and
// running jobs (running means the previous process died mid-run; the
// job resumes from its last checkpoint). quarantined marks a poison
// job taken out of service: its record failed verification at
// recovery, or it exhausted its run-attempt budget crashing workers
// (see DESIGN.md "Failure model & degraded operation").
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateQuarantined = "quarantined"
)

// terminalState reports whether a job in this state will never run
// again.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// Error is the API error payload carried inside the error envelope
// every non-2xx response body uses. Status is the HTTP status code
// (not serialized; the response line carries it).
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds carries a 429/503 response's Retry-After header
	// (0 when absent). Not serialized: the header is the wire form;
	// clients (the harness Client) fill it in when decoding.
	RetryAfterSeconds int `json:"-"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Error codes of the job API.
const (
	CodeInvalidJSON      = "invalid_json"
	CodeInvalidRequest   = "invalid_request"
	CodeTooLarge         = "too_large"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeQueueFull        = "queue_full"
	CodeRateLimited      = "rate_limited"
	CodeNotReady         = "not_ready"
	CodeJobFailed        = "job_failed"
	CodeJobCanceled      = "job_canceled"
	CodeJobQuarantined   = "job_quarantined"
	CodeNotCancelable    = "not_cancelable"
	CodeShuttingDown     = "shutting_down"
)

// errorEnvelope is the JSON body of every non-2xx response.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// JobRequest is the POST /v1/jobs body: exactly one circuit source
// (a built-in benchmark name, YAL text, or an inline circuit) plus the
// run options. Unknown fields are rejected, so clients find typos at
// submit time instead of silently running defaults.
type JobRequest struct {
	Benchmark string      `json:"benchmark,omitempty"`
	YAL       string      `json:"yal,omitempty"`
	Circuit   *CircuitDoc `json:"circuit,omitempty"`
	Options   RunOptions  `json:"options"`
}

// CircuitDoc is an inline circuit in the job-submission JSON.
type CircuitDoc struct {
	Name    string      `json:"name"`
	Modules []ModuleDoc `json:"modules"`
	Nets    []NetDoc    `json:"nets,omitempty"`
}

// ModuleDoc mirrors floorplan.Module.
type ModuleDoc struct {
	Name      string  `json:"name"`
	W         float64 `json:"w"`
	H         float64 `json:"h"`
	Pad       bool    `json:"pad,omitempty"`
	MinAspect float64 `json:"min_aspect,omitempty"`
	MaxAspect float64 `json:"max_aspect,omitempty"`
}

// NetDoc mirrors floorplan.Net.
type NetDoc struct {
	Name string   `json:"name"`
	Pins []PinDoc `json:"pins"`
}

// PinDoc mirrors floorplan.Pin.
type PinDoc struct {
	Module string  `json:"module"`
	FX     float64 `json:"fx"`
	FY     float64 `json:"fy"`
}

// RunOptions is the JSON shape of the floorplan.Options subset a job
// may set. Server-side concerns (checkpointing, telemetry wiring) are
// not client-settable.
type RunOptions struct {
	Alpha           float64 `json:"alpha,omitempty"`
	Beta            float64 `json:"beta,omitempty"`
	Gamma           float64 `json:"gamma,omitempty"`
	Model           string  `json:"model,omitempty"`
	Pitch           float64 `json:"pitch,omitempty"`
	PinPitch        float64 `json:"pin_pitch,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	NoRotate        bool    `json:"no_rotate,omitempty"`
	MovesPerTemp    int     `json:"moves_per_temp,omitempty"`
	MaxTemps        int     `json:"max_temps,omitempty"`
	WirelengthModel string  `json:"wirelength_model,omitempty"`
	Representation  string  `json:"representation,omitempty"`
	FullEval        bool    `json:"full_eval,omitempty"`
	// TimeoutSeconds bounds the job's wall time; on expiry the job
	// completes with outcome "deadline" and the best result so far.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// jobSpec is a validated, runnable submission.
type jobSpec struct {
	req     *JobRequest
	circuit *floorplan.Circuit
	opts    floorplan.Options
	timeout time.Duration
}

// Submission caps. A floorplanning service accepts untrusted input;
// these bound memory before a queued job ever runs.
const (
	// DefaultMaxBodyBytes caps the POST /v1/jobs body.
	DefaultMaxBodyBytes = 8 << 20
	// maxModules and maxPins cap inline/YAL circuit sizes.
	maxModules = 20000
	maxPins    = 500000
)

// decodeJobRequest parses and validates a job-submission body. Every
// failure is a client error (4xx) — malformed JSON, unknown fields,
// non-finite numbers (invalid JSON by construction), oversize
// circuits, structurally broken netlists, unknown model names — so
// the decoder can never take down the daemon or return a 5xx.
func decodeJobRequest(body []byte) (*jobSpec, *Error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeInvalidJSON,
			Message: fmt.Sprintf("decoding request body: %v", err)}
	}
	// A second document after the first is junk, not a request.
	if dec.More() {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeInvalidJSON,
			Message: "request body holds more than one JSON document"}
	}
	return validateRequest(&req)
}

// validateRequest turns a decoded request into a runnable spec,
// rejecting anything floorplan.Run would reject — at submit time, with
// a 400, instead of at schedule time with a failed job.
func validateRequest(req *JobRequest) (*jobSpec, *Error) {
	badReq := func(format string, args ...any) *Error {
		return &Error{Status: http.StatusBadRequest, Code: CodeInvalidRequest,
			Message: fmt.Sprintf(format, args...)}
	}
	sources := 0
	for _, set := range []bool{req.Benchmark != "", req.YAL != "", req.Circuit != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, badReq("exactly one of benchmark, yal or circuit is required")
	}

	var c *floorplan.Circuit
	switch {
	case req.Benchmark != "":
		var err error
		c, err = floorplan.Benchmark(req.Benchmark)
		if err != nil {
			return nil, badReq("unknown benchmark %q (have %s)",
				req.Benchmark, strings.Join(floorplan.BenchmarkNames(), ", "))
		}
	case req.YAL != "":
		var err error
		c, err = floorplan.LoadYAL(strings.NewReader(req.YAL))
		if err != nil {
			return nil, badReq("parsing yal circuit: %v", err)
		}
	default:
		c = circuitFromDoc(req.Circuit)
	}
	if len(c.Modules) == 0 {
		return nil, badReq("circuit has no modules")
	}
	if len(c.Modules) > maxModules {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeTooLarge,
			Message: fmt.Sprintf("circuit has %d modules, cap is %d", len(c.Modules), maxModules)}
	}
	pins := 0
	for _, n := range c.Nets {
		pins += len(n.Pins)
	}
	if pins > maxPins {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeTooLarge,
			Message: fmt.Sprintf("circuit has %d pins, cap is %d", pins, maxPins)}
	}
	if err := c.Validate(); err != nil {
		return nil, badReq("invalid circuit: %v", err)
	}

	o := &req.Options
	opts := floorplan.Options{
		Alpha: o.Alpha, Beta: o.Beta, Gamma: o.Gamma,
		PinPitch:        o.PinPitch,
		Seed:            o.Seed,
		NoRotate:        o.NoRotate,
		MovesPerTemp:    o.MovesPerTemp,
		MaxTemps:        o.MaxTemps,
		WirelengthModel: o.WirelengthModel,
		Representation:  o.Representation,
		FullEval:        o.FullEval,
	}
	if o.Model != "" || o.Gamma != 0 {
		opts.Congestion = floorplan.Congestion{Model: o.Model, Pitch: o.Pitch}
	}
	if err := floorplan.ValidateOptions(opts); err != nil {
		return nil, badReq("invalid options: %v", err)
	}
	if o.TimeoutSeconds < 0 || o.TimeoutSeconds != o.TimeoutSeconds {
		return nil, badReq("timeout_seconds must be non-negative, got %g", o.TimeoutSeconds)
	}
	return &jobSpec{
		req:     req,
		circuit: c,
		opts:    opts,
		timeout: time.Duration(o.TimeoutSeconds * float64(time.Second)),
	}, nil
}

func circuitFromDoc(doc *CircuitDoc) *floorplan.Circuit {
	c := &floorplan.Circuit{Name: doc.Name}
	for _, m := range doc.Modules {
		c.Modules = append(c.Modules, floorplan.Module{
			Name: m.Name, W: m.W, H: m.H, Pad: m.Pad,
			MinAspect: m.MinAspect, MaxAspect: m.MaxAspect,
		})
	}
	for _, n := range doc.Nets {
		net := floorplan.Net{Name: n.Name}
		for _, p := range n.Pins {
			net.Pins = append(net.Pins, floorplan.Pin{Module: p.Module, FX: p.FX, FY: p.FY})
		}
		c.Nets = append(c.Nets, net)
	}
	return c
}

// JobStatus is the GET /v1/jobs/{id} document (and the body of the
// 202 submission response).
type JobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Circuit string `json:"circuit"`
	Seed    int64  `json:"seed"`
	// QueuePosition is the 1-based position among queued jobs; 0 when
	// not queued.
	QueuePosition int `json:"queue_position,omitempty"`
	// Resumes counts how many times the job continued from a
	// checkpoint (daemon restarts and drain/restart cycles).
	Resumes int `json:"resumes,omitempty"`
	// CheckpointStep is the last checkpointed temperature step of the
	// current process's run; 0 before the first snapshot.
	CheckpointStep int `json:"checkpoint_step,omitempty"`
	// Attempts counts run starts (first run, restarts after daemon
	// crashes, panic retries). At Config.MaxAttempts the job is
	// quarantined instead of run again.
	Attempts int `json:"attempts,omitempty"`
	// Outcome is set on terminal jobs: completed|canceled|deadline|error.
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
	// CreatedUnixNs/StartedUnixNs/FinishedUnixNs are wall-clock
	// timestamps; zero when the phase has not happened.
	CreatedUnixNs  int64 `json:"created_unix_ns"`
	StartedUnixNs  int64 `json:"started_unix_ns,omitempty"`
	FinishedUnixNs int64 `json:"finished_unix_ns,omitempty"`
	// Spans holds the job's span-forest aggregates once terminal (the
	// same forest the trace's spans event carries).
	Spans []telemetry.SpanAggregate `json:"spans,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result document: the
// floorplan.Result fields that are deterministic for a fixed request
// (bit-identical to a direct floorplan.Run with the same options)
// plus volatile server metadata.
type JobResult struct {
	Circuit          string                   `json:"circuit"`
	ChipW            float64                  `json:"chip_w"`
	ChipH            float64                  `json:"chip_h"`
	Area             float64                  `json:"area"`
	Wirelength       float64                  `json:"wirelength"`
	CongestionCost   float64                  `json:"congestion_cost"`
	Cost             float64                  `json:"cost"`
	Modules          []floorplan.PlacedModule `json:"modules"`
	Temperatures     int                      `json:"temperatures"`
	Moves            int                      `json:"moves"`
	CalibrationMoves int                      `json:"calibration_moves"`
	Accepted         int                      `json:"accepted"`
	// Outcome records how the run ended: completed or deadline (a
	// timeboxed job reports its best floorplan so far).
	Outcome string `json:"outcome"`
	// RuntimeSeconds and Resumes are volatile server metadata, not
	// part of the deterministic payload.
	RuntimeSeconds float64 `json:"runtime_seconds"`
	Resumes        int     `json:"resumes,omitempty"`
}

func resultDoc(res *floorplan.Result, outcome string, resumes int) *JobResult {
	return &JobResult{
		Circuit:          res.Circuit,
		ChipW:            res.ChipW,
		ChipH:            res.ChipH,
		Area:             res.Area,
		Wirelength:       res.Wirelength,
		CongestionCost:   res.CongestionCost,
		Cost:             res.Cost,
		Modules:          res.Modules,
		Temperatures:     res.Temperatures,
		Moves:            res.Moves,
		CalibrationMoves: res.CalibrationMoves,
		Accepted:         res.Accepted,
		Outcome:          outcome,
		RuntimeSeconds:   res.Runtime.Seconds(),
		Resumes:          resumes,
	}
}

// job is one submission's live state. The mutex guards every mutable
// field; disk writes happen outside it where possible.
type job struct {
	mu sync.Mutex

	id   string
	dir  string
	spec *jobSpec

	// The job lifecycle, declared for the statemachine analyzer: a job
	// is born queued; running may return to queued (a drain or daemon
	// crash re-enqueues it to resume from its checkpoint); done, failed,
	// canceled and quarantined are terminal. Every assignment site must
	// perform one of these transitions.
	//
	//irlint:states queued running done failed canceled quarantined
	//irlint:initial queued
	//irlint:terminal done failed canceled quarantined
	//irlint:transition queued -> running canceled quarantined
	//irlint:transition running -> done failed canceled queued quarantined
	state    string
	created  int64
	started  int64
	finished int64
	errMsg   string
	outcome  string
	resumes  int
	ckptStep int
	attempts int

	cancelRequested bool
	cancel          func()

	spans []telemetry.SpanAggregate

	// rec/live are the current run's flight recorder and live status
	// surface; nil while not running. The watchdog derives the job's
	// progress counter from them, and quarantine/stall paths dump the
	// recorder as a postmortem.
	rec  *telemetry.Recorder
	live *telemetry.Status

	// Watchdog bookkeeping: the last observed progress counter, when it
	// was observed, and whether the watchdog already canceled this run.
	lastProgress     int64
	lastProgressAtNs int64
	watchdogFired    bool

	// result is the in-memory terminal result (authoritative for
	// serving; result.json is the durable copy). resultDirty/dirty/
	// quarDirty mark records held in memory while the store was
	// degraded, to be rewritten by the heal flush.
	result      *JobResult
	dirty       bool
	resultDirty bool
	quarDoc     *quarantineDoc
	quarDirty   bool

	// done is closed when the job reaches a terminal state, releasing
	// events followers and Wait-style helpers.
	done chan struct{}
}

func newJob(id, dir string, spec *jobSpec, now int64) *job {
	return &job{
		id: id, dir: dir, spec: spec,
		state:   StateQueued,
		created: now,
		done:    make(chan struct{}),
	}
}

// status snapshots the job document. queuePos is computed by the
// server (0 when unknown/not queued). A job quarantined at recovery
// for a corrupt record has no spec; its document carries the
// quarantine reason with no circuit identity.
func (j *job) status(queuePos int) *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:             j.id,
		State:          j.state,
		QueuePosition:  queuePos,
		Resumes:        j.resumes,
		CheckpointStep: j.ckptStep,
		Attempts:       j.attempts,
		Outcome:        j.outcome,
		Error:          j.errMsg,
		CreatedUnixNs:  j.created,
		StartedUnixNs:  j.started,
		FinishedUnixNs: j.finished,
	}
	if j.spec != nil {
		st.Circuit = j.spec.circuit.Name
		st.Seed = j.spec.opts.Seed
	}
	if terminalState(j.state) {
		st.Spans = j.spans
	}
	return st
}

// progress derives the job's observable-progress counter for the
// watchdog: checkpointed steps plus live status moves/steps plus
// flight-recorder sequence numbers. Any annealing move advances it
// (the recorder records per move), so a healthy run can never look
// stalled; a run wedged anywhere — before its first move, inside a
// move, or after its last — holds it constant.
func (j *job) progress() int64 {
	j.mu.Lock()
	rec, live := j.rec, j.live
	p := int64(j.ckptStep)
	j.mu.Unlock()
	if live != nil {
		snap := live.Snapshot()
		p += snap.Moves + int64(snap.Step)
	}
	if rec != nil {
		p += rec.Seq()
	}
	return p
}

// persistedJob is the job.json payload: everything a restarted daemon
// needs to rebuild the job, including the original request so it can
// be re-validated and re-run.
type persistedJob struct {
	ID             string      `json:"id"`
	State          string      `json:"state"`
	Request        *JobRequest `json:"request"`
	CreatedUnixNs  int64       `json:"created_unix_ns"`
	StartedUnixNs  int64       `json:"started_unix_ns,omitempty"`
	FinishedUnixNs int64       `json:"finished_unix_ns,omitempty"`
	Outcome        string      `json:"outcome,omitempty"`
	Error          string      `json:"error,omitempty"`
	Resumes        int         `json:"resumes,omitempty"`
	// Attempts persists the crash-loop counter: it is written at every
	// run start, so a daemon that dies mid-run still knows on restart
	// how many times this job has been tried. Absent in records written
	// before the field existed (same format version: optional field).
	Attempts int `json:"attempts,omitempty"`
}

func (j *job) persisted() *persistedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	pj := &persistedJob{
		ID:             j.id,
		State:          j.state,
		CreatedUnixNs:  j.created,
		StartedUnixNs:  j.started,
		FinishedUnixNs: j.finished,
		Outcome:        j.outcome,
		Error:          j.errMsg,
		Resumes:        j.resumes,
		Attempts:       j.attempts,
	}
	if j.spec != nil {
		pj.Request = j.spec.req
	}
	return pj
}

// errJobCorrupt marks an on-disk job directory whose job.json does not
// verify; the daemon skips it rather than refusing to start.
var errJobCorrupt = errors.New("server: corrupt job record")
