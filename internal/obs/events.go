package obs

// Trace event schema. A run trace is JSONL: one event object per line,
// each carrying an "ev" discriminator. The floorplanning pipeline
// emits, in order:
//
//	run_start    once — run identity: circuit, config, build version
//	calibration  once — initial-temperature calibration summary
//	temp         per temperature step (from the annealer)
//	solution     per temperature step (from fplan): the cost-component
//	             breakdown of the locally-optimized current solution
//	spans        once, before run_end — per-path span timing aggregates
//	run_end      once — final Stats plus a metrics snapshot
//
// TraceRecord is the union type for reading traces back.

// Event discriminators.
const (
	EvRunStart    = "run_start"
	EvCalibration = "calibration"
	EvTemp        = "temp"
	EvSolution    = "solution"
	EvSpans       = "spans"
	EvRunEnd      = "run_end"
)

// Run outcomes, recorded in RunEndEvent.Outcome, Status and
// postmortem dumps.
const (
	OutcomeCompleted = "completed"
	OutcomeCanceled  = "canceled"
	OutcomeDeadline  = "deadline"
	OutcomeError     = "error"
)

// RunStartEvent identifies the run: what is being optimized, under
// which configuration, by which build.
type RunStartEvent struct {
	Ev      string  `json:"ev"`
	Time    string  `json:"time,omitempty"` // RFC3339 wall clock
	Version string  `json:"version,omitempty"`
	Circuit string  `json:"circuit,omitempty"`
	Modules int     `json:"modules,omitempty"`
	Nets    int     `json:"nets,omitempty"`
	Seed    int64   `json:"seed"`
	Alpha   float64 `json:"alpha"`
	Beta    float64 `json:"beta"`
	Gamma   float64 `json:"gamma"`
	Model   string  `json:"model,omitempty"` // congestion estimator name
	Pitch   float64 `json:"pitch,omitempty"`
}

// CalibrationEvent summarizes the initial-temperature calibration.
type CalibrationEvent struct {
	Ev       string  `json:"ev"`
	Moves    int     `json:"moves"` // cost probes spent calibrating
	InitTemp float64 `json:"init_temp"`
	InitCost float64 `json:"init_cost"`
}

// TempEvent is one temperature step of the anneal.
type TempEvent struct {
	Ev         string  `json:"ev"`
	Step       int     `json:"step"`
	Temp       float64 `json:"temp"`
	Cost       float64 `json:"cost"` // current state's cost
	Best       float64 `json:"best"` // best cost so far
	Accepted   int     `json:"accepted"`
	Moves      int     `json:"moves"`
	AcceptRate float64 `json:"accept_rate"`
}

// SolutionEvent is the cost-component breakdown of the locally-
// optimized solution at one temperature step: raw physical terms and
// the normalized (raw / calibration-norm) values the weighted cost
// actually combines.
type SolutionEvent struct {
	Ev             string  `json:"ev"`
	Step           int     `json:"step"`
	Area           float64 `json:"area"`       // µm²
	Wirelength     float64 `json:"wirelength"` // µm
	Congestion     float64 `json:"congestion"` // estimator score
	NormArea       float64 `json:"norm_area"`
	NormWirelength float64 `json:"norm_wirelength"`
	NormCongestion float64 `json:"norm_congestion"`
	Cost           float64 `json:"cost"`
}

// SpansEvent carries the run's span timing tree as per-path
// aggregates, emitted once just before run_end when a span tracker
// was attached. Paths are slash-separated, so readers can rebuild the
// tree by prefix (cmd/tracestat renders it as an indented forest).
type SpansEvent struct {
	Ev    string          `json:"ev"`
	Spans []SpanAggregate `json:"spans"`
}

// RunEndEvent closes the trace with the run's Stats and, when a
// metrics registry was attached, a snapshot of every instrument (so a
// trace is self-contained: memo hit rates and stage timings ride along).
type RunEndEvent struct {
	Ev string `json:"ev"`
	// Outcome is how the run ended: completed|canceled|deadline|error.
	Outcome          string             `json:"outcome,omitempty"`
	Temps            int                `json:"temps"`
	Moves            int                `json:"moves"` // search moves only
	CalibrationMoves int                `json:"calibration_moves"`
	Accepted         int                `json:"accepted"`
	UphillAccepted   int                `json:"uphill_accepted"`
	BestStep         int                `json:"best_step"`
	InitTemp         float64            `json:"init_temp"`
	FinalTemp        float64            `json:"final_temp"`
	InitCost         float64            `json:"init_cost"`
	FinalCost        float64            `json:"final_cost"`
	Seconds          float64            `json:"seconds"`
	Metrics          map[string]float64 `json:"metrics,omitempty"`
}

// TraceRecord is the decoding union of every event type: unmarshal a
// trace line into it and dispatch on Ev. Fields not present in the
// line's event type stay zero.
type TraceRecord struct {
	Ev      string `json:"ev"`
	Time    string `json:"time"`
	Version string `json:"version"`
	Circuit string `json:"circuit"`
	Modules int    `json:"modules"`
	Nets    int    `json:"nets"`
	Seed    int64  `json:"seed"`

	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
	Model string  `json:"model"`
	Pitch float64 `json:"pitch"`

	Step       int     `json:"step"`
	Temp       float64 `json:"temp"`
	Cost       float64 `json:"cost"`
	Best       float64 `json:"best"`
	Accepted   int     `json:"accepted"`
	Moves      int     `json:"moves"`
	AcceptRate float64 `json:"accept_rate"`

	Area           float64 `json:"area"`
	Wirelength     float64 `json:"wirelength"`
	Congestion     float64 `json:"congestion"`
	NormArea       float64 `json:"norm_area"`
	NormWirelength float64 `json:"norm_wirelength"`
	NormCongestion float64 `json:"norm_congestion"`

	Temps            int                `json:"temps"`
	CalibrationMoves int                `json:"calibration_moves"`
	UphillAccepted   int                `json:"uphill_accepted"`
	BestStep         int                `json:"best_step"`
	InitTemp         float64            `json:"init_temp"`
	FinalTemp        float64            `json:"final_temp"`
	InitCost         float64            `json:"init_cost"`
	FinalCost        float64            `json:"final_cost"`
	Seconds          float64            `json:"seconds"`
	Metrics          map[string]float64 `json:"metrics"`

	Outcome string          `json:"outcome"`
	Spans   []SpanAggregate `json:"spans"`
}
