// Package floorplan is the public API of the irgrid library: a
// routability-driven slicing floorplanner with pluggable probabilistic
// congestion models, reproducing "A New Effective Congestion Model in
// Floorplan Design" (Hsieh & Hsieh, DATE 2004).
//
// A quickstart:
//
//	c, _ := floorplan.Benchmark("ami33")
//	res, _ := floorplan.Run(c, floorplan.Options{
//		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
//		Congestion: floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: 30},
//		Seed:  1,
//	})
//	fmt.Println(res.Area, res.Wirelength, res.CongestionCost)
//
// The floorplanner packs hard rectangular modules with a simulated-
// annealing search over normalized Polish expressions (Wong–Liu),
// places pins by the intersection-to-intersection method, decomposes
// multi-pin nets with Manhattan minimum spanning trees, and scores
// congestion with either the classic fixed-size-grid model or the
// paper's Irregular-Grid model.
package floorplan

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"irgrid/internal/anneal"
	"irgrid/internal/bench"
	"irgrid/internal/ckpt"
	"irgrid/internal/core"
	"irgrid/internal/fplan"
	"irgrid/internal/grid"
	"irgrid/internal/netlist"
	"irgrid/internal/wl"
	"irgrid/telemetry"
)

// Module is a rectangular block with unrotated dimensions in µm. Pad
// modules are never rotated by the packer. Setting
// MinAspect < MaxAspect makes the module soft: the packer may realize
// it as any same-area rectangle whose width/height ratio lies in that
// range.
type Module struct {
	Name                 string
	W, H                 float64
	Pad                  bool
	MinAspect, MaxAspect float64
}

// Pin is one terminal of a net: a module (by name) and the pin's
// offset inside it as fractions of the module's width and height.
type Pin struct {
	Module string
	FX, FY float64
}

// Net is a named multi-pin net.
type Net struct {
	Name string
	Pins []Pin
}

// Circuit is a floorplanning instance.
type Circuit struct {
	Name    string
	Modules []Module
	Nets    []Net
}

// Benchmark returns one of the built-in synthetic MCNC-statistics
// circuits: apte, xerox, hp, ami33 or ami49.
func Benchmark(name string) (*Circuit, error) {
	c, err := bench.Load(name)
	if err != nil {
		return nil, err
	}
	return fromInternal(c), nil
}

// BenchmarkNames lists the built-in benchmark circuits.
func BenchmarkNames() []string { return bench.Names() }

// LoadYAL parses a circuit in the YAL-subset interchange format.
// Malformed input fails with an error matching ErrInvalidInput.
func LoadYAL(r io.Reader) (*Circuit, error) {
	c, err := netlist.ReadYAL(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return fromInternal(c), nil
}

// WriteYAL serialises the circuit in the YAL-subset format.
func (c *Circuit) WriteYAL(w io.Writer) error {
	ic, err := c.toInternal()
	if err != nil {
		return err
	}
	return netlist.WriteYAL(w, ic)
}

// Validate checks the circuit's structural consistency.
func (c *Circuit) Validate() error {
	_, err := c.toInternal()
	return err
}

func fromInternal(ic *netlist.Circuit) *Circuit {
	c := &Circuit{Name: ic.Name}
	for _, m := range ic.Modules {
		c.Modules = append(c.Modules, Module{
			Name: m.Name, W: m.W, H: m.H, Pad: m.Pad,
			MinAspect: m.MinAspect, MaxAspect: m.MaxAspect,
		})
	}
	for _, n := range ic.Nets {
		net := Net{Name: n.Name}
		for _, p := range n.Pins {
			net.Pins = append(net.Pins, Pin{
				Module: ic.Modules[p.Module].Name, FX: p.FX, FY: p.FY,
			})
		}
		c.Nets = append(c.Nets, net)
	}
	return c
}

func (c *Circuit) toInternal() (*netlist.Circuit, error) {
	ic := &netlist.Circuit{Name: c.Name}
	index := make(map[string]int, len(c.Modules))
	for i, m := range c.Modules {
		index[m.Name] = i
		ic.Modules = append(ic.Modules, netlist.Module{
			Name: m.Name, W: m.W, H: m.H, Pad: m.Pad,
			MinAspect: m.MinAspect, MaxAspect: m.MaxAspect,
		})
	}
	for _, n := range c.Nets {
		net := netlist.Net{Name: n.Name}
		for _, p := range n.Pins {
			mi, ok := index[p.Module]
			if !ok {
				return nil, fmt.Errorf("floorplan: net %q references unknown module %q", n.Name, p.Module)
			}
			net.Pins = append(net.Pins, netlist.PinRef{Module: mi, FX: p.FX, FY: p.FY})
		}
		ic.Nets = append(ic.Nets, net)
	}
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	return ic, nil
}

// Congestion model identifiers.
const (
	// ModelNone disables the congestion term.
	ModelNone = ""
	// ModelIRGrid is the paper's Irregular-Grid model with the O(1)
	// Theorem 1 approximation.
	ModelIRGrid = "ir-grid"
	// ModelIRGridExact is the Irregular-Grid model with exact Formula 3
	// boundary-escape sums.
	ModelIRGridExact = "ir-grid-exact"
	// ModelFixedGrid is the fixed-size-grid model of Sham & Young.
	ModelFixedGrid = "fixed-grid"
	// ModelFixedGridLZ is the bend-limited variant of the fixed model:
	// only 1- and 2-bend shortest routes are considered.
	ModelFixedGridLZ = "fixed-grid-lz"
)

// Congestion selects and parameterizes a congestion model.
type Congestion struct {
	// Model is one of the Model* constants.
	Model string
	// Pitch is the grid pitch in µm (IR-grid base pitch or fixed grid
	// size). Zero defaults to 30.
	Pitch float64
}

func (cg Congestion) estimator() (fplan.Estimator, error) {
	pitch := cg.Pitch
	if pitch <= 0 {
		pitch = 30
	}
	switch cg.Model {
	case ModelNone:
		return nil, nil
	case ModelIRGrid:
		return core.Model{Pitch: pitch}, nil
	case ModelIRGridExact:
		return core.Model{Pitch: pitch, Exact: true}, nil
	case ModelFixedGrid:
		return grid.Model{Pitch: pitch}, nil
	case ModelFixedGridLZ:
		return grid.LZModel{Pitch: pitch}, nil
	default:
		return nil, fmt.Errorf("floorplan: unknown congestion model %q", cg.Model)
	}
}

// Options configures a floorplanning run. The zero value optimizes
// area and wirelength equally with no congestion term.
type Options struct {
	// Alpha, Beta and Gamma weight area, wirelength and congestion in
	// the cost function α·A + β·W + γ·C (terms are normalized
	// internally). All zero defaults to Alpha = Beta = 0.5.
	Alpha, Beta, Gamma float64
	// Congestion selects the congestion model; required when Gamma > 0.
	Congestion Congestion
	// PinPitch is the routing-grid pitch pins are snapped to
	// (intersection-to-intersection method). Zero defaults to the
	// congestion pitch, or 30 µm.
	PinPitch float64
	// Seed makes runs reproducible.
	Seed int64
	// NoRotate disables 90° module rotation.
	NoRotate bool
	// MovesPerTemp and MaxTemps size the simulated-annealing schedule
	// (defaults 100 and 200).
	MovesPerTemp, MaxTemps int
	// WirelengthModel selects the wirelength estimator in the cost
	// function: "mst" (default, the paper's model), "hpwl", "star",
	// "clique" or "steiner". Congestion always uses MST-decomposed 2-pin nets.
	WirelengthModel string
	// Representation selects the floorplan encoding: "slicing"
	// (default, the paper's Wong–Liu Polish expressions) or "seqpair"
	// (sequence pair, covering non-slicing packings; soft modules pack
	// at nominal dimensions there).
	Representation string
	// FullEval disables incremental congestion evaluation and scores
	// every SA move from scratch. The incremental engine (the default
	// when the model supports it) is bit-identical to full
	// evaluation, so this trades only throughput — useful for
	// apples-to-apples timing baselines.
	FullEval bool
	// Obs, when non-nil, receives live run metrics from every layer:
	// annealer move/temperature instruments, per-evaluation cost
	// components, and the IR evaluation engine's stage timings and memo
	// counters. Serve them with telemetry.Serve. Telemetry never
	// perturbs the search: instrumented runs are bit-identical.
	Obs *telemetry.Registry
	// Trace, when non-nil, receives the JSONL run trace (run_start,
	// calibration, per-temperature temp + solution events, a spans
	// event when Spans is set, run_end). Summarize traces with
	// cmd/tracestat.
	Trace *telemetry.Tracer
	// Spans, when non-nil, collects the run's hierarchical timing
	// tree: parse, setup, run/anneal/{calibrate,temp,checkpoint},
	// run/finalize and the evaluator's evaluate/move stages. Aggregates
	// ride the trace (spans event) and /debug/run; spans only time work
	// the run performed anyway, so span-enabled runs are bit-identical.
	Spans *telemetry.Spans
	// Recorder, when non-nil, is a black-box flight recorder holding
	// the last N move/temperature/eval events. Together with
	// PostmortemPath it dumps a postmortem JSON file on cancellation
	// and run errors (CLIs additionally dump on SIGQUIT).
	Recorder *telemetry.Recorder
	// Status, when non-nil, receives the live run-status feed (step,
	// temps, acceptance, best cost, moves/sec, ETA) served by the
	// telemetry hub's /debug/run endpoint.
	Status *telemetry.Status
	// PostmortemPath, when non-empty, arms postmortem dumps at this
	// path. If Recorder is nil a default-capacity recorder is created
	// automatically.
	PostmortemPath string
	// CheckpointPath, when non-empty, writes a resumable snapshot of
	// the run to this file every CheckpointEvery temperature steps
	// (atomically: temp file + rename), and once more if the run is
	// canceled. Load it with LoadCheckpoint and continue with Resume.
	CheckpointPath string
	// CheckpointEvery is the snapshot period in temperature steps
	// (default 10 when a checkpoint destination is configured).
	CheckpointEvery int
	// Checkpoint, when non-nil, receives every boundary snapshot
	// programmatically (after the CheckpointPath write, when both are
	// set). Sink errors never abort the run.
	Checkpoint func(*Snapshot) error
}

// Floorplan representations accepted by Options.Representation.
const (
	ReprSlicing = "slicing"
	ReprSeqPair = "seqpair"
)

// PlacedModule is a module's final position.
type PlacedModule struct {
	Name           string
	X1, Y1, X2, Y2 float64
	Rotated        bool
}

// Result is a finished floorplan with its metrics.
type Result struct {
	Circuit          string
	ChipW, ChipH     float64
	Area             float64 // µm²
	Wirelength       float64 // µm
	CongestionCost   float64 // estimator score; 0 when no estimator
	Cost             float64 // normalized weighted cost
	Modules          []PlacedModule
	Runtime          time.Duration
	Temperatures     int // SA temperature steps executed
	Moves            int // SA search moves proposed (calibration excluded)
	CalibrationMoves int // cost probes spent calibrating the initial temperature
	Accepted         int // SA moves accepted

	circuit *netlist.Circuit
	sol     *fplan.Solution
}

// validateOptions rejects option values that cannot parameterize any
// run — non-finite or negative weights, pitches and schedule sizes —
// with errors matching ErrInvalidInput. Zero values still mean "use
// the default" everywhere they did before.
func validateOptions(opts *Options) error {
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s must be finite, got %g", ErrInvalidInput, name, v)
		}
		if v < 0 {
			return fmt.Errorf("%w: %s must be non-negative, got %g", ErrInvalidInput, name, v)
		}
		return nil
	}
	if err := finite("Alpha", opts.Alpha); err != nil {
		return err
	}
	if err := finite("Beta", opts.Beta); err != nil {
		return err
	}
	if err := finite("Gamma", opts.Gamma); err != nil {
		return err
	}
	if err := finite("PinPitch", opts.PinPitch); err != nil {
		return err
	}
	if err := finite("Congestion.Pitch", opts.Congestion.Pitch); err != nil {
		return err
	}
	if opts.MovesPerTemp < 0 || opts.MaxTemps < 0 {
		return fmt.Errorf("%w: MovesPerTemp=%d MaxTemps=%d must be non-negative",
			ErrInvalidInput, opts.MovesPerTemp, opts.MaxTemps)
	}
	if opts.CheckpointEvery < 0 {
		return fmt.Errorf("%w: CheckpointEvery must be non-negative, got %d", ErrInvalidInput, opts.CheckpointEvery)
	}
	return nil
}

// resolveOptions validates opts and resolves the derived run
// parameters every caller needs: the congestion estimator (nil when
// the congestion term is disabled) and the effective area/wirelength
// weights. All failures match ErrInvalidInput.
func resolveOptions(opts *Options) (est fplan.Estimator, alpha, beta float64, err error) {
	if err := validateOptions(opts); err != nil {
		return nil, 0, 0, err
	}
	est, err = opts.Congestion.estimator()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if opts.Gamma != 0 && est == nil {
		return nil, 0, 0, fmt.Errorf("%w: Gamma=%g requires Options.Congestion.Model", ErrInvalidInput, opts.Gamma)
	}
	switch opts.WirelengthModel {
	case "", string(wl.ModelMST), string(wl.ModelHPWL), string(wl.ModelStar), string(wl.ModelClique), string(wl.ModelSteiner):
	default:
		return nil, 0, 0, fmt.Errorf("%w: unknown wirelength model %q", ErrInvalidInput, opts.WirelengthModel)
	}
	switch opts.Representation {
	case "", ReprSlicing, ReprSeqPair:
	default:
		return nil, 0, 0, fmt.Errorf("%w: unknown representation %q", ErrInvalidInput, opts.Representation)
	}
	alpha, beta = opts.Alpha, opts.Beta
	if alpha == 0 && beta == 0 && opts.Gamma == 0 {
		alpha, beta = 0.5, 0.5
	}
	return est, alpha, beta, nil
}

// ValidateOptions checks that opts could parameterize a run — finite
// non-negative weights and pitches, known model/wirelength/
// representation names, a congestion model whenever Gamma > 0 —
// without running anything. Failures match ErrInvalidInput. Services
// use it to reject bad submissions at the API boundary instead of
// discovering them when the job is eventually scheduled.
func ValidateOptions(opts Options) error {
	_, _, _, err := resolveOptions(&opts)
	return err
}

// Run floorplans the circuit. It is RunContext without cancellation.
func Run(c *Circuit, opts Options) (*Result, error) {
	return RunContext(context.Background(), c, opts)
}

// RunContext floorplans the circuit under a context. Cancellation is
// cooperative: the annealer checks the context at every proposed move
// and the IR-grid estimator every 64 nets inside an evaluation. On
// cancellation RunContext returns the best result found so far
// together with ErrCanceled (or ErrDeadline when the context's
// deadline expired) — the partial Result is valid and fully evaluated
// — and, when checkpointing is configured, writes one final resumable
// snapshot.
func RunContext(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	return runContext(ctx, c, opts, nil)
}

func runContext(ctx context.Context, c *Circuit, opts Options, snap *Snapshot) (*Result, error) {
	est, alpha, beta, err := resolveOptions(&opts)
	if err != nil {
		return nil, err
	}
	sp := opts.Spans.Start("parse")
	ic, err := c.toInternal()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	pinPitch := opts.PinPitch
	if pinPitch <= 0 {
		pinPitch = opts.Congestion.Pitch
	}
	if pinPitch <= 0 {
		pinPitch = 30
	}
	checkpoint := opts.Checkpoint
	if path := opts.CheckpointPath; path != "" {
		user := checkpoint
		checkpoint = func(s *Snapshot) error {
			if err := ckpt.Save(path, s); err != nil {
				return err
			}
			if user != nil {
				return user(s)
			}
			return nil
		}
	}
	every := opts.CheckpointEvery
	if checkpoint != nil && every <= 0 {
		every = 10
	}
	if opts.PostmortemPath != "" && opts.Recorder == nil {
		opts.Recorder = telemetry.NewRecorder(0)
	}
	runner, err := fplan.New(ic, fplan.Config{
		Weights:         fplan.Weights{Alpha: alpha, Beta: beta, Gamma: opts.Gamma},
		Estimator:       est,
		Pitch:           pinPitch,
		AllowRotate:     !opts.NoRotate,
		Wire:            wl.Model(opts.WirelengthModel),
		Representation:  opts.Representation,
		FullEval:        opts.FullEval,
		Obs:             opts.Obs,
		Trace:           opts.Trace,
		Spans:           opts.Spans,
		Recorder:        opts.Recorder,
		Status:          opts.Status,
		PostmortemPath:  opts.PostmortemPath,
		CheckpointEvery: every,
		Checkpoint:      checkpoint,
		Resume:          snap,
		Anneal: anneal.Config{
			Seed:         opts.Seed,
			MovesPerTemp: opts.MovesPerTemp,
			MaxTemps:     opts.MaxTemps,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	start := time.Now()
	sol, stats, runErr := runner.Run(ctx, nil)
	if runErr != nil && sol == nil {
		return nil, runErr
	}
	res := &Result{
		Circuit:          ic.Name,
		ChipW:            sol.Placement.Chip.W(),
		ChipH:            sol.Placement.Chip.H(),
		Area:             sol.Area,
		Wirelength:       sol.Wirelength,
		CongestionCost:   sol.Congestion,
		Cost:             sol.Cost,
		Runtime:          time.Since(start),
		Temperatures:     stats.Temps,
		Moves:            stats.Moves,
		CalibrationMoves: stats.CalibrationMoves,
		Accepted:         stats.Accepted,
		circuit:          ic,
		sol:              sol,
	}
	for i, r := range sol.Placement.Rects {
		res.Modules = append(res.Modules, PlacedModule{
			Name: ic.Modules[i].Name,
			X1:   r.X1, Y1: r.Y1, X2: r.X2, Y2: r.Y2,
			Rotated: sol.Placement.Rotated[i],
		})
	}
	return res, runErr
}
