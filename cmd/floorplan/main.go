// Command floorplan runs the routability-driven floorplanner on a
// built-in benchmark or a YAL-subset circuit file and reports the
// resulting area, wirelength and congestion. With -json it emits the
// full floorplan (placement + decomposed nets) for cmd/congest.
//
// Examples:
//
//	floorplan -circuit ami33 -gamma 0.4 -model ir-grid -pitch 30
//	floorplan -yal mydesign.yal -alpha 0.5 -beta 0.5 -seed 7
//	floorplan -circuit apte -json > apte.floorplan.json
//	floorplan -circuit ami49 -timeout 30s -checkpoint run.ckpt
//	floorplan -circuit ami49 -resume run.ckpt
//	floorplan -circuit ami49 -postmortem run.postmortem.json -metrics-addr 127.0.0.1:9090
//
// Long runs are interruptible: on SIGINT/SIGTERM (or when -timeout
// expires) the annealer stops at the next move, reports the best
// floorplan found so far, writes a final -checkpoint snapshot when one
// is configured, and exits 130 (interrupt) or 124 (timeout). A later
// invocation with -resume continues bit-identically from the snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/ascii"
	"irgrid/internal/buildinfo"
	"irgrid/internal/cli"
	"irgrid/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		circuit   = flag.String("circuit", "", "built-in benchmark name ("+strings.Join(floorplan.BenchmarkNames(), ", ")+")")
		yal       = flag.String("yal", "", "path to a YAL-subset circuit file (alternative to -circuit)")
		alpha     = flag.Float64("alpha", 0.4, "area weight")
		beta      = flag.Float64("beta", 0.2, "wirelength weight")
		gamma     = flag.Float64("gamma", 0.4, "congestion weight (0 disables the congestion term)")
		model     = flag.String("model", floorplan.ModelIRGrid, "congestion model: ir-grid, ir-grid-exact, fixed-grid")
		pitch     = flag.Float64("pitch", 30, "grid pitch in um")
		seed      = flag.Int64("seed", 1, "random seed")
		moves     = flag.Int("moves", 100, "SA moves per temperature")
		temps     = flag.Int("temps", 100, "maximum SA temperature steps")
		judge     = flag.Bool("judge", false, "also score the result with the 10x10 um judging model")
		asJSON    = flag.Bool("json", false, "emit the floorplan as JSON on stdout")
		draw      = flag.Bool("draw", false, "render the placement as ASCII art")
		trace     = flag.String("trace", "", "write a JSONL run trace to this file (summarize with tracestat)")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof/ on this host:port during the run")
		timeout   = flag.Duration("timeout", 0, "stop the run after this duration, reporting the best floorplan so far (exit 124)")
		ckptPath  = flag.String("checkpoint", "", "write a resumable snapshot to this file periodically and on interrupt")
		ckptEvery = flag.Int("checkpoint-every", 0, "temperature steps between snapshots (default 10 when -checkpoint is set)")
		resume    = flag.String("resume", "", "continue from a snapshot written by -checkpoint")
		postm     = flag.String("postmortem", "", "arm a flight recorder that dumps a postmortem JSON file here on interrupt, deadline, stall or SIGQUIT")
		stall     = flag.Duration("stall-timeout", 0, "cancel the run when it makes no annealing progress for this long, reporting the best floorplan so far (0 disables)")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version())
		return 0
	}

	c, err := loadCircuit(*circuit, *yal)
	if err != nil {
		fmt.Fprintln(os.Stderr, "floorplan:", err)
		// Flag mistakes (neither/both sources, unknown benchmark) are
		// usage errors; a circuit file that fails to parse is invalid
		// input, matching the library's typed sentinel.
		if errors.Is(err, floorplan.ErrInvalidInput) {
			return cli.ExitInvalidInput
		}
		return cli.ExitUsage
	}
	opts := floorplan.Options{
		Alpha: *alpha, Beta: *beta, Gamma: *gamma,
		Seed:         *seed,
		MovesPerTemp: *moves, MaxTemps: *temps,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
	}
	if *gamma > 0 {
		opts.Congestion = floorplan.Congestion{Model: *model, Pitch: *pitch}
	}
	opts.PinPitch = *pitch

	// Telemetry is opt-in: a registry exists only when something
	// consumes it (an HTTP endpoint or a trace's run_end snapshot).
	if *trace != "" || *metrics != "" {
		opts.Obs = telemetry.NewRegistry()
		opts.Spans = telemetry.NewSpans()
	}
	if *metrics != "" || *stall > 0 {
		// The live status feeds /debug/run and is the stuck-run
		// watchdog's progress signal.
		opts.Status = telemetry.NewStatus()
	}
	if *postm != "" {
		opts.Recorder = telemetry.NewRecorder(0)
		opts.PostmortemPath = *postm
	}
	if *metrics != "" {
		srv, addr, err := telemetry.ServeHub(*metrics, telemetry.Hub{
			Reg:      opts.Obs,
			Spans:    opts.Spans,
			Status:   opts.Status,
			Recorder: opts.Recorder,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "floorplan:", err)
			return cli.ExitFailure
		}
		defer func() {
			// Graceful drain: let in-flight scrapes finish before exit.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "floorplan: serving metrics at http://%s/metrics (live status at /debug/run)\n", addr)
	}
	if opts.Recorder != nil {
		// SIGQUIT dumps the flight recorder without killing the run —
		// the black-box equivalent of the Go runtime's stack dump.
		qc := make(chan os.Signal, 1)
		signal.Notify(qc, syscall.SIGQUIT)
		defer signal.Stop(qc)
		go func() {
			for range qc {
				if path, err := opts.Recorder.Dump("sigquit"); err != nil {
					fmt.Fprintln(os.Stderr, "floorplan: postmortem:", err)
				} else if path != "" {
					fmt.Fprintf(os.Stderr, "floorplan: postmortem written to %s\n", path)
				}
			}
		}()
	}
	if *trace != "" {
		tr, err := telemetry.CreateTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floorplan:", err)
			return cli.ExitFailure
		}
		opts.Trace = tr
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "floorplan: closing trace:", err)
			}
		}()
	}

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()
	if *stall > 0 {
		// Single-run watchdog: the daemon-side stuck-run killer, scaled
		// down to one process. When the annealer makes no observable
		// progress (moves or temperature steps) for -stall-timeout, the
		// run is canceled — the best floorplan so far is still reported,
		// and an armed flight recorder dumps a postmortem first.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go watchStall(ctx, cancel, opts.Status, opts.Recorder, *stall)
	}

	var res *floorplan.Result
	var runErr error
	if *resume != "" {
		snap, err := floorplan.LoadCheckpoint(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floorplan:", err)
			return cli.ExitInvalidInput
		}
		if opts.CheckpointPath == "" {
			// Keep interrupted-and-resumed runs resumable by default.
			opts.CheckpointPath = *resume
		}
		res, runErr = floorplan.Resume(ctx, c, opts, snap)
	} else {
		res, runErr = floorplan.RunContext(ctx, c, opts)
	}
	interrupted := runErr != nil && (errors.Is(runErr, floorplan.ErrCanceled) || errors.Is(runErr, floorplan.ErrDeadline))
	if runErr != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "floorplan:", runErr)
		return cli.ExitCode(runErr, floorplan.ErrInvalidInput, floorplan.ErrSnapshotMismatch)
	}
	exit := 0
	if interrupted {
		// The best-so-far result below is valid; the exit code records
		// the interruption for scripts.
		exit = cli.ExitCode(runErr)
		fmt.Fprintf(os.Stderr, "floorplan: %v; reporting best floorplan so far\n", runErr)
		if opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "floorplan: resume with -resume %s\n", opts.CheckpointPath)
		}
	}

	if *asJSON {
		out := jsonResult{
			Circuit: res.Circuit,
			ChipW:   res.ChipW, ChipH: res.ChipH,
			Area: res.Area, Wirelength: res.Wirelength,
			CongestionCost: res.CongestionCost,
			Modules:        res.Modules,
			Nets:           res.TwoPinNets(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "floorplan:", err)
			return cli.ExitFailure
		}
		return exit
	}

	fmt.Printf("circuit      %s\n", res.Circuit)
	fmt.Printf("chip         %.0f x %.0f um\n", res.ChipW, res.ChipH)
	fmt.Printf("area         %.3f mm2\n", res.Area/1e6)
	fmt.Printf("wirelength   %.0f um\n", res.Wirelength)
	if *gamma > 0 {
		fmt.Printf("congestion   %.6g (%s, pitch %.0f um)\n", res.CongestionCost, *model, *pitch)
	}
	if *judge {
		j, err := res.JudgeCongestion()
		if err != nil {
			fmt.Fprintln(os.Stderr, "floorplan:", err)
			return cli.ExitFailure
		}
		fmt.Printf("judging cgt  %.6f (fixed grid, 10x10 um)\n", j)
	}
	fmt.Printf("runtime      %.2fs over %d temperature steps\n", res.Runtime.Seconds(), res.Temperatures)
	fmt.Printf("\n%-14s %10s %10s %10s %10s %s\n", "module", "x1", "y1", "x2", "y2", "rot")
	for _, m := range res.Modules {
		rot := ""
		if m.Rotated {
			rot = "R"
		}
		fmt.Printf("%-14s %10.0f %10.0f %10.0f %10.0f %s\n", m.Name, m.X1, m.Y1, m.X2, m.Y2, rot)
	}
	if *draw {
		boxes := make([]ascii.Box, len(res.Modules))
		for i, m := range res.Modules {
			label := m.Name
			if j := strings.LastIndexByte(label, '_'); j >= 0 {
				label = label[j+1:] // trim the circuit prefix
			}
			boxes[i] = ascii.Box{Label: label, X1: m.X1, Y1: m.Y1, X2: m.X2, Y2: m.Y2}
		}
		fmt.Println()
		fmt.Print(ascii.Floorplan(res.ChipW, res.ChipH, boxes, 78, 30))
	}
	return exit
}

// watchStall cancels the run when the live status stops advancing for
// stall. It polls at a quarter of the stall budget (at least 50ms), so
// a stall is detected within 1.25x the configured timeout.
func watchStall(ctx context.Context, cancel context.CancelFunc, status *telemetry.Status, rec *telemetry.Recorder, stall time.Duration) {
	every := stall / 4
	if every < 50*time.Millisecond {
		every = 50 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var last int64
	lastAt := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		snap := status.Snapshot()
		progress := snap.Moves + int64(snap.Step)
		if progress != last {
			last, lastAt = progress, time.Now()
			continue
		}
		if time.Since(lastAt) < stall {
			continue
		}
		fmt.Fprintf(os.Stderr, "floorplan: watchdog: no observable progress for %s; canceling run\n", stall)
		if rec != nil {
			if path, err := rec.Dump("watchdog_stall"); err == nil && path != "" {
				fmt.Fprintf(os.Stderr, "floorplan: postmortem written to %s\n", path)
			}
		}
		cancel()
		return
	}
}

// jsonResult is the interchange document consumed by cmd/congest.
type jsonResult struct {
	Circuit        string                   `json:"circuit"`
	ChipW          float64                  `json:"chip_w"`
	ChipH          float64                  `json:"chip_h"`
	Area           float64                  `json:"area"`
	Wirelength     float64                  `json:"wirelength"`
	CongestionCost float64                  `json:"congestion_cost"`
	Modules        []floorplan.PlacedModule `json:"modules"`
	Nets           [][4]float64             `json:"nets"`
}

func loadCircuit(name, yalPath string) (*floorplan.Circuit, error) {
	switch {
	case name != "" && yalPath != "":
		return nil, fmt.Errorf("use either -circuit or -yal, not both")
	case name != "":
		return floorplan.Benchmark(name)
	case yalPath != "":
		f, err := os.Open(yalPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return floorplan.LoadYAL(f)
	default:
		return nil, fmt.Errorf("one of -circuit or -yal is required")
	}
}
