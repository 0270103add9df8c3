package fplan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"irgrid/internal/core"
	"irgrid/internal/geom"
	"irgrid/internal/grid"
	"irgrid/internal/netlist"
	"irgrid/internal/obs"
)

// TestTracedRunBitIdentical is the pipeline-level determinism guard:
// attaching a metrics registry and a trace to a full floorplanning run
// (annealer + evaluator + IR-grid estimator) must not change a single
// bit of the result.
func TestTracedRunBitIdentical(t *testing.T) {
	mk := func(reg *obs.Registry, tr *obs.Tracer) *Solution {
		r, err := New(tinyCircuit(), Config{
			Weights:   Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
			Estimator: core.Model{Pitch: 30},
			Pitch:     30, AllowRotate: true, Anneal: quickAnneal(13),
			Obs: reg, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _, _ := r.Run(nil, nil)
		return s
	}

	plain := mk(nil, nil)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	traced := mk(obs.NewRegistry(), tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if plain.Cost != traced.Cost || plain.Area != traced.Area ||
		plain.Wirelength != traced.Wirelength || plain.Congestion != traced.Congestion {
		t.Errorf("traced run diverged:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if plain.Expr.String() != traced.Expr.String() {
		t.Errorf("traced run found a different floorplan: %s vs %s",
			plain.Expr.String(), traced.Expr.String())
	}

	// The trace itself must be complete: run_start, calibration, one
	// temp + solution pair per step, run_end with a metrics snapshot
	// covering all three instrumented layers.
	counts := map[string]int{}
	var end obs.TraceRecord
	var temps, solutions []obs.TraceRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r obs.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		counts[r.Ev]++
		switch r.Ev {
		case obs.EvRunEnd:
			end = r
		case obs.EvTemp:
			temps = append(temps, r)
		case obs.EvSolution:
			solutions = append(solutions, r)
		}
	}
	if counts[obs.EvRunStart] != 1 || counts[obs.EvCalibration] != 1 || counts[obs.EvRunEnd] != 1 {
		t.Errorf("event counts: %v", counts)
	}
	if len(temps) == 0 || len(temps) != len(solutions) {
		t.Errorf("%d temp events vs %d solution events", len(temps), len(solutions))
	}
	for i := range solutions {
		if solutions[i].Step != temps[i].Step {
			t.Errorf("solution %d has step %d, temp has %d", i, solutions[i].Step, temps[i].Step)
		}
		if solutions[i].Cost <= 0 || solutions[i].NormArea <= 0 {
			t.Errorf("solution event %d has empty breakdown: %+v", i, solutions[i])
		}
	}
	for _, metric := range []string{
		"anneal_moves_total", "fplan_evals_total",
		// The incremental engine's move counters (the default scoring
		// path for the IR-grid estimator).
		"eval_incremental_moves", "eval_dirty_nets",
	} {
		if end.Metrics[metric] <= 0 {
			t.Errorf("run_end metrics missing %s: %v", metric, end.Metrics)
		}
	}
}

// countingEstimator records Score calls; used to prove the Gamma=0
// short-circuit never invokes the estimator.
type countingEstimator struct {
	calls *int
	score float64
}

func (c countingEstimator) Score(geom.Rect, []netlist.TwoPin) float64 {
	*c.calls++
	return c.score
}

func (c countingEstimator) Name() string { return "counting" }

func TestCostGammaZeroSkipsEstimator(t *testing.T) {
	calls := 0
	r, err := New(tinyCircuit(), Config{
		Weights:   Weights{Alpha: 0.5, Beta: 0.5}, // Gamma 0
		Estimator: countingEstimator{calls: &calls, score: 42},
		Pitch:     30, AllowRotate: true, Anneal: quickAnneal(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Evaluate(sliceInitial(4))
	if calls != 0 {
		t.Errorf("estimator called %d times with Gamma=0, want 0", calls)
	}
	if s.Congestion != 0 {
		t.Errorf("congestion = %g with Gamma=0", s.Congestion)
	}
	if r.normCgt != 1 {
		t.Errorf("normCgt = %g, want the positive() fallback 1", r.normCgt)
	}
}

func TestCostDegenerateNormalization(t *testing.T) {
	// An always-zero congestion estimator degenerates normCgt: the
	// calibration average is 0, so positive() must fall back to 1 and
	// the congestion term contributes Gamma·0/1 = 0 without dividing by
	// zero.
	calls := 0
	r, err := New(tinyCircuit(), Config{
		Weights:   Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
		Estimator: countingEstimator{calls: &calls, score: 0},
		Pitch:     30, AllowRotate: true, Anneal: quickAnneal(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("estimator never called despite Gamma != 0")
	}
	if r.normCgt != 1 {
		t.Errorf("normCgt = %g for an all-zero estimator, want 1", r.normCgt)
	}
	s := r.Evaluate(sliceInitial(4))
	want := 0.4*s.Area/r.normArea + 0.2*s.Wirelength/r.normWire
	if s.Cost != want {
		t.Errorf("cost = %g, want %g (zero congestion term)", s.Cost, want)
	}
}

func TestCostNoNetsCircuit(t *testing.T) {
	// A circuit without nets has zero wirelength everywhere: normWire
	// degenerates to the positive() fallback and the cost reduces to
	// the area term alone.
	c := tinyCircuit()
	c.Nets = nil
	r, err := New(c, Config{
		Weights: Weights{Alpha: 0.7, Beta: 0.3},
		Pitch:   30, AllowRotate: true, Anneal: quickAnneal(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.normWire != 1 || r.normCgt != 1 {
		t.Errorf("norms = (%g, %g), want (1, 1)", r.normWire, r.normCgt)
	}
	s := r.Evaluate(sliceInitial(4))
	if s.Wirelength != 0 {
		t.Errorf("wirelength = %g for a netless circuit", s.Wirelength)
	}
	if want := 0.7 * s.Area / r.normArea; s.Cost != want {
		t.Errorf("cost = %g, want area term %g", s.Cost, want)
	}
}

func TestPositiveFallback(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 1}, {-5, 1}, {3, 3}, {0.25, 0.25},
	} {
		if got := positive(tc.in); got != tc.want {
			t.Errorf("positive(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestObserverForwardedToEstimator: a registry on the Config must
// reach estimators that support the WithObserver hook and leave others
// untouched.
func TestObserverForwardedToEstimator(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := New(tinyCircuit(), Config{
		Weights:   Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
		Estimator: core.Model{Pitch: 30},
		Pitch:     30, AllowRotate: true, Anneal: quickAnneal(1),
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Cfg.Estimator.(core.Model)
	if !ok {
		t.Fatalf("estimator type changed: %T", r.Cfg.Estimator)
	}
	if m.Obs != reg {
		t.Fatal("registry not forwarded to the IR-grid estimator")
	}
	// New's calibration evaluations already flow through the
	// instrumented incremental engine.
	if reg.Snapshot()["eval_incremental_moves"] <= 0 {
		t.Error("calibration produced no evaluator metrics")
	}

	r2, err := New(tinyCircuit(), Config{
		Weights:   Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
		Estimator: grid.Model{Pitch: 30},
		Pitch:     30, AllowRotate: true, Anneal: quickAnneal(1),
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Cfg.Estimator.(grid.Model); !ok {
		t.Fatalf("fixed-grid estimator type changed: %T", r2.Cfg.Estimator)
	}
}
