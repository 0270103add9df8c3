package core

import (
	"math"
	"testing"

	"irgrid/internal/obs"
)

// TestEvaluatorMetricsPopulated checks that an instrumented evaluation
// reports every engine metric: call/net counters, stage timings, grid
// dimensions, memo traffic and exact-lane counts.
func TestEvaluatorMetricsPopulated(t *testing.T) {
	chip := engineChip()
	nets := engineNets(500)
	reg := obs.NewRegistry()
	// ExactSpanLimit 2 pushes most lanes through the Simpson-approx
	// path so the memo counters see traffic.
	e := Model{Pitch: 30, Obs: reg, ExactSpanLimit: 2}.NewEvaluator()
	e.Score(chip, nets)
	e.Score(chip, nets) // warm pass: memo hits

	snap := reg.Snapshot()
	if got := snap["eval_calls_total"]; got != 2 {
		t.Errorf("eval_calls_total = %g, want 2", got)
	}
	if got := snap["eval_nets_total"]; got != 1000 {
		t.Errorf("eval_nets_total = %g, want 1000", got)
	}
	for _, name := range []string{
		"eval_axis_ns_total", "eval_accumulate_ns_total", "eval_topscore_ns_total",
		"eval_grid_cols", "eval_grid_rows",
		"eval_simpson_memo_hits_total", "eval_simpson_memo_misses_total",
		"eval_exact_lanes_total",
		"eval_ns_count", "eval_ns_sum",
	} {
		if v, ok := snap[name]; !ok || v <= 0 {
			t.Errorf("%s = %g (present %v), want > 0", name, v, ok)
		}
	}
	// Hits appear on the warm pass; misses stay non-zero because the
	// memo is capacity-bounded (memoCap) and this configuration's key
	// population exceeds it. Both being > 0 is asserted above.
}

// TestObserverDoesNotChangeScores: instrumentation must be invisible to
// the numbers — scores with and without a registry are bit-identical.
func TestObserverDoesNotChangeScores(t *testing.T) {
	chip := engineChip()
	nets := engineNets(400)
	for _, m := range []Model{
		{Pitch: 30},
		{Pitch: 30, ExactSpanLimit: 2},
		{Pitch: 30, Exact: true},
	} {
		plain := m.NewEvaluator().Score(chip, nets)
		m.Obs = obs.NewRegistry()
		traced := m.NewEvaluator().Score(chip, nets)
		if plain != traced {
			t.Errorf("%+v: instrumented score %v != plain %v", m, traced, plain)
		}
	}
}

// TestRecorderEvalEvents pins the eval event stream: every Evaluate
// through a recorder-attached model appends one timed eval event.
func TestRecorderEvalEvents(t *testing.T) {
	chip := engineChip()
	nets := engineNets(64)
	rec := obs.NewRecorder(8)
	e := Model{Pitch: 4, Recorder: rec}.NewEvaluator()
	e.Evaluate(chip, nets)
	e.Evaluate(chip, nets)
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != obs.RecEval {
			t.Errorf("event %d kind %q", i, ev.Kind)
		}
		if ev.Ns <= 0 {
			t.Errorf("event %d has no duration", i)
		}
	}
}

// TestPooledEvaluatorPicksUpObserver: the Model.Evaluate/Score pool
// must attach (and detach) instrumentation when the model changes.
func TestPooledEvaluatorPicksUpObserver(t *testing.T) {
	chip := engineChip()
	nets := engineNets(100)
	reg := obs.NewRegistry()
	Model{Pitch: 30}.Score(chip, nets) // seed the pool uninstrumented
	Model{Pitch: 30, Obs: reg}.Score(chip, nets)
	if got := reg.Snapshot()["eval_calls_total"]; got != 1 {
		t.Errorf("eval_calls_total = %g after one instrumented pooled call, want 1", got)
	}
	Model{Pitch: 30}.Score(chip, nets) // must detach again
	if got := reg.Snapshot()["eval_calls_total"]; got != 1 {
		t.Errorf("eval_calls_total = %g after a later uninstrumented call, want 1", got)
	}
}

// TestDisabledTelemetryZeroAlloc guards the zero-overhead contract's
// allocation half: with Model.Obs nil, steady-state Score performs no
// heap allocation (the telemetry fields are plain tallies, no
// instruments are resolved, no flush runs).
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	chip := engineChip()
	nets := engineNets(200)
	e := Model{Pitch: 30}.NewEvaluator()
	for i := 0; i < 3; i++ {
		e.Score(chip, nets)
	}
	if avg := testing.AllocsPerRun(10, func() { e.Score(chip, nets) }); avg > 0 {
		t.Fatalf("disabled-telemetry Score allocates %.1f times per call, want 0", avg)
	}
}

// laneKernel mirrors the shape of the exact-lane sweep: an outer loop
// over lanes, each doing a short multiplicative inner sweep, with the
// optional per-lane tally field increment the disabled telemetry path
// adds. The pair measures the tally's *marginal* cost in context — an
// isolated increment loop would overstate it, since in the real sweep
// the increment retires in the shadow of the float pipeline.
type laneKernel struct {
	sum   float64
	tally int64
}

//go:noinline
func (k *laneKernel) sweep(lanes, span int, count bool) {
	t := 1.0001
	for l := 0; l < lanes; l++ {
		sum := t
		for x := 0; x < span; x++ {
			t *= 0.99999871
			sum += t
		}
		k.sum += sum
		if count {
			k.tally++
		}
	}
}

// TestDisabledTelemetryNsBudget guards the timing half of the
// zero-overhead contract. The only work the disabled path adds to the
// hot sweep loops is one plain int64 field increment per lane / memo
// probe (instruments and timers sit behind a single nil check per
// Evaluate). The test bounds that cost from measurements:
// increments-per-call × marginal-cost-per-increment must stay under 2%
// of the call's total runtime.
func TestDisabledTelemetryNsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies the per-increment cost; the budget only holds for native builds")
	}
	chip := engineChip()
	nets := engineNets(500)

	// Count the increments one evaluation performs via an instrumented
	// twin: exact lanes plus Simpson-memo probes (each probe bumps
	// exactly one of the hit/miss tallies).
	reg := obs.NewRegistry()
	Model{Pitch: 30, Obs: reg}.NewEvaluator().Score(chip, nets)
	snap := reg.Snapshot()
	incs := snap["eval_exact_lanes_total"] +
		snap["eval_simpson_memo_hits_total"] + snap["eval_simpson_memo_misses_total"]
	if incs <= 0 {
		t.Fatal("instrumented twin recorded no tally increments")
	}

	// Marginal per-lane increment cost: kernel with tally minus kernel
	// without, per lane. Three rounds, keeping the smallest delta (the
	// least noise-inflated estimate); clamped at zero since the true
	// marginal cost cannot be negative.
	const lanes, span = 1024, 8
	var k laneKernel
	measure := func(count bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.sweep(lanes, span, count)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N) / lanes
	}
	perInc := math.Inf(1)
	for round := 0; round < 3; round++ {
		if d := measure(true) - measure(false); d < perInc {
			perInc = d
		}
	}
	if perInc < 0 {
		perInc = 0
	}

	e := Model{Pitch: 30}.NewEvaluator()
	e.Score(chip, nets) // warm
	s := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Score(chip, nets)
		}
	})
	scoreNs := float64(s.T.Nanoseconds()) / float64(s.N)

	overhead := incs*perInc + 100 // + a handful of nil checks per call
	if limit := 0.02 * scoreNs; overhead >= limit {
		t.Errorf("estimated disabled-telemetry overhead %.0f ns/op (%.0f increments × %.3f ns) exceeds 2%% of Score's %.0f ns/op",
			overhead, incs, perInc, scoreNs)
	}
	t.Logf("budget: %.0f increments × %.3f ns = %.0f ns vs Score %.0f ns/op (%.2f%%)",
		incs, perInc, incs*perInc, scoreNs, 100*incs*perInc/scoreNs)
}
