package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
)

// engineChip and engineNets build a fixed synthetic instance that
// exercises both evaluation paths (short exact spans and long Simpson
// spans).
func engineChip() geom.Rect { return geom.Rect{X1: 0, Y1: 0, X2: 3000, Y2: 2400} }

func engineNets(n int) []netlist.TwoPin {
	rng := rand.New(rand.NewSource(20040216)) // fixed: the fixture is part of the test
	chip := engineChip()
	nets := make([]netlist.TwoPin, n)
	for i := range nets {
		a := geom.Pt{
			X: chip.X1 + rng.Float64()*chip.W(),
			Y: chip.Y1 + rng.Float64()*chip.H(),
		}
		// Mix of long diagonal nets, short local nets and a few
		// degenerate (shared row/column) nets.
		var b geom.Pt
		switch i % 7 {
		case 0:
			b = geom.Pt{X: a.X, Y: chip.Y1 + rng.Float64()*chip.H()}
		case 1, 2:
			b = geom.Pt{
				X: math.Min(chip.X2, a.X+rng.Float64()*200),
				Y: math.Max(chip.Y1, a.Y-rng.Float64()*200),
			}
		default:
			b = geom.Pt{
				X: chip.X1 + rng.Float64()*chip.W(),
				Y: chip.Y1 + rng.Float64()*chip.H(),
			}
		}
		nets[i] = netlist.TwoPin{A: a, B: b}
	}
	return nets
}

// TestEvaluatorReuseIsStable holds one Evaluator across repeated calls
// (the SA steady state): warm memos and reused arenas must not change
// a single bit of the output.
func TestEvaluatorReuseIsStable(t *testing.T) {
	chip := engineChip()
	nets := engineNets(500)
	e := Model{Pitch: 4}.NewEvaluator()

	first := e.Evaluate(chip, nets).Clone()
	for round := 0; round < 3; round++ {
		mp := e.Evaluate(chip, nets)
		for i := range first.Prob {
			if mp.Prob[i] != first.Prob[i] {
				t.Fatalf("round %d: cell %d drifted: %.17g vs %.17g",
					round, i, mp.Prob[i], first.Prob[i])
			}
		}
	}
	if s1, s2 := e.Score(chip, nets), e.Score(chip, nets); s1 != s2 {
		t.Fatalf("Score not stable across reuse: %.17g vs %.17g", s1, s2)
	}
}

// TestEvaluatorMatchesModelEvaluate pins the compatibility wrappers to
// the engine: Model.Evaluate/Score must be exactly the pooled-engine
// result.
func TestEvaluatorMatchesModelEvaluate(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)
	m := Model{Pitch: 4, TopFraction: 0.1}

	e := m.NewEvaluator()
	want := e.Evaluate(chip, nets).Clone()
	got := m.Evaluate(chip, nets)
	if got.Cols() != want.Cols() || got.Rows() != want.Rows() {
		t.Fatalf("grid mismatch: %dx%d vs %dx%d", got.Cols(), got.Rows(), want.Cols(), want.Rows())
	}
	for i := range want.Prob {
		if got.Prob[i] != want.Prob[i] {
			t.Fatalf("cell %d: wrapper %.17g, engine %.17g", i, got.Prob[i], want.Prob[i])
		}
	}
	if ws, ms := e.Score(chip, nets), m.Score(chip, nets); ws != ms {
		t.Fatalf("Score: wrapper %.17g, engine %.17g", ms, ws)
	}
}

// TestEvaluatorSteadyStateAllocs verifies the arena actually works: a
// warmed engine must not allocate per Score call.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	chip := engineChip()
	t.Run("seq", func(t *testing.T) {
		nets := engineNets(200)
		e := Model{Pitch: 4}.NewEvaluator()
		for i := 0; i < 3; i++ { // warm arenas and memos
			e.Score(chip, nets)
		}
		avg := testing.AllocsPerRun(10, func() { e.Score(chip, nets) })
		if avg > 0.5 {
			t.Fatalf("steady-state Score allocates %.1f times per call, want 0", avg)
		}
	})
}

// countingCtx is a live context that counts how often it is checked.
type countingCtx struct {
	context.Context
	checks int
}

func (c *countingCtx) Err() error {
	c.checks++
	return c.Context.Err()
}

// TestEvaluatorHonorsContext pins the Model.Ctx contract: a canceled
// context stops Evaluate before it folds a single net, a live one is
// checked once every ctxStride nets without changing a bit of the map,
// and checking it costs a warmed Score no allocation.
func TestEvaluatorHonorsContext(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)
	want := Model{Pitch: 4}.NewEvaluator().Evaluate(chip, nets).Clone()
	if want.Max() == 0 {
		t.Fatal("fixture evaluates to an all-zero map")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	got := Model{Pitch: 4, Ctx: canceled}.NewEvaluator().Evaluate(chip, nets)
	if len(got.Prob) != len(want.Prob) {
		t.Fatalf("canceled ctx: %d cells, want %d", len(got.Prob), len(want.Prob))
	}
	for i, v := range got.Prob {
		if v != 0 {
			t.Fatalf("canceled ctx: cell %d = %g, want 0 (no net folded)", i, v)
		}
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	ctx := &countingCtx{Context: live}
	e := Model{Pitch: 4, Ctx: ctx}.NewEvaluator()
	got = e.Evaluate(chip, nets)
	for i, v := range want.Prob {
		if got.Prob[i] != v {
			t.Fatalf("live ctx: cell %d = %.17g, want %.17g", i, got.Prob[i], v)
		}
	}
	if checks := (len(nets) + ctxStride - 1) / ctxStride; ctx.checks != checks {
		t.Errorf("live ctx checked %d times over %d nets, want %d", ctx.checks, len(nets), checks)
	}

	for i := 0; i < 3; i++ {
		e.Score(chip, nets)
	}
	if avg := testing.AllocsPerRun(10, func() { e.Score(chip, nets) }); avg > 0 {
		t.Fatalf("Score with a live ctx allocates %.1f times per call, want 0", avg)
	}
}

// TestPooledEvaluatorReconfigures ensures the wrapper pool does not
// serve memo entries cached under a different model configuration.
func TestPooledEvaluatorReconfigures(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)

	approx := Model{Pitch: 4}
	exact := Model{Pitch: 4, Exact: true}
	wantExact := exact.NewEvaluator().Evaluate(chip, nets).Clone()

	// Interleave configurations through the shared pool; the exact
	// model must keep producing exact results.
	for i := 0; i < 3; i++ {
		approx.Evaluate(chip, nets)
		got := exact.Evaluate(chip, nets)
		for j := range wantExact.Prob {
			if got.Prob[j] != wantExact.Prob[j] {
				t.Fatalf("iteration %d: pooled exact result drifted at cell %d", i, j)
			}
		}
	}
}
