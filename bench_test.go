// Package irgrid's root benchmark harness regenerates every table and
// figure of the paper's evaluation (one Benchmark per artifact, sized
// by the Smoke protocol) and provides ablation benchmarks for the
// design decisions called out in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// For paper-scale numbers use cmd/experiments with -protocol full.
package irgrid

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"irgrid/internal/anneal"
	"irgrid/internal/baseline"
	"irgrid/internal/bench"
	"irgrid/internal/core"
	"irgrid/internal/exp"
	"irgrid/internal/fplan"
	"irgrid/internal/geom"
	"irgrid/internal/grid"
	"irgrid/internal/netlist"
	"irgrid/internal/nmath"
	"irgrid/internal/slicing"
	"irgrid/internal/wl"
)

// --- tables & figures -------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable1(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable2(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		t1, err := exp.RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
		t2, err := exp.RunTable2(p)
		if err != nil {
			b.Fatal(err)
		}
		if rows := exp.Table3(t1, t2); len(rows) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable4(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable5(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.RunFigure8(31, 21, 15, 10, 20)
		if len(pts) != 11 {
			b.Fatal("bad figure 8")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	p := exp.Smoke()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFigure9(p, "ami33"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- shared fixture ---------------------------------------------------

// fixture is a finished ami33 floorplan reused by the model
// micro-benchmarks, so they all score the same realistic net set.
var fixture struct {
	once sync.Once
	sol  *fplan.Solution
}

func ami33Solution(tb testing.TB) *fplan.Solution {
	tb.Helper()
	fixture.once.Do(func() {
		c := bench.MustLoad("ami33")
		r, err := fplan.New(c, fplan.Config{
			Weights: fplan.Weights{Alpha: 0.5, Beta: 0.5},
			Pitch:   30, AllowRotate: true,
			Anneal: anneal.Config{Seed: 7, MovesPerTemp: 30, MaxTemps: 20, CalibrationMoves: 10},
		})
		if err != nil {
			panic(err)
		}
		fixture.sol, _, _ = r.Run(nil, nil)
	})
	return fixture.sol
}

// --- model micro-benchmarks (Experiment 3's speed axis) ---------------

func BenchmarkIRGridScore(b *testing.B) {
	sol := ami33Solution(b)
	m := core.Model{Pitch: 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
			b.Fatal("zero score")
		}
	}
}

func BenchmarkIRGridScoreExact(b *testing.B) {
	sol := ami33Solution(b)
	m := core.Model{Pitch: 30, Exact: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
			b.Fatal("zero score")
		}
	}
}

// syntheticNets builds a fixed n-net instance on a 3000x2400 chip with
// a mix of long diagonal, short local and degenerate nets.
func syntheticNets(n int) (geom.Rect, []netlist.TwoPin) {
	chip := geom.Rect{X1: 0, Y1: 0, X2: 3000, Y2: 2400}
	rng := rand.New(rand.NewSource(20040216))
	nets := make([]netlist.TwoPin, n)
	for i := range nets {
		a := geom.Pt{X: rng.Float64() * chip.W(), Y: rng.Float64() * chip.H()}
		var b geom.Pt
		switch i % 7 {
		case 0:
			b = geom.Pt{X: a.X, Y: rng.Float64() * chip.H()}
		case 1, 2:
			b = geom.Pt{
				X: math.Min(chip.X2, a.X+rng.Float64()*200),
				Y: math.Max(chip.Y1, a.Y-rng.Float64()*200),
			}
		default:
			b = geom.Pt{X: rng.Float64() * chip.W(), Y: rng.Float64() * chip.H()}
		}
		nets[i] = netlist.TwoPin{A: a, B: b}
	}
	return chip, nets
}

// BenchmarkIRGridScore500 measures the steady-state evaluation engine
// on a 500-net instance.
func BenchmarkIRGridScore500(b *testing.B) {
	chip, nets := syntheticNets(500)
	e := core.Model{Pitch: 30}.NewEvaluator()
	e.Score(chip, nets) // warm the arenas and memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := e.Score(chip, nets); s <= 0 {
			b.Fatal("zero score")
		}
	}
}

func BenchmarkFixedGridScore100(b *testing.B) {
	benchFixedScore(b, 100)
}

func BenchmarkFixedGridScore50(b *testing.B) {
	benchFixedScore(b, 50)
}

func BenchmarkFixedGridScoreJudging10(b *testing.B) {
	benchFixedScore(b, exp.JudgingPitch)
}

func benchFixedScore(b *testing.B, pitch float64) {
	sol := ami33Solution(b)
	m := grid.Model{Pitch: pitch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
			b.Fatal("zero score")
		}
	}
}

// --- ablations (DESIGN.md §6) ------------------------------------------

// BenchmarkAblationApproxVsExact isolates the Theorem 1 O(1)
// approximation against the exact O(perimeter) Formula 3 sums on a
// large IR-rectangle.
func BenchmarkAblationApproxVsExact(b *testing.B) {
	const g1, g2 = 200, 150
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApproxCrossProb(g1, g2, 40, 160, 30, 120, 0)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExactCrossProb(g1, g2, 40, 160, 30, 120)
		}
	})
}

// BenchmarkAblationLineMerge quantifies Algorithm step 2: merging
// cutting lines closer than twice the base pitch shrinks the IR-grid
// and with it the evaluation work.
func BenchmarkAblationLineMerge(b *testing.B) {
	sol := ami33Solution(b)
	b.Run("merged", func(b *testing.B) {
		m := core.Model{Pitch: 30}
		for i := 0; i < b.N; i++ {
			m.Evaluate(sol.Placement.Chip, sol.Nets)
		}
	})
	b.Run("unmerged", func(b *testing.B) {
		m := core.Model{Pitch: 30, NoMerge: true}
		for i := 0; i < b.N; i++ {
			m.Evaluate(sol.Placement.Chip, sol.Nets)
		}
	})
}

// BenchmarkAblationIntegralBounds compares the paper's literal
// Theorem 1 integral bounds with the half-cell continuity-corrected
// bounds this implementation defaults to (same cost; the accuracy
// difference is asserted in the core tests).
func BenchmarkAblationIntegralBounds(b *testing.B) {
	sol := ami33Solution(b)
	b.Run("corrected", func(b *testing.B) {
		m := core.Model{Pitch: 30}
		for i := 0; i < b.N; i++ {
			m.Evaluate(sol.Placement.Chip, sol.Nets)
		}
	})
	b.Run("paper", func(b *testing.B) {
		m := core.Model{Pitch: 30, PaperBounds: true}
		for i := 0; i < b.N; i++ {
			m.Evaluate(sol.Placement.Chip, sol.Nets)
		}
	})
}

// BenchmarkAblationLogSpace compares exact integer path counting
// (which overflows beyond ~60x60 unit grids) against the log-space
// binomials the models use everywhere.
func BenchmarkAblationLogSpace(b *testing.B) {
	b.Run("logspace", func(b *testing.B) {
		var lf nmath.LogFact
		lf.Ensure(120)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for k := 0; k <= 60; k++ {
				sink += math.Exp(lf.LogChoose(60, k) - lf.LogChoose(120, 60))
			}
		}
		_ = sink
	})
	b.Run("bigint", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			for k := 0; k <= 60; k++ {
				v, ok := nmath.ChooseBig(60, k)
				if ok {
					sink += v
				}
			}
		}
		_ = sink
	})
}

// BenchmarkAblationEscapeVsCellSum contrasts Formula 3's boundary-
// escape identity (O(perimeter) terms) with the naive blocked-DP
// computation of the same crossing probability (O(area) cells), the
// approach the escape identity replaces.
func BenchmarkAblationEscapeVsCellSum(b *testing.B) {
	const g1, g2 = 60, 60
	b.Run("escape", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ExactCrossProb(g1, g2, 20, 40, 15, 45)
		}
	})
	b.Run("blockedDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blockedDPCrossProb(g1, g2, 20, 40, 15, 45)
		}
	})
}

// blockedDPCrossProb is the naive reference: count monotone paths
// avoiding the rectangle via dynamic programming.
func blockedDPCrossProb(g1, g2, x1, x2, y1, y2 int) float64 {
	count := func(blocked bool) float64 {
		dp := make([]float64, g1*g2)
		for j := 0; j < g2; j++ {
			for i := 0; i < g1; i++ {
				if blocked && i >= x1 && i <= x2 && j >= y1 && j <= y2 {
					continue
				}
				if i == 0 && j == 0 {
					dp[0] = 1
					continue
				}
				var v float64
				if i > 0 {
					v += dp[j*g1+i-1]
				}
				if j > 0 {
					v += dp[(j-1)*g1+i]
				}
				dp[j*g1+i] = v
			}
		}
		return dp[g1*g2-1]
	}
	total := count(false)
	if total == 0 {
		return 0
	}
	return 1 - count(true)/total
}

// BenchmarkAblationWirelength compares the cost-function wirelength
// models on the ami33 pin sets (the paper uses MST).
func BenchmarkAblationWirelength(b *testing.B) {
	c := bench.MustLoad("ami33")
	mkRunner := func(model wl.Model) *fplan.Runner {
		r, err := fplan.New(c, fplan.Config{
			Weights: fplan.Weights{Alpha: 0.5, Beta: 0.5},
			Pitch:   30, AllowRotate: true, Wire: model,
			Anneal: anneal.Config{Seed: 1, CalibrationMoves: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	e := slicing.Initial(len(c.Modules))
	for _, model := range []wl.Model{wl.ModelMST, wl.ModelHPWL, wl.ModelStar, wl.ModelClique} {
		b.Run(string(model), func(b *testing.B) {
			r := mkRunner(model)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := r.Evaluate(e); s.Wirelength <= 0 {
					b.Fatal("bad wirelength")
				}
			}
		})
	}
}

// BenchmarkGlobalRouter measures the ground-truth router on a finished
// ami33 floorplan (the validation experiment's inner loop).
func BenchmarkGlobalRouter(b *testing.B) {
	sol := ami33Solution(b)
	m := baseline.RouterBased{Pitch: 30, Capacity: 4, Iterations: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Route(sol.Placement.Chip, sol.Nets)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Overflow
	}
}

// BenchmarkBaselineEstimators measures the non-probabilistic
// congestion-model families from the paper's taxonomy.
func BenchmarkBaselineEstimators(b *testing.B) {
	sol := ami33Solution(b)
	b.Run("empirical", func(b *testing.B) {
		m := baseline.Empirical{Pitch: 30}
		for i := 0; i < b.N; i++ {
			if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
				b.Fatal("zero score")
			}
		}
	})
	b.Run("router-based", func(b *testing.B) {
		m := baseline.RouterBased{Pitch: 60, Capacity: 6, Iterations: 2}
		for i := 0; i < b.N; i++ {
			if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
				b.Fatal("zero score")
			}
		}
	})
}

// BenchmarkSoftPacking compares hard vs soft module packing cost.
func BenchmarkSoftPacking(b *testing.B) {
	c := bench.MustLoad("ami33")
	soft := make([]netlist.Module, len(c.Modules))
	copy(soft, c.Modules)
	for i := range soft {
		soft[i].MinAspect, soft[i].MaxAspect = 0.25, 4
	}
	e := slicing.Initial(len(c.Modules))
	b.Run("hard", func(b *testing.B) {
		p := slicing.NewPacker(c.Modules, true)
		for i := 0; i < b.N; i++ {
			if _, err := p.Pack(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("soft", func(b *testing.B) {
		p := slicing.NewPacker(soft, true)
		for i := 0; i < b.N; i++ {
			if _, err := p.Pack(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidation runs a miniature model-vs-router validation pass.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunValidation("ami33", 4, 55); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ----------------------------------------

func BenchmarkPackerAmi49(b *testing.B) {
	c := bench.MustLoad("ami49")
	p := slicing.NewPacker(c.Modules, true)
	e := slicing.Initial(len(c.Modules))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pack(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloorplanEvaluate(b *testing.B) {
	c := bench.MustLoad("ami33")
	r, err := fplan.New(c, fplan.Config{
		Weights:   fplan.Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
		Estimator: core.Model{Pitch: 30},
		Pitch:     30, AllowRotate: true,
		Anneal: anneal.Config{Seed: 1, CalibrationMoves: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	e := slicing.Initial(len(c.Modules))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Evaluate(e); s.Cost <= 0 {
			b.Fatal("bad cost")
		}
	}
}

func BenchmarkYALRoundTrip(b *testing.B) {
	c := bench.MustLoad("ami49")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := netlist.WriteYAL(&buf, c); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
