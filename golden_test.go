package irgrid

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"irgrid/floorplan"
	"irgrid/internal/core"
	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/oracle/diff"
)

// The golden regression suite snapshots a fixed-seed floorplanning run
// per MCNC benchmark — chip metrics AND the full per-IR-grid
// congestion map — into testdata/golden/*.json. Any change to the
// search, the packer, pin placement, MST decomposition, the cutting
// lines or the probability engine shows up as a golden diff.
//
// Regenerate after an intentional behaviour change with:
//
//	go test -run TestGoldenMCNC -update .
//
// and review the JSON diff like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files with current results")

// goldenTol is the relative tolerance for float comparisons: golden
// runs are bit-deterministic on one machine, but compilers may fuse
// multiply-adds differently across architectures.
const goldenTol = 1e-9

type goldenMap struct {
	XLines  []float64   `json:"x_lines"`
	YLines  []float64   `json:"y_lines"`
	Density [][]float64 `json:"density"`
	Score   float64     `json:"score"`
}

type goldenResult struct {
	Circuit        string    `json:"circuit"`
	Seed           int64     `json:"seed"`
	Pitch          float64   `json:"pitch"`
	ChipW          float64   `json:"chip_w"`
	ChipH          float64   `json:"chip_h"`
	Area           float64   `json:"area"`
	Wirelength     float64   `json:"wirelength"`
	CongestionCost float64   `json:"congestion_cost"`
	Cost           float64   `json:"cost"`
	Map            goldenMap `json:"map"`
}

// goldenOptions is the fixed small-but-real schedule every golden run
// uses; changing it invalidates every golden file.
func goldenOptions(pitch float64) floorplan.Options {
	return floorplan.Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion:   floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: pitch},
		Seed:         1,
		MovesPerTemp: 30,
		MaxTemps:     40,
	}
}

func runGolden(t *testing.T, name string) (*goldenResult, []netlist.TwoPin) {
	t.Helper()
	c, err := floorplan.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	pitch := diff.BenchPitch(name)
	res, err := floorplan.Run(c, goldenOptions(pitch))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := res.CongestionMap(floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: pitch})
	if err != nil {
		t.Fatal(err)
	}
	raw := res.TwoPinNets()
	nets := make([]netlist.TwoPin, len(raw))
	for i, q := range raw {
		nets[i] = netlist.TwoPin{
			A: geom.Pt{X: q[0], Y: q[1]},
			B: geom.Pt{X: q[2], Y: q[3]},
		}
	}
	return &goldenResult{
		Circuit:        name,
		Seed:           1,
		Pitch:          pitch,
		ChipW:          res.ChipW,
		ChipH:          res.ChipH,
		Area:           res.Area,
		Wirelength:     res.Wirelength,
		CongestionCost: res.CongestionCost,
		Cost:           res.Cost,
		Map: goldenMap{
			XLines:  cm.XLines,
			YLines:  cm.YLines,
			Density: cm.Density,
			Score:   cm.Score,
		},
	}, nets
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= goldenTol*math.Max(math.Abs(a), math.Abs(b))
}

func compareGolden(t *testing.T, want, got *goldenResult) {
	t.Helper()
	scalar := func(field string, w, g float64) {
		if !approxEq(w, g) {
			t.Errorf("%s: golden %.12g, got %.12g", field, w, g)
		}
	}
	scalar("chip_w", want.ChipW, got.ChipW)
	scalar("chip_h", want.ChipH, got.ChipH)
	scalar("area", want.Area, got.Area)
	scalar("wirelength", want.Wirelength, got.Wirelength)
	scalar("congestion_cost", want.CongestionCost, got.CongestionCost)
	scalar("cost", want.Cost, got.Cost)
	scalar("map.score", want.Map.Score, got.Map.Score)

	lines := func(field string, w, g []float64) {
		if len(w) != len(g) {
			t.Errorf("%s: golden has %d lines, got %d", field, len(w), len(g))
			return
		}
		for i := range w {
			if !approxEq(w[i], g[i]) {
				t.Errorf("%s[%d]: golden %.12g, got %.12g", field, i, w[i], g[i])
				return
			}
		}
	}
	lines("map.x_lines", want.Map.XLines, got.Map.XLines)
	lines("map.y_lines", want.Map.YLines, got.Map.YLines)

	if len(want.Map.Density) != len(got.Map.Density) {
		t.Errorf("map.density: golden has %d rows, got %d", len(want.Map.Density), len(got.Map.Density))
		return
	}
	for iy := range want.Map.Density {
		if len(want.Map.Density[iy]) != len(got.Map.Density[iy]) {
			t.Errorf("map.density[%d]: golden has %d cols, got %d",
				iy, len(want.Map.Density[iy]), len(got.Map.Density[iy]))
			return
		}
		for ix := range want.Map.Density[iy] {
			if !approxEq(want.Map.Density[iy][ix], got.Map.Density[iy][ix]) {
				t.Errorf("map.density[%d][%d]: golden %.12g, got %.12g",
					iy, ix, want.Map.Density[iy][ix], got.Map.Density[iy][ix])
				return
			}
		}
	}
}

// TestGoldenMCNC floorplans every MCNC benchmark with a fixed seed and
// schedule and compares metrics and the full congestion map against
// the checked-in goldens. On top of the snapshot comparison, the
// annealed placement's two-pin nets are pushed through the
// oracle-vs-engine differential harness, so the goldens are verified
// against ground truth, not just against yesterday's output.
func TestGoldenMCNC(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite runs full annealing schedules; skipped with -short")
	}
	for _, name := range floorplan.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			got, nets := runGolden(t, name)
			path := filepath.Join("testdata", "golden", name+".json")

			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			var want goldenResult
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt golden %s: %v", path, err)
			}
			compareGolden(t, &want, got)

			// Differential verification of the golden placement.
			chip := geom.Rect{X1: 0, Y1: 0, X2: got.ChipW, Y2: got.ChipH}
			r, err := diff.Compare(chip, nets, diff.Opts{Model: core.Model{Pitch: got.Pitch}})
			if err != nil {
				t.Errorf("oracle differential on golden placement: %v", err)
			} else if r.MaxExactErr > 1e-9 {
				t.Errorf("golden placement max exact-cell error %.3g > 1e-9", r.MaxExactErr)
			}
		})
	}
}

// TestGoldenFilesPresent keeps the suite honest: the five golden files
// must exist in the repo even when the comparison itself is skipped by
// -short.
func TestGoldenFilesPresent(t *testing.T) {
	for _, name := range floorplan.BenchmarkNames() {
		path := filepath.Join("testdata", "golden", name+".json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("golden file missing: %v (regenerate with %s)", err,
				fmt.Sprintf("go test -run TestGoldenMCNC -update ."))
		}
	}
}
