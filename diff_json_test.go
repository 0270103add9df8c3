package irgrid

import (
	"math/rand"
	"os"
	"testing"

	"irgrid/internal/core"
	"irgrid/internal/oracle/diff"
)

// TestWriteDiffReportJSON regenerates DIFF_report.json, the measured
// oracle-vs-engine error envelope CI uploads as an artifact: randomized
// circuits under the default and forced-Simpson policies plus the five
// MCNC benchmark placements. It runs only when IRGRID_DIFF_JSON is set:
//
//	IRGRID_DIFF_JSON=1 go test -run TestWriteDiffReportJSON .
func TestWriteDiffReportJSON(t *testing.T) {
	if os.Getenv("IRGRID_DIFF_JSON") == "" {
		t.Skip("set IRGRID_DIFF_JSON=1 to regenerate DIFF_report.json")
	}
	var rp diff.Report
	rng := rand.New(rand.NewSource(20240206))
	const pitch = 30.0
	for i := 0; i < 300; i++ {
		chip := diff.RandomChip(rng, pitch)
		nets := diff.RandomNets(rng, chip, 1+rng.Intn(40), pitch)
		r, err := diff.Compare(chip, nets, diff.Opts{Model: core.Model{Pitch: pitch}})
		rp.Add(r, err)
		r, err = diff.Compare(chip, nets, diff.Opts{Model: core.Model{Pitch: pitch, ExactSpanLimit: -1}})
		rp.Add(r, err)
	}
	for _, name := range []string{"apte", "xerox", "hp", "ami33", "ami49"} {
		chip, nets, err := diff.BenchCase(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := diff.Compare(chip, nets, diff.Opts{Model: core.Model{Pitch: diff.BenchPitch(name)}})
		rp.AddBench(name, r, err)
	}
	if len(rp.Failures) > 0 {
		t.Errorf("differential failures recorded in report: %v", rp.Failures)
	}
	if err := rp.WriteFile("DIFF_report.json"); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote DIFF_report.json: %d circuits, %d cells, maxExactErr=%.3g maxApproxErrPerNet=%.3g",
		rp.Circuits, rp.Cells, rp.MaxExactErr, rp.MaxApproxErrPerNet)
}
