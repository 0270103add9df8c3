package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"irgrid/floorplan"
)

// lastLine decodes the summary line a run prints last.
func lastLine(t *testing.T, out string) (s struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// smoke scale and checks the summary line carries exactly the declared
// metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0", "-trace", trace, "-scale", "smoke"}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, trace, code, out.String(), errOut.String())
			}
			s := lastLine(t, out.String())
			defs := defsFor(trace == "1")
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 || len(s.Metrics) != len(defs) {
				t.Fatalf("%s trace=%s: summary %+v", w.name, trace, s)
			}
			for _, d := range defs {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(os.Getenv("TMPDIR"), "irgrid-bench-state-*")); len(matches) != 0 {
		t.Errorf("service state directories left behind: %v", matches)
	}
}

// TestTracedRunMatchesPlain checks that floorplan.Run with spans and a
// metrics registry gives the plain run's floorplan bit for bit, and
// that the congestion spans are seen exactly when the cost scores
// congestion.
func TestTracedRunMatchesPlain(t *testing.T) {
	for _, name := range []string{"hp", "ami33"} {
		for _, opts := range []floorplan.Options{paperOptions(7, true), areaWireOptions(7, true)} {
			lr := &layerRun{}
			if err := lr.traceCircuit(mcncInput(name), opts); err != nil {
				t.Fatalf("%s gamma=%v: %v", name, opts.Gamma, err)
			}
			core := lr.score + lr.rollback
			if lr.moves == 0 || lr.traced <= 0 || core >= lr.traced || (core > 0) != (opts.Gamma != 0) {
				t.Errorf("%s gamma=%v: implausible layer times %+v", name, opts.Gamma, lr)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// workload and metric definitions in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_s", better: "lower", bound: 0.10}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{scale(parent, 0.8), "better"},
		{scale(parent, 1.2), "worse"},
		{scale(parent, 1.05), "worse within bound"},
		{[]float64{1.02, 0.99, 1.03, 0.98, 1.01, 1.00, 1.02, 0.99, 1.00, 1.01}, "within bound"},
		{[]float64{0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}, "unresolved"},
	} {
		if got, _, _ := verdict(parent, tc.change, lower); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
	higher := metricDef{name: "moves_per_s", better: "higher", bound: 0.10}
	if got, wins, pairs := verdict(parent, scale(parent, 1.3), higher); got != "better" || wins != pairs {
		t.Errorf("higher-is-better verdict = %s %d/%d", got, wins, pairs)
	}
}

func TestCompareRefusesMismatchedFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := r.appendJSON(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(scale string, schema int, v float64) record {
		return record{
			Workload: "mcnc-paper", Attempted: 1,
			Env:     environment{Schema: schema, Scale: scale},
			Metrics: map[string]measured{"op_s": {Value: v, Unit: "s", Samples: 1}},
		}
	}
	a := write("a.jsonl", rec("full", schemaVersion, 1), rec("full", schemaVersion, 1.1))
	b := write("b.jsonl", rec("full", schemaVersion, 0.5), rec("full", schemaVersion, 0.55))
	var out bytes.Buffer
	if err := compareFiles(a, b, &out); err != nil || !strings.Contains(out.String(), "better") {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if err := compareFiles(a, write("c.jsonl", rec("smoke", schemaVersion, 1)), &out); err == nil {
		t.Error("compared files of different scales")
	}
	if err := compareFiles(a, write("d.jsonl", rec("full", schemaVersion+1, 1)), &out); err == nil {
		t.Error("compared files of different schema versions")
	}
}
