package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords reads a -json file: one run record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// verdict judges change runs b against parent runs a of one metric:
//   - "worse" or "better" when either side's spread exceeds the bound
//     but every run of one side beats every run of the other;
//   - "unresolved" when a spread exceeds the bound otherwise;
//   - "worse" when b's median is worse than a's by more than the bound;
//   - "better" when b wins at least nine tenths of the pairs and the
//     medians differ by more than a's interquartile distance;
//   - "worse within bound" when a wins by that same rule: a slowdown
//     the bound lets pass but the paired runs resolve;
//   - "within bound" otherwise.
//
// A per-layer metric (bound 0) gets "better"/"worse" by the pair rule
// and "same" otherwise.
func verdict(a, b []float64, def metricDef) (string, int, int) {
	sign := 1.0 // +1 when higher is better
	if def.better == "lower" {
		sign = -1
	}
	wins, losses, pairs := 0, 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	gain := pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(mb-ma) > q3-q1
	loss := pairs > 0 && float64(losses) >= 0.9*float64(pairs) && sign*(ma-mb) > q3-q1
	if def.bound == 0 {
		switch {
		case gain:
			return "better", wins, pairs
		case loss:
			return "worse", wins, pairs
		}
		return "same", wins, pairs
	}
	if spread(a) > def.bound || spread(b) > def.bound {
		switch {
		case sign*(worst(b, sign)-best(a, sign)) > 0:
			return "better", wins, pairs
		case sign*(worst(a, sign)-best(b, sign)) > 0:
			return "worse", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	if sign*(mb-ma) < -def.bound*math.Abs(ma) {
		return "worse", wins, pairs
	}
	switch {
	case gain:
		return "better", wins, pairs
	case loss:
		return "worse within bound", wins, pairs
	}
	return "within bound", wins, pairs
}

// worst and best return the worst and best value of xs under the
// metric's direction.
func worst(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs {
		if sign*x < sign*w {
			w = x
		}
	}
	return w
}

func best(xs []float64, sign float64) float64 {
	b := xs[0]
	for _, x := range xs {
		if sign*x > sign*b {
			b = x
		}
	}
	return b
}

// compareFiles prints one row per (workload, metric) present in both
// files: each side's median and quartiles, pair wins and the verdict.
// Runs pair up in file order. Files of different schema versions or
// scales are refused.
func compareFiles(pathA, pathB string, w io.Writer) error {
	ra, err := readRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return err
	}
	want := ra[0].Env
	for _, r := range append(append([]record(nil), ra...), rb...) {
		if r.Env.Schema != want.Schema {
			return fmt.Errorf("schema versions differ (%d vs %d): refusing to compare", want.Schema, r.Env.Schema)
		}
		if r.Env.Scale != want.Scale {
			return fmt.Errorf("scales differ (%s vs %s): refusing to compare", want.Scale, r.Env.Scale)
		}
	}
	values := func(rs []record, wl string, trace bool, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == trace {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-15s %-30s %12s %25s %12s %25s %8s %7s %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A-1", "wins", "verdict")
	rows := 0
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			for _, def := range defsFor(trace) {
				a, b := values(ra, wl.name, trace, def.name), values(rb, wl.name, trace, def.name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				rows++
				ma, mb := median(a), median(b)
				a1, a3 := quartiles(a)
				b1, b3 := quartiles(b)
				v, wins, pairs := verdict(a, b, def)
				change := "-" // a bypassed layer reads 0 on both sides
				if ma != 0 {
					change = fmt.Sprintf("%+.2f%%", 100*(mb/ma-1))
				}
				fmt.Fprintf(w, "%-15s %-30s %12.6g %25s %12.6g %25s %8s %3d/%-3d %s\n",
					wl.name, def.name, ma, fmt.Sprintf("[%.6g, %.6g]", a1, a3),
					mb, fmt.Sprintf("[%.6g, %.6g]", b1, b3), change, wins, pairs, v)
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("no (workload, metric) pair is present in both files")
	}
	return nil
}
