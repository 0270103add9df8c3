package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"irgrid/floorplan"
)

// expectedSeed1 holds the outcomes of -seed 1 at full scale: every
// library workload's seed pool and the service workload's first
// expectedJobs jobs. Ops beyond them are checked by the other checks
// only. Regenerate it with -update from the benchmark directory when
// results change on purpose.
//
//go:embed testdata/expected_seed1.json
var expectedSeed1 []byte

const (
	expectedPath = "testdata/expected_seed1.json"
	expectedJobs = 128
)

func loadExpected() (map[string][]outcome, error) {
	var m map[string][]outcome
	if err := json.Unmarshal(expectedSeed1, &m); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", expectedPath, err)
	}
	return m, nil
}

// serviceJob returns the circuit and SA seed of the service workload's
// i-th job: client i%2's (i/2)-th job.
func serviceJob(i int, seed int64) (string, int64) {
	k, c := i/serviceClients, i%serviceClients
	return serviceCircuits[(k+c)%2], opSeed(seed, i)
}

// updateExpected recomputes every seed-1 outcome by direct, checked
// floorplan.Run calls and rewrites expectedPath.
func updateExpected() error {
	out := map[string][]outcome{}
	run := func(workload string, in *floorplan.Circuit, opts floorplan.Options) error {
		res, err := floorplan.Run(in, opts)
		if err != nil {
			return fmt.Errorf("%s %s: %w", workload, in.Name, err)
		}
		if _, err := checkResult(in, opts, res); err != nil {
			return fmt.Errorf("%s %s: %w", workload, in.Name, err)
		}
		out[workload] = append(out[workload], outcomeOf(res, opts.Seed))
		return nil
	}
	for _, w := range workloads {
		if w.lib != nil {
			ins := w.lib.inputs(false)
			for pass := 0; pass < w.lib.pool; pass++ {
				for _, in := range ins {
					if err := run(w.name, in, w.lib.passOptions(1, pass, false)); err != nil {
						return err
					}
				}
			}
			continue
		}
		for i := 0; i < expectedJobs; i++ {
			name, seed := serviceJob(i, 1)
			if err := run(w.name, mcncInput(name), serviceOptions(seed, false)); err != nil {
				return err
			}
		}
	}
	// One outcome per line keeps the file short and its diffs readable.
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, w := range workloads {
		fmt.Fprintf(&buf, "\n %q: [", w.name)
		for j, o := range out[w.name] {
			line, err := json.Marshal(o)
			if err != nil {
				return err
			}
			sep := ","
			if j == len(out[w.name])-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "\n  %s%s", line, sep)
		}
		sep := ","
		if i == len(workloads)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "\n ]%s", sep)
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(expectedPath, buf.Bytes(), 0o644)
}
