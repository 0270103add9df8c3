// Command irgrid-bench is the repository's benchmark: it runs the
// floorplanner end to end on four workloads, checks every result, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) by
// name with their units. The last line of a run is a one-line JSON
// summary.
//
// From the repository root, building from source:
//
//	bash benchmark/run.sh --workload mcnc-paper --seed 1 --seconds 15 --trace 0
//
// From this directory:
//
//	go run . -seed 1                        # every workload, each in its own child process
//	go run . -seed 1 -workload synth-large -trace 1
//	go run . -seed 1 -json runs.jsonl       # also append each run's record to runs.jsonl
//	go run . -compare parent.jsonl change.jsonl
//	go run . -update                        # rewrite testdata/expected_seed1.json
//
// See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit codes: 0 when every check passed, 1 when a check failed (the
// summary line is still printed), 2 on a usage or set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irgrid-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
		seed     = fs.Int64("seed", 1, "seed of the SA runs and of the generated inputs")
		seconds  = fs.Int("seconds", 15, "how long a run measures, in seconds (at least one pass is always made)")
		trace    = fs.Int("trace", 0, "1 runs floorplan.Run with spans and metrics on and reports the per-layer metrics")
		scale    = fs.String("scale", "full", "full, or smoke for a seconds-long check of every code path")
		jsonOut  = fs.String("json", "", "append each run's record, with sample counts and the environment, to this JSON-lines file")
		update   = fs.Bool("update", false, "recompute "+expectedPath+" (run from the benchmark directory)")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments: parent, then change")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.jsonl B.jsonl")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		return 0
	case *update:
		if err := updateExpected(); err != nil {
			fmt.Fprintln(stderr, "update:", err)
			return 2
		}
		return 0
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	case *scale != "full" && *scale != "smoke":
		fmt.Fprintln(stderr, "-scale must be full or smoke")
		return 2
	case *seconds < 0:
		fmt.Fprintln(stderr, "-seconds must be non-negative")
		return 2
	}
	// Every workload runs on one P: the repository targets a single CPU,
	// and on a shared two-vCPU machine a second P mostly adds noise
	// (garbage collection on a contended sibling CPU).
	runtime.GOMAXPROCS(1)
	rc := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale}
	if *workload == "" {
		return runAll(rc, *jsonOut, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	if rc.seed == 1 && !rc.smoke() {
		m, err := loadExpected()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		rc.expected = m
	}
	rec := runWorkload(rc, w)
	if *jsonOut != "" {
		if err := rec.appendJSON(*jsonOut); err != nil {
			fmt.Fprintln(stderr, "writing -json:", err)
			return 2
		}
	}
	rec.print(stdout)
	if !rec.correct() {
		return 1
	}
	return 0
}

func runWorkload(rc *runConfig, w *workload) *record {
	if w.lib != nil {
		return runLibrary(rc, w)
	}
	return runService(rc, w)
}

// runAll runs every workload in its own child process, so that each
// child's peak RSS is its own, and with -trace 1 a traced child after
// each untraced one. It ends with one summary line over all children,
// metrics named <workload>/<metric>.
func runAll(rc *runConfig, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	traces := []int{0}
	if rc.trace {
		traces = append(traces, 1)
	}
	type summary struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	all := summary{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, w := range workloads {
		for _, tr := range traces {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(rc.seed, 10),
				"-seconds", strconv.Itoa(rc.seconds), "-trace", strconv.Itoa(tr), "-scale", rc.scale,
			}
			if jsonOut != "" {
				args = append(args, "-json", jsonOut)
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var s summary
			if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
				fmt.Fprintf(stderr, "%s: no summary line (%v)\n", w.name, runErr)
				return 2
			}
			all.Correct = all.Correct && s.Correct && runErr == nil
			all.Attempted += s.Attempted
			all.Failed += s.Failed
			for name, v := range s.Metrics {
				all.Metrics[w.name+"/"+name] = v
			}
		}
	}
	line, _ := json.Marshal(all) // raw messages came from valid JSON
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}
