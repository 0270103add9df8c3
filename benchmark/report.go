package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"irgrid/internal/buildinfo"
)

// schemaVersion versions the run record written by -json and read by
// -compare. Bump it whenever a metric changes meaning.
const schemaVersion = 1

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics a user of the library or the service sees.
// Every workload reports all of them; the times are host-normalized
// (see speed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s", "s", "lower", 0.20},
	{"moves_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mib", "MiB", "lower", 0.24},
}

// perLayer are the traced metrics, named <layer>.<metric> after the
// repository's packages. They come from the real floorplan.Run with its
// span tracker and metrics registry on; layers the program does not
// span yet are timed together as fplan.unattributed. A workload that
// bypasses a layer reports 0 for its time and count metrics.
var perLayer = []metricDef{
	{name: "core.score_ns_per_move", unit: "ns", better: "lower"},
	{name: "core.rollback_ns_per_move", unit: "ns", better: "lower"},
	{name: "core.share", unit: "ratio", better: "lower"},
	{name: "core.grid_cells", unit: "count", better: "lower"},
	{name: "core.axis_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.sweep_memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "fplan.unattributed_ns_per_move", unit: "ns", better: "lower"},
	{name: "fplan.unattributed_share", unit: "ratio", better: "lower"},
	{name: "fplan.alloc_bytes_per_move", unit: "B", better: "lower"},
	{name: "fplan.trace_overhead", unit: "ratio", better: "lower"},
	{name: "anneal.moves", unit: "count", better: "higher"},
	{name: "anneal.temps", unit: "count", better: "higher"},
	{name: "anneal.accept_ratio", unit: "ratio", better: "higher"},
	{name: "server.queue_wait_s_p50", unit: "s", better: "lower"},
	{name: "server.run_phase_s_p50", unit: "s", better: "lower"},
	{name: "server.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.result_ms_p50", unit: "ms", better: "lower"},
	{name: "server.job_p90_s", unit: "s", better: "lower"},
	{name: "server.polls_per_job", unit: "count", better: "lower"},
	{name: "ckpt.state_bytes_per_job", unit: "B", better: "lower"},
	{name: "ckpt.files_per_job", unit: "count", better: "lower"},
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// environment stamps a run record.
type environment struct {
	Schema     int    `json:"schema"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Build      string `json:"build"`
}

func stamp(rc *runConfig) environment {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return environment{
		Schema:     schemaVersion,
		Seed:       rc.seed,
		Scale:      rc.scale,
		Seconds:    rc.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Build:      buildinfo.Version(),
	}
}

// record is the outcome of one workload run: its metrics, its op
// counts and the checks that failed.
type record struct {
	Workload  string              `json:"workload"`
	Shape     string              `json:"shape"`
	Trace     bool                `json:"trace"`
	Env       environment         `json:"env"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	// Raw holds the untraced run's timings as measured, before host
	// normalization, and the probe's median duration (probe_ms).
	Raw map[string]float64 `json:"raw,omitempty"`
}

const maxFailureNotes = 20

// fail records a failed op.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set stores a metric. A value that is not a finite number is left
// out, which makes the run incorrect.
func (r *record) set(name string, v float64, samples int) {
	for _, d := range defsFor(r.Trace) {
		if d.name != name {
			continue
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			r.Metrics[name] = measured{Value: v, Unit: d.unit, Samples: samples}
		}
		return
	}
	panic("benchmark: undeclared metric " + name)
}

// setRaw stores the raw timings and the host clock's median probe,
// leaving out values that are not finite numbers, as set does.
func (r *record) setRaw(timings map[string]float64, c *hostClock) {
	timings["probe_ms"] = 1e3 * c.median
	r.Raw = map[string]float64{}
	for name, v := range timings {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			r.Raw[name] = v
		}
	}
}

// correct reports whether every op succeeded and every declared metric
// of the run's kind was measured as a finite number.
func (r *record) correct() bool {
	if r.Failed > 0 || r.Attempted < 1 {
		return false
	}
	for _, d := range defsFor(r.Trace) {
		if _, ok := r.Metrics[d.name]; !ok {
			return false
		}
	}
	return true
}

// print writes the human-readable report and, last, the one-line JSON
// summary: correct, attempted, failed and every metric's value and
// unit.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s trace=%v seed=%d scale=%s seconds=%d gomaxprocs=%d nproc=%d %s commit=%s\n  load: %s\n",
		r.Workload, r.Trace, r.Env.Seed, r.Env.Scale, r.Env.Seconds,
		r.Env.GOMAXPROCS, r.Env.NProc, r.Env.GoVersion, r.Env.Commit, r.Shape)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	if len(r.Raw) > 0 {
		fmt.Fprint(w, "  raw wall clock, not host-normalized:")
		for _, name := range sortedKeys(r.Raw) {
			fmt.Fprintf(w, " %s=%.6g", name, r.Raw[name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		summary.Metrics[name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(summary) // only finite floats and strings
	fmt.Fprintf(w, "%s\n", line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendJSON appends the record as one JSON line to path.
func (r *record) appendJSON(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
