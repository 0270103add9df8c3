package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/bench"
	"irgrid/internal/netlist"
	"irgrid/telemetry"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 15

// pitch is the IR-grid and pin pitch of every workload (the paper's
// 30 µm).
const pitch = 30

// paperMovesPerTemp is the moves per temperature of the paper-cost
// library workloads. Every workload anneals until floorplan's own stop
// rule (a temperature accepting under 2% of its moves) or its default
// cap of 200 temperatures, so each run cools from the hot start to a
// temperature that rejects every move, as a default run does. Under the
// congestion term ami49 costs some 17 ms a move, so a run at the default
// 100 moves per temperature would take about two minutes. With 20, a
// temperature ends the run by accepting none of its moves only a little
// earlier than 2 of 100 would: on the five MCNC circuits 55-68% of moves
// are accepted, against 53-63% in default runs of hp and ami33, and
// 8-29% of moves fall at temperatures accepting under a fifth of them,
// against 16-29%. With 10 moves per temperature runs stopped while still
// hot (67-88% accepted on all but ami49, 3-7% of moves at such
// temperatures).
const paperMovesPerTemp = 20

// serviceMovesPerTemp is the moves per temperature of service jobs:
// short jobs make per-job overhead show, and keep the traced run's 100
// jobs within a run's time limit.
const serviceMovesPerTemp = 10

// workload is one set of inputs the benchmark runs. A library workload
// calls floorplan.Run on each of its circuits in turn; the service
// workload drives an in-process floorpland. Why each exists is recorded
// in BENCHMARK.json and README.md.
type workload struct {
	name  string
	shape string   // the load, printed with every run
	lib   *library // nil for the service workload
}

type library struct {
	inputs func(smoke bool) []*floorplan.Circuit
	// pool is how many SA seeds the workload anneals from (see
	// pooledSeed); a run makes at least pool passes and one more op, so
	// it covers the pool and repeats its first op.
	pool    int
	options func(saSeed int64, smoke bool) floorplan.Options
}

// passOptions returns the run options of a library workload's pass.
func (l *library) passOptions(seed int64, pass int, smoke bool) floorplan.Options {
	return l.options(pooledSeed(seed, pass, l.pool), smoke)
}

var workloads = []*workload{
	{
		name:  "mcnc-paper",
		shape: "closed loop, 1 caller: floorplan.Run on apte, xerox, hp, ami33, ami49 in turn, paper cost, 20 moves per temperature to the stop rule",
		lib:   &library{inputs: mcncInputs, pool: 1, options: paperOptions},
	},
	{
		name:  "mcnc-area-wire",
		shape: "closed loop, 1 caller: floorplan.Run on the five MCNC circuits in turn, gamma 0, the default schedule (100 moves per temperature to the stop rule)",
		lib:   &library{inputs: mcncInputs, pool: 3, options: areaWireOptions},
	},
	{
		name:  "synth-large",
		shape: "closed loop, 1 caller: floorplan.Run on one 120-module, 1000-net generated circuit, paper cost, 20 moves per temperature to the stop rule",
		lib:   &library{inputs: synthInputs, pool: 1, options: paperOptions},
	},
	{
		name:  "service-closed",
		shape: "closed loop, 2 clients, 1 server worker: hp and ami33 jobs alternate, paper cost, 10 moves per temperature to the stop rule",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// smokeSchedule shrinks a run to 2 temperatures x 10 moves: the smoke
// scale and every warm-up op.
func smokeSchedule(o floorplan.Options) floorplan.Options {
	o.MaxTemps, o.MovesPerTemp = 2, 10
	return o
}

// paperOptions is the paper's cost function; everything else but the
// moves per temperature is a floorplan default.
func paperOptions(seed int64, smoke bool) floorplan.Options {
	o := floorplan.Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion:   floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: pitch},
		Seed:         seed,
		MovesPerTemp: paperMovesPerTemp,
	}
	if smoke {
		o = smokeSchedule(o)
	}
	return o
}

// serviceOptions is paperOptions with the service jobs' schedule.
func serviceOptions(seed int64, smoke bool) floorplan.Options {
	o := paperOptions(seed, smoke)
	if !smoke {
		o.MovesPerTemp = serviceMovesPerTemp
	}
	return o
}

// areaWireOptions is the area and wirelength cost without congestion,
// with every other option, the schedule included, a floorplan default.
func areaWireOptions(seed int64, smoke bool) floorplan.Options {
	o := floorplan.Options{Alpha: 0.5, Beta: 0.5, Seed: seed}
	if smoke {
		o = smokeSchedule(o)
	}
	return o
}

func mcncInput(name string) *floorplan.Circuit {
	c, err := floorplan.Benchmark(name)
	if err != nil {
		panic(err) // the names come from bench.Names or are literals
	}
	return c
}

func mcncInputs(smoke bool) []*floorplan.Circuit {
	names := bench.Names()
	if smoke {
		names = []string{"hp", "ami33"}
	}
	cs := make([]*floorplan.Circuit, len(names))
	for i, n := range names {
		cs[i] = mcncInput(n)
	}
	return cs
}

// synthSpec is synth-large's circuit: 2.4 times ami49's modules and
// nets on a 4 mm² die, so that one run cools fully in about ten
// seconds. It is fixed rather than generated from the seed, because
// circuits of one spec differ by some 20% in run time.
var synthSpec = bench.Spec{Name: "synth-large", Modules: 120, Nets: 1000, Pins: 2400, AreaMM2: 4, MaxDegree: 12, Seed: 9006}

func synthInputs(smoke bool) []*floorplan.Circuit {
	spec := synthSpec
	if smoke {
		spec = bench.Spec{Name: "synth-smoke", Modules: 16, Nets: 60, Pins: 150, AreaMM2: 2, MaxDegree: 8, Seed: 9006}
	}
	return []*floorplan.Circuit{publicCircuit(bench.Generate(spec))}
}

// publicCircuit converts a generated circuit to the form floorplan.Run
// takes.
func publicCircuit(ic *netlist.Circuit) *floorplan.Circuit {
	c := &floorplan.Circuit{Name: ic.Name}
	for _, m := range ic.Modules {
		c.Modules = append(c.Modules, floorplan.Module{
			Name: m.Name, W: m.W, H: m.H, Pad: m.Pad,
			MinAspect: m.MinAspect, MaxAspect: m.MaxAspect,
		})
	}
	for _, n := range ic.Nets {
		net := floorplan.Net{Name: n.Name}
		for _, p := range n.Pins {
			net.Pins = append(net.Pins, floorplan.Pin{Module: ic.Modules[p.Module].Name, FX: p.FX, FY: p.FY})
		}
		c.Nets = append(c.Nets, net)
	}
	return c
}

// outcome is the deterministic part of one floorplanning result: equal
// inputs, options and seeds give equal outcomes, bit for bit.
type outcome struct {
	Circuit    string  `json:"circuit"`
	Seed       int64   `json:"seed"`
	Cost       float64 `json:"cost"`
	Area       float64 `json:"area"`
	Wirelength float64 `json:"wirelength"`
	Congestion float64 `json:"congestion"`
	Temps      int     `json:"temps"`
	Moves      int     `json:"moves"`
	Accepted   int     `json:"accepted"`
	Modules    string  `json:"modules"` // FNV-64a over every placed rectangle
}

func outcomeOf(res *floorplan.Result, seed int64) outcome {
	return outcome{
		Circuit: res.Circuit, Seed: seed,
		Cost: res.Cost, Area: res.Area, Wirelength: res.Wirelength, Congestion: res.CongestionCost,
		Temps: res.Temperatures, Moves: res.Moves, Accepted: res.Accepted,
		Modules: placementHash(res.Modules),
	}
}

func placementHash(mods []floorplan.PlacedModule) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range mods {
		for _, v := range []float64{m.X1, m.Y1, m.X2, m.Y2} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if m.Rotated {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkPlacement verifies a finished floorplan: area is the chip's
// width times height, and every module keeps its size (rotated or
// not), sits inside the chip and overlaps no other module.
func checkPlacement(c *floorplan.Circuit, chipW, chipH, area float64, mods []floorplan.PlacedModule) error {
	if area != chipW*chipH {
		return fmt.Errorf("area %v != chip %v x %v", area, chipW, chipH)
	}
	if len(mods) != len(c.Modules) {
		return fmt.Errorf("%d placed modules, circuit has %d", len(mods), len(c.Modules))
	}
	tol := 1e-9 * math.Max(chipW, chipH)
	for i, m := range mods {
		cm := c.Modules[i]
		if m.Name != cm.Name {
			return fmt.Errorf("placed module %d is %q, want %q", i, m.Name, cm.Name)
		}
		if m.X1 < -tol || m.Y1 < -tol || m.X2 > chipW+tol || m.Y2 > chipH+tol {
			return fmt.Errorf("module %s [%v,%v]x[%v,%v] leaves the %v x %v chip", m.Name, m.X1, m.X2, m.Y1, m.Y2, chipW, chipH)
		}
		if cm.MinAspect < cm.MaxAspect {
			continue // soft modules may take any allowed shape
		}
		w, h := cm.W, cm.H
		if m.Rotated {
			w, h = h, w
		}
		if math.Abs(m.X2-m.X1-w) > tol || math.Abs(m.Y2-m.Y1-h) > tol {
			return fmt.Errorf("module %s placed %v x %v, want %v x %v", m.Name, m.X2-m.X1, m.Y2-m.Y1, w, h)
		}
	}
	for i := range mods {
		for j := i + 1; j < len(mods); j++ {
			a, b := mods[i], mods[j]
			ow := math.Min(a.X2, b.X2) - math.Max(a.X1, b.X1)
			oh := math.Min(a.Y2, b.Y2) - math.Max(a.Y1, b.Y1)
			if ow > tol && oh > tol {
				return fmt.Errorf("modules %s and %s overlap by %v x %v", a.Name, b.Name, ow, oh)
			}
		}
	}
	return nil
}

// checkResult verifies one floorplan.Run result and, when the run
// scored congestion, re-scores it with the full evaluator. It returns
// the IR-grid cell count of the final floorplan.
func checkResult(c *floorplan.Circuit, o floorplan.Options, res *floorplan.Result) (cells int, err error) {
	if err := checkPlacement(c, res.ChipW, res.ChipH, res.Area, res.Modules); err != nil {
		return 0, err
	}
	cm, err := res.CongestionMap(floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: pitch})
	if err != nil {
		return 0, err
	}
	if o.Gamma != 0 {
		if d := math.Abs(cm.Score - res.CongestionCost); d > 1e-9*math.Abs(cm.Score) {
			return 0, fmt.Errorf("congestion %v, full re-score %v", res.CongestionCost, cm.Score)
		}
	}
	return cm.Cells, nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  int
	trace    bool
	scale    string
	expected map[string][]outcome // nil unless seed 1 at full scale
}

func (rc *runConfig) smoke() bool { return rc.scale == "smoke" }

func (rc *runConfig) window() time.Duration { return time.Duration(rc.seconds) * time.Second }

// checkExpected compares o with the recorded outcome of the same
// circuit and seed, when the run has expectations and one was
// recorded.
func (rc *runConfig) checkExpected(workload string, o outcome) error {
	for _, e := range rc.expected[workload] {
		if e.Circuit == o.Circuit && e.Seed == o.Seed {
			if e != o {
				return fmt.Errorf("outcome %+v, expected %+v", o, e)
			}
			return nil
		}
	}
	return nil
}

// pooledSeed is the SA seed of a library workload's pass: SA seeds
// 1000 to 1000+size-1 in turn, starting at the benchmark seed mod size.
// One SA trajectory can cost up to twice another, and a run makes only
// a few passes, so drawing fresh seeds per run would make a run's
// numbers depend on the seeds it drew.
// A run covers its whole pool, weighs every seed equally, and the
// benchmark seed only rotates the order.
func pooledSeed(seed int64, pass, size int) int64 {
	n := int64(size)
	return 1000 + ((seed+int64(pass))%n+n)%n
}

// opSeed derives the SA seed of the service workload's i-th job from
// the benchmark seed; a run's thirty or so jobs average over trajectories,
// and different benchmark seeds never share one.
func opSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func newRecord(rc *runConfig, w *workload) *record {
	return &record{Workload: w.name, Shape: w.shape, Trace: rc.trace, Env: stamp(rc), Metrics: map[string]measured{}}
}

// setupLibrary runs a library workload's set-up setupReps times:
// building the inputs and one warm-up op, an hp run on the smoke
// schedule, which fills lazily built tables and pools. The warm-up op
// uses the pool's first seed whatever the benchmark seed, so every run
// sets up alike.
func setupLibrary(rc *runConfig, w *workload) (ins []*floorplan.Circuit, reps []span, err error) {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ins = w.lib.inputs(rc.smoke())
		if _, err := floorplan.Run(mcncInput("hp"), w.lib.passOptions(0, 0, true)); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, spanSince(t0))
	}
	return ins, reps, nil
}

// libraryOp is one measured floorplan.Run.
type libraryOp struct {
	span  span
	moves int     // search + calibration moves
	rss   float64 // peak resident set size during the op, MiB
}

// perCircuit aggregates a per-op value: per circuit, the median op of
// each SA seed, then the geometric mean over seeds, so that every seed
// weighs the same however often the window repeated it; then the
// geometric mean over circuits.
func perCircuit(ops []map[int64][]libraryOp, f func(libraryOp) float64) float64 {
	var circuits []float64
	for _, bySeed := range ops {
		var seeds []float64
		for _, seedOps := range bySeed {
			var vs []float64
			for _, op := range seedOps {
				vs = append(vs, f(op))
			}
			seeds = append(seeds, median(vs))
		}
		circuits = append(circuits, geomean(seeds))
	}
	return geomean(circuits)
}

// runLibrary runs a library workload: set-up, then passes of
// floorplan.Run over the workload's circuits, each pass with the next
// SA seed of the workload's pool, until the pool is covered, its first
// op repeated, and the window has elapsed. An op whose seed repeats
// must give the same floorplan as that seed's first op. Each op starts
// from a released heap, as in a fresh process, and its peak resident
// set size is measured on its own.
func runLibrary(rc *runConfig, w *workload) *record {
	rec := newRecord(rc, w)
	stopClock := func() *hostClock { return nil }
	if !rc.trace {
		stopClock = startHostClock()
	}
	ins, setups, err := setupLibrary(rc, w)
	if err != nil {
		stopClock()
		rec.Attempted++
		rec.fail("%v", err)
		return rec
	}
	if rc.trace {
		traceLibrary(rec, ins, w.lib.passOptions(rc.seed, 0, rc.smoke()))
		return rec
	}
	// ops[k][saSeed] are circuit k's ops with one SA seed.
	ops := make([]map[int64][]libraryOp, len(ins))
	for k := range ops {
		ops[k] = map[int64][]libraryOp{}
	}
	firsts := make([]map[int64]outcome, len(ins)) // each seed's first outcome
	for k := range firsts {
		firsts[k] = map[int64]outcome{}
	}
	start := time.Now()
	for i := 0; i <= len(ins)*w.lib.pool || time.Since(start) < rc.window(); i++ {
		k, pass := i%len(ins), i/len(ins)
		in, opts := ins[k], w.lib.passOptions(rc.seed, pass, rc.smoke())
		rec.Attempted++
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			rec.fail("resetting the peak RSS: %v", err)
			break
		}
		t0 := time.Now()
		res, err := floorplan.Run(in, opts)
		sp := spanSince(t0)
		rss, rssErr := peakRSSMiB()
		if err == nil {
			err = rssErr
		}
		if err == nil {
			_, err = checkResult(in, opts, res)
		}
		if err == nil {
			o := outcomeOf(res, opts.Seed)
			if first, ok := firsts[k][opts.Seed]; !ok {
				firsts[k][opts.Seed] = o
			} else if o != first {
				err = fmt.Errorf("repeated run differs: %+v, first %+v", o, first)
			}
			if err == nil {
				err = rc.checkExpected(w.name, o)
			}
		}
		if err != nil {
			rec.fail("%s seed %d: %v", in.Name, opts.Seed, err)
			continue
		}
		ops[k][opts.Seed] = append(ops[k][opts.Seed], libraryOp{span: sp, moves: res.Moves + res.CalibrationMoves, rss: rss})
	}
	clock := stopClock()

	// peak_rss_mib is the largest circuit's median op.
	n, peak := 0, 0.0
	for k, bySeed := range ops {
		if len(bySeed) < w.lib.pool {
			rec.fail("%s: %d of %d pool seeds measured", ins[k].Name, len(bySeed), w.lib.pool)
		}
		var rss []float64
		for _, seedOps := range bySeed {
			for _, op := range seedOps {
				rss = append(rss, op.rss)
			}
		}
		peak = math.Max(peak, median(rss))
		n += len(rss)
	}
	timings := func(seconds func(span) float64) map[string]float64 {
		return map[string]float64{
			"setup_s":     median(mapSpans(setups, seconds)),
			"op_s":        perCircuit(ops, func(op libraryOp) float64 { return seconds(op.span) }),
			"moves_per_s": perCircuit(ops, func(op libraryOp) float64 { return float64(op.moves) / seconds(op.span) }),
		}
	}
	t := timings(clock.seconds)
	rec.set("setup_s", t["setup_s"], len(setups))
	rec.set("op_s", t["op_s"], n)
	rec.set("moves_per_s", t["moves_per_s"], n)
	rec.set("peak_rss_mib", peak, n)
	rec.setRaw(timings(span.wall), clock)
	return rec
}

// corePaths are the span paths the IR-grid estimator records: the full
// evaluator's "evaluate" and the delta engine's "move", each with the
// stage it times outside its root span. Their children are nested
// inside them and are not summed again.
var corePaths = map[string]bool{"evaluate": true, "evaluate/topscore": true, "move": true, "move/rollback": true}

// layerRun accumulates the traced child's measurements over circuits.
type layerRun struct {
	runs                   int           // traced circuits
	moves, search, accepts int           // search + calibration moves; search moves and accepted ones
	temps                  int           // temperature steps
	cells                  int           // IR-grid cells of the final floorplans
	score, rollback        time.Duration // core spans: scoring, rolling back
	traced, plain          time.Duration // floorplan.Run wall time with and without tracing
	alloc                  uint64        // bytes the traced floorplan.Run allocated
	counters               map[string]float64
}

// traceCircuit runs one circuit through floorplan.Run twice, plain and
// with a span tracker and a metrics registry, each from a released
// heap, checks both results and that tracing left the floorplan
// unchanged bit for bit, and adds the traced run's span times and
// counters to lr.
func (lr *layerRun) traceCircuit(c *floorplan.Circuit, opts floorplan.Options) error {
	debug.FreeOSMemory()
	t0 := time.Now()
	plain, err := floorplan.Run(c, opts)
	plainWall := time.Since(t0)
	if err != nil {
		return err
	}
	if _, err := checkResult(c, opts, plain); err != nil {
		return err
	}
	o := opts
	o.Obs, o.Spans = telemetry.NewRegistry(), telemetry.NewSpans()
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	res, err := floorplan.Run(c, o)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	cells, err := checkResult(c, opts, res)
	if err != nil {
		return err
	}
	if a, b := outcomeOf(plain, opts.Seed), outcomeOf(res, opts.Seed); a != b {
		return fmt.Errorf("tracing changed the result: %+v, plain %+v", b, a)
	}
	var score, rollback time.Duration
	for _, a := range o.Spans.Aggregates() {
		switch {
		case a.Path == "move/rollback":
			rollback += time.Duration(a.TotalNs)
		case corePaths[a.Path]:
			score += time.Duration(a.TotalNs)
		}
	}
	fmt.Printf("traced %s: %d temps, %d moves, %.1f%% accepted; core spans cover %.1f%% of floorplan.Run\n",
		c.Name, res.Temperatures, res.Moves, 100*float64(res.Accepted)/float64(res.Moves),
		100*(score+rollback).Seconds()/wall.Seconds())
	lr.runs++
	lr.moves += res.Moves + res.CalibrationMoves
	lr.search += res.Moves
	lr.accepts += res.Accepted
	lr.temps += res.Temperatures
	lr.cells += cells
	lr.score += score
	lr.rollback += rollback
	lr.traced += wall
	lr.plain += plainWall
	lr.alloc += m1.TotalAlloc - m0.TotalAlloc
	if lr.counters == nil {
		lr.counters = map[string]float64{}
	}
	for name, v := range o.Obs.Snapshot() {
		if strings.HasSuffix(name, "_total") {
			lr.counters[name] += v
		}
	}
	return nil
}

// traceLibrary is the traced run of a library workload: one pass over
// its circuits with the first pass's seed.
func traceLibrary(rec *record, ins []*floorplan.Circuit, opts floorplan.Options) {
	lr := &layerRun{}
	for _, in := range ins {
		rec.Attempted++
		if err := lr.traceCircuit(in, opts); err != nil {
			rec.fail("%s: %v", in.Name, err)
		}
	}
	lr.report(rec)
	// Library workloads bypass the server and ckpt layers.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "server.") || strings.HasPrefix(d.name, "ckpt.") {
			rec.set(d.name, 0, 0)
		}
	}
}

// report sets the library-layer metrics, pooled over the traced
// circuits.
func (lr *layerRun) report(rec *record) {
	moves := float64(lr.moves)
	n := lr.moves
	perMove := func(name string, d time.Duration) { rec.set(name, float64(d.Nanoseconds())/moves, n) }
	unattributed := lr.traced - lr.score - lr.rollback
	perMove("core.score_ns_per_move", lr.score)
	perMove("core.rollback_ns_per_move", lr.rollback)
	perMove("fplan.unattributed_ns_per_move", unattributed)
	rec.set("core.share", (lr.score+lr.rollback).Seconds()/lr.traced.Seconds(), n)
	rec.set("fplan.unattributed_share", unattributed.Seconds()/lr.traced.Seconds(), n)
	rec.set("core.grid_cells", float64(lr.cells), lr.runs)
	rec.set("core.axis_cache_hit_ratio", ratio(lr.counters, "eval_axis_cache_hits_total", "eval_axis_cache_misses_total"), lr.runs)
	rec.set("core.sweep_memo_hit_ratio", ratio(lr.counters, "eval_vec_memo_hits_total", "eval_vec_sweeps_total"), lr.runs)
	rec.set("anneal.moves", moves, n)
	rec.set("anneal.temps", float64(lr.temps), lr.runs)
	rec.set("anneal.accept_ratio", float64(lr.accepts)/float64(lr.search), lr.search)
	rec.set("fplan.alloc_bytes_per_move", float64(lr.alloc)/moves, n)
	rec.set("fplan.trace_overhead", lr.traced.Seconds()/lr.plain.Seconds()-1, lr.runs)
}

// ratio returns hits/(hits+misses) from summed registry counters, or 0
// when the program does not export the counters or never looked
// anything up.
func ratio(counters map[string]float64, hits, misses string) float64 {
	h, m := counters[hits], counters[misses]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
