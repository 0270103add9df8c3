package core

import (
	"sync"
	"time"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/nmath"
	"irgrid/internal/obs"
)

// ctxStride is the number of nets Evaluate folds between two checks of
// Model.Ctx.
const ctxStride = 64

// Evaluator is a reusable Irregular-Grid evaluation engine. It owns
// every buffer an evaluation needs — the cutting-line coordinate
// buffers, the probability grid, the span scratch and per-edge memo
// cache, the ln-factorial table and the top-score selection scratch —
// so holding one across calls makes a steady-state evaluation
// allocation-free. Every net is folded straight into one fixed-point
// accumulator; integer sums are order-independent, so the result does
// not depend on the order the nets are visited in.
//
// An Evaluator is not safe for concurrent use; give each goroutine its
// own (or use the pooled Model.Evaluate/Model.Score wrappers, which
// are).
type Evaluator struct {
	m Model

	lf     nmath.LogFact // ln-factorial table, shared with ev
	xs, ys []float64     // cutting-line coordinate buffers
	mp     Map           // the arena-backed result map
	acc    []int64       // fixed-point accumulation grid
	prob   []float64     // backing for mp.Prob, converted from acc
	ev     evaluator     // per-net scratch + edge-sum memo
	cells  []topCell     // top-score selection scratch

	// instr is the engine's resolved telemetry, nil when Model.Obs is
	// nil; every instrumentation point is guarded by one nil check.
	instr *evalInstr
}

// evalInstr holds the engine's resolved registry instruments so the
// hot path never performs a registry lookup.
type evalInstr struct {
	calls      *obs.Counter
	nets       *obs.Counter
	axisNs     *obs.Counter
	accumNs    *obs.Counter
	topNs      *obs.Counter
	memoHit    *obs.Counter
	memoMiss   *obs.Counter
	exactLanes *obs.Counter
	cols       *obs.Gauge
	rows       *obs.Gauge
	evalNs     *obs.Histogram
}

func newEvalInstr(reg *obs.Registry) *evalInstr {
	return &evalInstr{
		calls:      reg.Counter("eval_calls_total"),
		nets:       reg.Counter("eval_nets_total"),
		axisNs:     reg.Counter("eval_axis_ns_total"),
		accumNs:    reg.Counter("eval_accumulate_ns_total"),
		topNs:      reg.Counter("eval_topscore_ns_total"),
		memoHit:    reg.Counter("eval_simpson_memo_hits_total"),
		memoMiss:   reg.Counter("eval_simpson_memo_misses_total"),
		exactLanes: reg.Counter("eval_exact_lanes_total"),
		cols:       reg.Gauge("eval_grid_cols"),
		rows:       reg.Gauge("eval_grid_rows"),
		evalNs:     reg.Histogram("eval_ns", obs.DurationBuckets),
	}
}

// NewEvaluator returns a reusable evaluation engine for the model.
func (m Model) NewEvaluator() *Evaluator {
	if m.Pitch <= 0 {
		panic("core: Pitch must be positive")
	}
	e := &Evaluator{m: m}
	e.ev = evaluator{m: m, lf: &e.lf, mp: &e.mp, memo: make(map[edgeKey]float64)}
	if m.Obs != nil {
		e.instr = newEvalInstr(m.Obs)
	}
	return e
}

// Model returns the engine's configuration.
func (e *Evaluator) Model() Model { return e.m }

// Evaluate partitions the chip into IR-grids from the nets' routing
// ranges and accumulates every net's crossing probabilities.
//
// The returned Map aliases the engine's arena: it is valid only until
// the next Evaluate or Score call. Use Map.Clone (or Model.Evaluate)
// for a caller-owned copy.
//
//irlint:hot
func (e *Evaluator) Evaluate(chip geom.Rect, nets []netlist.TwoPin) *Map {
	in := e.instr
	rec := e.m.Recorder
	var tStart time.Time
	if in != nil || rec != nil {
		//irlint:allow detsource(obs timing only)
		tStart = time.Now()
	}
	root := e.m.Spans.Start("evaluate")
	sp := root.Child("merge")
	e.buildAxes(chip, nets)
	sp.End()
	cells := e.mp.Cols() * e.mp.Rows()
	e.acc = resizeInt64s(e.acc, cells)
	e.prob = resizeFloats(e.prob, cells)
	e.mp.Prob = e.prob

	var tAccum time.Time
	if in != nil {
		//irlint:allow detsource(obs timing only)
		tAccum = time.Now()
		in.axisNs.Add(tAccum.Sub(tStart).Nanoseconds())
	}
	sp = root.Child("sweep")
	e.ev.out = e.acc
	ctx := e.m.Ctx
	for i := range nets {
		if i%ctxStride == 0 && ctx != nil && ctx.Err() != nil {
			break
		}
		e.ev.addNet(nets[i])
	}
	sp.End()
	sp = root.Child("fold")
	// Convert the exact fixed-point sums to the float64 map the
	// consumers read. probInv is a power of two, so each cell rounds
	// exactly once, in the int64→float64 conversion.
	for i, v := range e.acc {
		e.prob[i] = float64(v) * probInv
	}
	sp.End()
	root.End()
	if in != nil {
		//irlint:allow detsource(obs timing only)
		end := time.Now()
		in.accumNs.Add(end.Sub(tAccum).Nanoseconds())
		in.evalNs.Observe(float64(end.Sub(tStart).Nanoseconds()))
		in.calls.Inc()
		in.nets.Add(int64(len(nets)))
		in.cols.Set(float64(e.mp.Cols()))
		in.rows.Set(float64(e.mp.Rows()))
		in.memoHit.Add(e.ev.nHit)
		in.memoMiss.Add(e.ev.nMiss)
		in.exactLanes.Add(e.ev.nExactLanes)
		e.ev.nHit, e.ev.nMiss, e.ev.nExactLanes = 0, 0, 0
	}
	if rec != nil {
		//irlint:allow detsource(obs timing only)
		ns := time.Since(tStart).Nanoseconds()
		rec.Record(obs.RecorderEvent{Kind: obs.RecEval, Ns: ns})
	}
	return &e.mp
}

// Score evaluates the nets and returns the chip-level congestion cost
// (the average density of the most congested IR-grids covering the
// model's TopFraction of the chip area). Steady state it allocates
// nothing.
//
//irlint:hot
func (e *Evaluator) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	mp := e.Evaluate(chip, nets)
	frac := e.m.TopFraction
	if frac <= 0 {
		frac = 0.10
	}
	in := e.instr
	var t0 time.Time
	if in != nil {
		//irlint:allow detsource(obs timing only)
		t0 = time.Now()
	}
	// The "evaluate" root span ended inside Evaluate, so the top-score
	// stage attaches to the tree by explicit path.
	sp := e.m.Spans.StartAt("evaluate/topscore")
	s, cells := mp.topScore(e.cells, frac)
	sp.End()
	e.cells = cells
	if in != nil {
		//irlint:allow detsource(obs timing only)
		in.topNs.Add(time.Since(t0).Nanoseconds())
	}
	return s
}

// buildAxes assembles the cutting-line axes (Algorithm steps 1–2)
// into the engine's reused coordinate buffers.
//
//irlint:hot
func (e *Evaluator) buildAxes(chip geom.Rect, nets []netlist.TwoPin) {
	eps := e.m.Pitch * 1e-9
	xs, ys := e.xs[:0], e.ys[:0]
	xs = append(xs, chip.X1, chip.X2)
	ys = append(ys, chip.Y1, chip.Y2)
	for _, n := range nets {
		r := n.Range()
		xs = append(xs, r.X1, r.X2)
		ys = append(ys, r.Y1, r.Y2)
	}
	e.xs, e.ys = xs, ys // retain grown capacity
	xAxis := geom.NewAxisInPlace(xs, eps)
	yAxis := geom.NewAxisInPlace(ys, eps)
	if !e.m.NoMerge {
		xAxis = xAxis.MergeInPlace(2 * e.m.Pitch)
		yAxis = yAxis.MergeInPlace(2 * e.m.Pitch)
	}
	e.mp = Map{Chip: chip, XAxis: xAxis, YAxis: yAxis}
}

// reconfigure repoints a pooled engine at a new model configuration.
// The edge-sum memo caches values that depend on the configuration, so
// it is flushed; the ln-factorial table is configuration-free and
// survives.
func (e *Evaluator) reconfigure(m Model) {
	e.m = m
	e.ev.m = m
	clear(e.ev.memo)
	if m.Obs != nil {
		e.instr = newEvalInstr(m.Obs)
	} else {
		e.instr = nil
	}
}

// evalPool recycles engines across the Model.Evaluate / Model.Score
// compatibility wrappers, so even callers that never hold an Evaluator
// reuse the ln-factorial table, the axis and grid arenas and — when
// the model configuration matches — the warm edge-sum memo.
var evalPool sync.Pool

func pooledEvaluator(m Model) *Evaluator {
	e, _ := evalPool.Get().(*Evaluator)
	if e == nil {
		return m.NewEvaluator()
	}
	if e.m != m {
		e.reconfigure(m)
	}
	return e
}

func putPooledEvaluator(e *Evaluator) { evalPool.Put(e) }
