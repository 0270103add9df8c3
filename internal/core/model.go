// Package core implements the paper's contribution: the Irregular-Grid
// probabilistic congestion model (§4).
//
// Instead of a uniform lattice, the chip is partitioned by cutting
// lines extended from the boundaries of every net's routing range
// (§4.2); lines closer than twice the base grid pitch are merged
// (Algorithm step 2). Because pins lie on cutting lines (pins are
// snapped to base-grid intersections by the intersection-to-
// intersection method), every net crosses whole IR-grids, and the
// probability that a net crosses an IR-grid reduces to the
// boundary-escape identity of Formula 3: a monotone route crosses an
// axis-aligned rectangle inside its routing range exactly once through
// the rectangle's top or right edge (type I; bottom/right for type II).
//
// The per-edge sums are either computed exactly (Formula 3, O(IR-grid
// perimeter)) or approximated in O(1) by the normal-distribution-like
// integrals of Theorem 1 evaluated with Simpson's rule; IR-grids
// covering a pin — including the cells adjacent to pins where the
// normal approximation degenerates (§4.5) — are assigned probability 1
// directly.
//
// The hot path is the reusable Evaluator (engine.go): it keeps every
// buffer the evaluation needs — cutting-line axes, the probability
// grid, per-net span scratch, the ln-factorial table and a memo of
// per-edge escape sums — alive across calls, so a steady-state
// simulated-annealing move evaluates with no heap allocation.
// Model.Evaluate and Model.Score remain as thin wrappers over a pooled
// Evaluator.
package core

import (
	"context"
	"math"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/nmath"
	"irgrid/internal/obs"
)

// Model configures the Irregular-Grid congestion estimator.
type Model struct {
	// Pitch is the base grid pitch in µm (the paper uses 30×30 µm² for
	// most circuits, 60×60 for apte). It defines the unit lattice the
	// path-counting formulas operate on and the line-merge threshold.
	Pitch float64
	// TopFraction is the fraction of the chip's most congested area
	// units averaged into the score (paper: 0.10). Zero means 0.10.
	TopFraction float64
	// Exact selects the exact Formula 3 sums instead of the Theorem 1
	// approximation. The default (false) is the paper's model.
	Exact bool
	// SimpsonN is the baseline number of Simpson subintervals per
	// Theorem 1 integral. Zero means 4. The evaluator raises the count
	// (up to a fixed cap, keeping each IR-grid O(1)) whenever the
	// band-clipped integration window would otherwise under-resolve
	// the integrand's normal peak; see simpsonPlan.
	SimpsonN int
	// NoMerge disables cutting-line merging (Algorithm step 2); used
	// by the line-merge ablation only.
	NoMerge bool
	// ExactSpanLimit is the edge span (in unit cells) below which the
	// approximate evaluator uses the exact recurrence sum instead of
	// the Theorem 1 Simpson integral: short exact sums are both cheaper
	// than quadrature and error-free, while long edges keep the O(1)
	// integral. Zero selects the default (32); negative forces the
	// Simpson path everywhere (used by accuracy tests and ablations).
	ExactSpanLimit int
	// PaperBounds integrates the Theorem 1 approximation over the
	// paper's literal bounds [x1, x2] instead of the half-cell
	// continuity-corrected [x1-½, x2+½] that matches the discrete sum.
	// Off by default; used by the integral-bounds ablation.
	PaperBounds bool
	// Obs, when non-nil, receives the evaluation engine's metrics:
	// stage timings (axis build, net accumulation, top-score
	// selection), Simpson-memo hit/miss counters and grid dimensions.
	// Telemetry observes values the evaluation already computed and
	// never alters them, so instrumented and uninstrumented evaluations
	// are bit-identical; with Obs nil the instrumentation costs a few
	// predictable branches and zero allocations
	// (TestDisabledTelemetryZeroAlloc, TestDisabledTelemetryNsBudget).
	Obs *obs.Registry
	// Spans, when non-nil, receives hierarchical stage timings from the
	// evaluation engine: an "evaluate" root with merge/sweep/fold
	// children (plus topscore under Score) on the full path, and a
	// "move" root with diff/fold-out/fold-in/rebuild/rollback children
	// on the delta path. Spans only time work the evaluation performed
	// anyway, so span-enabled evaluations stay bit-identical; nil costs
	// a few predictable branches and zero allocations.
	Spans *obs.Spans
	// Recorder, when non-nil, is the flight recorder the engine feeds
	// one timed eval event per evaluation into.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked cooperatively every 64 nets during
	// evaluation: once it is canceled, Evaluate stops folding nets and
	// returns early with a partial (meaningless) map. Callers that set
	// Ctx own detecting the cancellation (via Ctx.Err) and discarding
	// the result; the annealer does exactly that between a move's
	// evaluation and its acceptance decision. With Ctx nil the checks
	// cost one predictable branch per net.
	Ctx context.Context
}

// Name identifies the model in experiment tables.
func (m Model) Name() string {
	if m.Exact {
		return "ir-grid(exact)"
	}
	return "ir-grid"
}

// WithObserver returns a copy of the model reporting metrics into reg.
// The `any` return implements the optional estimator-telemetry hook of
// higher layers (fplan.Config.Obs) without core importing the pipeline
// packages.
func (m Model) WithObserver(reg *obs.Registry) any {
	m.Obs = reg
	return m
}

// WithSpans returns a copy of the model reporting stage timings into
// sp. Like WithObserver, the `any` return implements the optional
// estimator-span hook of higher layers (fplan.Config.Spans).
func (m Model) WithSpans(sp *obs.Spans) any {
	m.Spans = sp
	return m
}

// WithRecorder returns a copy of the model feeding eval events into
// rec. Like WithObserver, the `any` return implements the optional
// estimator-recorder hook of higher layers (fplan.Config.Recorder).
func (m Model) WithRecorder(rec *obs.Recorder) any {
	m.Recorder = rec
	return m
}

// WithContext returns a copy of the model whose evaluations check ctx
// every 64 nets. Like WithObserver, the `any` return implements the
// optional estimator-cancellation hook of higher layers
// (fplan.Runner.Run threads its context through it).
func (m Model) WithContext(ctx context.Context) any {
	m.Ctx = ctx
	return m
}

func (m Model) exactSpanLimit() int {
	switch {
	case m.ExactSpanLimit > 0:
		return m.ExactSpanLimit
	case m.ExactSpanLimit < 0:
		return 1 // only truly degenerate single-cell edges
	default:
		return 32
	}
}

func (m Model) simpsonN() int {
	if m.SimpsonN <= 0 {
		return 4
	}
	return m.SimpsonN
}

// Map is the evaluated Irregular-Grid: the cutting-line axes and the
// accumulated crossing-probability sum F(I) of every IR-grid.
type Map struct {
	Chip  geom.Rect
	XAxis geom.Axis
	YAxis geom.Axis
	// Prob[iy*Cols()+ix] is F(I) = Σ_i P_i(I) for IR-grid (ix, iy).
	Prob []float64
}

// Cols returns the number of IR-grid columns.
func (mp *Map) Cols() int { return mp.XAxis.Cells() }

// Rows returns the number of IR-grid rows.
func (mp *Map) Rows() int { return mp.YAxis.Cells() }

// GridCount returns the total number of IR-grids (Table 4's
// "# of IR-grid").
func (mp *Map) GridCount() int { return mp.Cols() * mp.Rows() }

// At returns F(I) for IR-grid (ix, iy).
func (mp *Map) At(ix, iy int) float64 { return mp.Prob[iy*mp.Cols()+ix] }

// Rect returns the rectangle of IR-grid (ix, iy).
func (mp *Map) Rect(ix, iy int) geom.Rect {
	return geom.Rect{X1: mp.XAxis[ix], Y1: mp.YAxis[iy], X2: mp.XAxis[ix+1], Y2: mp.YAxis[iy+1]}
}

// Density returns the congestion cost per area unit of IR-grid
// (ix, iy): F(I) divided by the IR-grid area (§4.3).
func (mp *Map) Density(ix, iy int) float64 {
	a := mp.Rect(ix, iy).Area()
	if a <= 0 {
		return 0
	}
	return mp.At(ix, iy) / a
}

// Clone returns a deep copy of the map that does not alias the
// receiver's buffers. Evaluator.Evaluate returns arena-backed maps
// that are only valid until the next call; Clone detaches them.
func (mp *Map) Clone() *Map {
	return &Map{
		Chip:  mp.Chip,
		XAxis: append(geom.Axis(nil), mp.XAxis...),
		YAxis: append(geom.Axis(nil), mp.YAxis...),
		Prob:  append([]float64(nil), mp.Prob...),
	}
}

// Evaluate partitions the chip into IR-grids from the nets' routing
// ranges and accumulates every net's crossing probabilities.
//
// It is a compatibility wrapper over a pooled Evaluator: the returned
// Map is caller-owned, but the evaluation scratch (axis buffers,
// ln-factorial table, edge-sum memo) is recycled across calls. Loops
// that evaluate many times should hold a NewEvaluator instead and skip
// the copy.
func (m Model) Evaluate(chip geom.Rect, nets []netlist.TwoPin) *Map {
	if m.Pitch <= 0 {
		panic("core: Pitch must be positive")
	}
	e := pooledEvaluator(m)
	mp := e.Evaluate(chip, nets).Clone()
	putPooledEvaluator(e)
	return mp
}

// Score returns the chip-level congestion cost: the average congestion
// of the top-10% most congested area units (Algorithm step 5). Like
// Evaluate, it runs on a pooled Evaluator; steady state performs no
// heap allocation.
func (m Model) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	if m.Pitch <= 0 {
		panic("core: Pitch must be positive")
	}
	e := pooledEvaluator(m)
	s := e.Score(chip, nets)
	putPooledEvaluator(e)
	return s
}

// Max returns the largest IR-grid density.
func (mp *Map) Max() float64 {
	var mx float64
	for iy := 0; iy < mp.Rows(); iy++ {
		for ix := 0; ix < mp.Cols(); ix++ {
			if d := mp.Density(ix, iy); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// evaluator folds nets into a grid. It carries the model
// configuration, the map being filled, the accumulation target, span
// scratch, the ln-factorial table and an optional memo of canonical
// per-edge escape sums.
type evaluator struct {
	m   Model
	mp  *Map
	lf  *nmath.LogFact
	out []int64 // fixed-point accumulation target (full grid)
	// vec, when non-nil, redirects the fold step: instead of
	// accumulating into out, the quantized per-cell contributions are
	// written frame-locally into vec[j*cols+i]. The delta engine uses
	// this to capture a net's contribution vector; the captured values
	// are bit-identical to what the full path would have accumulated.
	vec []int64

	// perCell forces the reference per-cell evaluation instead of the
	// row/column sweeps; used by tests to cross-validate the sweeps.
	perCell bool
	scratch []float64
	colLo   []int
	colHi   []int
	rowLo   []int
	rowHi   []int

	// memo caches the Theorem 1 Simpson edge integrals keyed by
	// (g1, g2, span, offset). MCNC-style netlists repeat routing-range
	// shapes heavily across nets and across SA moves, so a warm cache
	// skips the quadratures outright. Only the Simpson sums are cached:
	// they are canonical pure functions of the key (a hit is bit-equal
	// to a fresh computation, keeping results deterministic), whereas
	// the exact short-span sums ride the sweep's multiplicative carry
	// and cost fewer cycles to recompute than a map probe (profiled:
	// hashing a cell-level memo dominated the whole evaluation).
	memo map[edgeKey]float64

	// Telemetry tallies: plain (non-atomic) counts of memo hits/misses
	// and exact-recurrence lane sums, bumped unconditionally in the
	// sweeps (a register increment — cheaper than even a nil-receiver
	// method call in the lane loop) and flushed to the engine's
	// registry counters only when telemetry is enabled.
	nHit, nMiss, nExactLanes int64
}

// edgeKey identifies one boundary-escape edge sum: the unit-lattice
// dimensions, the edge span [lo, hi] and the fixed offset (the top row
// y2 for top edges, the right column x2 for right edges).
type edgeKey struct {
	g1, g2, lo, hi, off int32
	right               bool
}

// memoCap bounds the edge-sum memo; beyond it new shapes are
// computed without being stored (an SA run revisits a bounded shape
// population, so in practice the cap is never approached).
const memoCap = 1 << 16

// ensureLF lazily allocates and grows the ln-factorial table.
func (ev *evaluator) ensureLF(n int) {
	if ev.lf == nil {
		ev.lf = new(nmath.LogFact)
	}
	ev.lf.Ensure(n)
}

// netFrame is a net's routing range expressed on the unit lattice: the
// range snapped to the surviving cutting lines, its unit-grid
// dimensions g1×g2, covered IR-grid index ranges, and the type II flag.
type netFrame struct {
	cx1, cx2, cy1, cy2 int     // covered IR-grid index ranges
	x0, y0             float64 // snapped range origin (µm)
	g1, g2             int     // unit-grid dimensions
	typeII             bool
}

// addNet accumulates one 2-pin net into the target grid.
//
//irlint:hot
func (ev *evaluator) addNet(n netlist.TwoPin) {
	mp := ev.mp
	f, ok := ev.frame(n)
	if !ok {
		return
	}

	if f.g1 == 1 || f.g2 == 1 {
		// Point or line routing range: probability 1 everywhere it
		// covers.
		cols := mp.Cols()
		for iy := f.cy1; iy <= f.cy2; iy++ {
			for ix := f.cx1; ix <= f.cx2; ix++ {
				ev.out[iy*cols+ix] += probOne
			}
		}
		return
	}

	ev.ensureLF(f.g1 + f.g2)
	if ev.perCell {
		cols := mp.Cols()
		for iy := f.cy1; iy <= f.cy2; iy++ {
			for ix := f.cx1; ix <= f.cx2; ix++ {
				p := ev.irProb(f, ix, iy)
				if p > 1 {
					p = 1
				}
				ev.out[iy*cols+ix] += fixProb(p)
			}
		}
		return
	}
	ev.addNetSweep(f)
}

// addNetSweep computes every covered IR-grid's crossing probability
// with one recurrence sweep per IR row (top-edge escape sums) and one
// per IR column (right-edge escape sums), amortizing the log-space
// start term across all IR-grids in the lane. It produces the same
// values as irProb up to quadrature-noise ulps
// (TestSweepMatchesPerCell) at a fraction of the cost: ~4 flops per
// unit cell instead of two exp calls per IR-grid. Long edges take the
// memoized Theorem 1 Simpson integral instead of the recurrence; the
// sweep is self-contained per net, so a net's contribution does not
// depend on the nets evaluated before it.
//
//irlint:hot
func (ev *evaluator) addNetSweep(f netFrame) {
	mp := ev.mp
	g1, g2 := f.g1, f.g2
	cols := f.cx2 - f.cx1 + 1
	rows := f.cy2 - f.cy1 + 1
	ev.scratch = resizeFloats(ev.scratch, cols*rows)
	ev.colLo = resizeInts(ev.colLo, cols)
	ev.colHi = resizeInts(ev.colHi, cols)
	ev.rowLo = resizeInts(ev.rowLo, rows)
	ev.rowHi = resizeInts(ev.rowHi, rows)

	// Oriented unit spans per covered IR column and row. Columns share
	// the x orientation; type II rows are reflected so that the source
	// pin sits at oriented (0, 0).
	for i := 0; i < cols; i++ {
		ix := f.cx1 + i
		ev.colLo[i] = unitIndexLo(mp.XAxis[ix], f.x0, ev.m.Pitch, g1)
		ev.colHi[i] = unitIndexHi(mp.XAxis[ix+1], f.x0, ev.m.Pitch, g1)
	}
	for j := 0; j < rows; j++ {
		iy := f.cy1 + j
		y1 := unitIndexLo(mp.YAxis[iy], f.y0, ev.m.Pitch, g2)
		y2 := unitIndexHi(mp.YAxis[iy+1], f.y0, ev.m.Pitch, g2)
		if f.typeII {
			y1, y2 = g2-1-y2, g2-1-y1
		}
		ev.rowLo[j], ev.rowHi[j] = y1, y2
	}

	limit := ev.m.exactSpanLimit()
	// Matches the per-cell rule in approxProb: exact when the span's
	// last-minus-first index stays below the limit.
	useSimpson := func(span int) bool { return !ev.m.Exact && span-1 >= limit }

	// Top-edge sweeps: for each IR row, T(x) = Ta(x,y2)·Tb(x,y2+1)/total
	// walks x across the covered columns with the multiplicative
	// recurrence; each column accumulates its sub-sum. Adjacent columns
	// may share one boundary unit cell (unaligned cutting lines), which
	// the cursor rewinds over.
	logTotal := ev.lf.LogChoose(g1+g2-2, g2-1)
	for j := 0; j < rows; j++ {
		y2 := ev.rowHi[j]
		if y2+1 > g2-1 {
			continue // top row of the routing range: no upward escape
		}
		ratio := func(x int) float64 {
			return float64(x+y2+1) / float64(x+1) *
				float64(g1-1-x) / float64(g1+g2-3-x-y2)
		}
		cursor := -1 // unit x the running term t corresponds to
		var t float64
		for i := 0; i < cols; i++ {
			lo, hi := ev.colLo[i], ev.colHi[i]
			if hi < lo {
				continue
			}
			if useSimpson(hi - lo + 1) {
				if g2 != 2 {
					ev.scratch[j*cols+i] += ev.simpsonTop(g1, g2, lo, hi, y2)
					cursor = -1
					continue
				}
				// g2 == 2 degenerates the normal variance: fall
				// through to the exact sweep.
			}
			switch {
			case cursor < 0:
				t = math.Exp(ev.logTa(lo, y2) + ev.logTb(g1, g2, lo, y2+1) - logTotal)
			case cursor == lo:
				// t already holds T(lo) (shared boundary unit).
			case cursor == lo-1:
				t *= ratio(cursor) // advance into the contiguous column
			case cursor == lo+1:
				t /= ratio(lo) // rewind over the shared boundary unit
			default:
				t = math.Exp(ev.logTa(lo, y2) + ev.logTb(g1, g2, lo, y2+1) - logTotal)
			}
			cursor = lo
			sum := t
			for x := lo; x < hi; x++ {
				t *= ratio(x)
				sum += t
			}
			cursor = hi
			ev.nExactLanes++
			ev.scratch[j*cols+i] += sum
		}
	}

	// Right-edge sweeps: per IR column, T(y) = Ta(x2,y)·Tb(x2+1,y)/total.
	for i := 0; i < cols; i++ {
		x2 := ev.colHi[i]
		if x2+1 > g1-1 {
			continue // rightmost column: no rightward escape
		}
		ratio := func(y int) float64 {
			return float64(x2+y+1) / float64(y+1) *
				float64(g2-1-y) / float64(g1+g2-3-x2-y)
		}
		cursor := -1
		var t float64
		// Walk rows in oriented-y order: for type II the physical rows
		// descend in oriented y, so iterate them reversed.
		for jj := 0; jj < rows; jj++ {
			j := jj
			if f.typeII {
				j = rows - 1 - jj
			}
			lo, hi := ev.rowLo[j], ev.rowHi[j]
			if hi < lo {
				continue
			}
			if useSimpson(hi - lo + 1) {
				if g1 != 2 {
					ev.scratch[j*cols+i] += ev.simpsonRight(g1, g2, x2, lo, hi)
					cursor = -1
					continue
				}
			}
			switch {
			case cursor < 0:
				t = math.Exp(ev.logTa(x2, lo) + ev.logTb(g1, g2, x2+1, lo) - logTotal)
			case cursor == lo:
			case cursor == lo-1:
				t *= ratio(cursor)
			case cursor == lo+1:
				t /= ratio(lo)
			default:
				t = math.Exp(ev.logTa(x2, lo) + ev.logTb(g1, g2, x2+1, lo) - logTotal)
			}
			cursor = lo
			sum := t
			for y := lo; y < hi; y++ {
				t *= ratio(y)
				sum += t
			}
			cursor = hi
			ev.nExactLanes++
			ev.scratch[j*cols+i] += sum
		}
	}

	// Pin and §4.5 overrides, then quantize and fold into the target
	// grid (or the capture vector — see evaluator.vec). The single
	// quantization here is the only rounding between a net's float
	// probability and the integer accumulator, so recomputing a net
	// always reproduces the same fixed-point contribution. The
	// vec/out split is hoisted out of the cell loop.
	exact := ev.m.Exact
	mpCols := mp.Cols()
	for j := 0; j < rows; j++ {
		y1, y2 := ev.rowLo[j], ev.rowHi[j]
		pinRow := y1 <= 0 || y2 >= g2-1 || (!exact && y2 >= g2-2)
		row := ev.scratch[j*cols : (j+1)*cols]
		if pinRow {
			// Only rows that can cover a pin (or a §4.5 neighbour)
			// need the cell-level override checks.
			for i := 0; i < cols; i++ {
				x1, x2 := ev.colLo[i], ev.colHi[i]
				p := row[i]
				if coversCell(x1, x2, y1, y2, 0, 0) || coversCell(x1, x2, y1, y2, g1-1, g2-1) {
					p = 1
				} else if !exact &&
					(coversCell(x1, x2, y1, y2, g1-2, g2-1) ||
						coversCell(x1, x2, y1, y2, g1-1, g2-2)) {
					p = 1
				} else if p > 1 {
					p = 1
				}
				row[i] = p
			}
		} else {
			for i, p := range row {
				if p > 1 {
					row[i] = 1
				}
			}
		}
		if ev.vec != nil {
			dst := ev.vec[j*cols : (j+1)*cols]
			for i, p := range row {
				dst[i] = fixProb(p)
			}
		} else {
			dst := ev.out[(f.cy1+j)*mpCols+f.cx1:]
			for i, p := range row {
				dst[i] += fixProb(p)
			}
		}
	}
}

// simpsonTop is simpsonTopDirect through the per-edge memo.
//
//irlint:hot
func (ev *evaluator) simpsonTop(g1, g2, lo, hi, y2 int) float64 {
	if ev.memo == nil {
		ev.nMiss++
		return ev.simpsonTopDirect(g1, g2, lo, hi, y2)
	}
	k := edgeKey{g1: int32(g1), g2: int32(g2), lo: int32(lo), hi: int32(hi), off: int32(y2)}
	if v, ok := ev.memo[k]; ok {
		ev.nHit++
		return v
	}
	ev.nMiss++
	v := ev.simpsonTopDirect(g1, g2, lo, hi, y2)
	if len(ev.memo) < memoCap {
		ev.memo[k] = v
	}
	return v
}

// simpsonRight is simpsonRightDirect through the per-edge memo.
//
//irlint:hot
func (ev *evaluator) simpsonRight(g1, g2, x2, lo, hi int) float64 {
	if ev.memo == nil {
		ev.nMiss++
		return ev.simpsonRightDirect(g1, g2, x2, lo, hi)
	}
	k := edgeKey{g1: int32(g1), g2: int32(g2), lo: int32(lo), hi: int32(hi), off: int32(x2), right: true}
	if v, ok := ev.memo[k]; ok {
		ev.nHit++
		return v
	}
	ev.nMiss++
	v := ev.simpsonRightDirect(g1, g2, x2, lo, hi)
	if len(ev.memo) < memoCap {
		ev.memo[k] = v
	}
	return v
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// frame maps the net's routing range onto the IR-grid and unit lattice.
//
//irlint:hot
func (ev *evaluator) frame(n netlist.TwoPin) (netFrame, bool) {
	mp := ev.mp
	r := n.Range()
	var f netFrame
	f.typeII = n.TypeII()
	f.cx1, f.cx2 = cellRange(mp.XAxis, r.X1, r.X2)
	f.cy1, f.cy2 = cellRange(mp.YAxis, r.Y1, r.Y2)
	if f.cx1 < 0 || f.cy1 < 0 {
		return f, false
	}
	// The modified routing range spans whole IR-grids (Algorithm
	// step 2 "modify the corresponding routing ranges").
	f.x0 = mp.XAxis[f.cx1]
	f.y0 = mp.YAxis[f.cy1]
	w := mp.XAxis[f.cx2+1] - f.x0
	h := mp.YAxis[f.cy2+1] - f.y0
	f.g1 = unitCells(w, ev.m.Pitch)
	f.g2 = unitCells(h, ev.m.Pitch)
	// Degenerate *original* ranges stay lines even when the snapped
	// range is wider: the net's routes never leave the original line.
	if r.W() < ev.m.Pitch/2 {
		f.g1 = 1
	}
	if r.H() < ev.m.Pitch/2 {
		f.g2 = 1
	}
	return f, true
}

// irProb returns P_i(I) for IR-grid (ix, iy) within frame f. It is the
// uncached reference computation the per-cell test path exercises.
func (ev *evaluator) irProb(f netFrame, ix, iy int) float64 {
	mp := ev.mp
	// Unit-cell span of the IR-grid inside the routing range.
	x1 := unitIndexLo(mp.XAxis[ix], f.x0, ev.m.Pitch, f.g1)
	x2 := unitIndexHi(mp.XAxis[ix+1], f.x0, ev.m.Pitch, f.g1)
	y1 := unitIndexLo(mp.YAxis[iy], f.y0, ev.m.Pitch, f.g2)
	y2 := unitIndexHi(mp.YAxis[iy+1], f.y0, ev.m.Pitch, f.g2)
	if x2 < x1 || y2 < y1 {
		return 0
	}
	// Orient type II nets by reflecting y so the source pin sits at
	// unit cell (0,0) and the sink at (g1-1, g2-1).
	if f.typeII {
		y1, y2 = f.g2-1-y2, f.g2-1-y1
	}

	// Algorithm step 3.1 and §4.5: IR-grids covering a pin — widened,
	// in approximate mode, by the pin-adjacent cells where the normal
	// approximation degenerates — have probability 1.
	if coversCell(x1, x2, y1, y2, 0, 0) || coversCell(x1, x2, y1, y2, f.g1-1, f.g2-1) {
		return 1
	}
	if !ev.m.Exact &&
		(coversCell(x1, x2, y1, y2, f.g1-2, f.g2-1) ||
			coversCell(x1, x2, y1, y2, f.g1-1, f.g2-2)) {
		return 1
	}

	if ev.m.Exact {
		return ev.exactProb(f.g1, f.g2, x1, x2, y1, y2)
	}
	return ev.approxProb(f.g1, f.g2, x1, x2, y1, y2)
}

// coversCell reports whether the unit-cell span contains cell (cx, cy).
func coversCell(x1, x2, y1, y2, cx, cy int) bool {
	return cx >= x1 && cx <= x2 && cy >= y1 && cy <= y2
}

// cellRange returns the index range of axis cells overlapping [lo, hi];
// a degenerate interval returns the single containing cell. It returns
// (-1, -1) for an empty axis.
func cellRange(a geom.Axis, lo, hi float64) (int, int) {
	if a.Cells() == 0 {
		return -1, -1
	}
	c1 := a.Locate(lo)
	c2 := a.Locate(hi)
	// When hi sits exactly on c2's lower cutting line, the range does
	// not extend into cell c2.
	if c2 > c1 && hi <= a[c2] {
		c2--
	}
	return c1, c2
}

// unitCells converts a snapped routing-range extent into a unit-grid
// dimension.
func unitCells(w, pitch float64) int {
	g := int(math.Round(w / pitch))
	if g < 1 {
		g = 1
	}
	return g
}

// unitIndexLo maps an IR-grid's lower boundary to the first covered
// unit cell.
func unitIndexLo(coord, origin, pitch float64, g int) int {
	i := int(math.Floor((coord-origin)/pitch + 1e-9))
	return clampInt(i, 0, g-1)
}

// unitIndexHi maps an IR-grid's upper boundary to the last covered
// unit cell.
func unitIndexHi(coord, origin, pitch float64, g int) int {
	i := int(math.Ceil((coord-origin)/pitch-1e-9)) - 1
	return clampInt(i, 0, g-1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
