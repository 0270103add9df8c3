// Package oracle provides slow, obviously-correct reference
// implementations of the Irregular-Grid congestion model, forming a
// verification hierarchy beneath the production engine
// (internal/core):
//
//  1. Exhaustive monotone (staircase) route enumeration (routes.go):
//     every shortest Manhattan route on a small unit lattice is walked
//     cell by cell, so crossing probabilities are literal counts. This
//     is the ground floor — there is nothing to get wrong beyond the
//     definition of a monotone route.
//  2. Exact big-rational path counting (rational.go): binomial route
//     counts built by Pascal's rule in big.Int, combined either through
//     the paper's boundary-escape identity (Formula 3) or through an
//     independent avoidance DP. No floating point, no Simpson
//     quadrature, any lattice size. Validated against level 1 on small
//     lattices; validates Formula 3 itself at full precision.
//  3. A naive re-implementation of the full Model.Evaluate pipeline
//     (this file): cutting-line construction, the line-merge rule,
//     per-net per-IR-grid probabilities term by term, and the
//     area-weighted top-fraction score — single-threaded, allocating
//     freely, sharing no code with the engine's sweeps, memo caches or
//     quickselect. Validated against level 2 cell by cell (Config.Rat).
//
// The differential harness (package oracle/diff) drives level 3
// against core.Evaluator over randomized circuits and the MCNC
// benchmark suite, for both sequential and parallel evaluation.
package oracle

import (
	"math"
	"math/big"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
)

// Documented error budgets for comparisons against the engine. They
// are exported so the differential harness, the fuzz targets and the
// golden suite all agree on one pair of numbers (see DESIGN.md,
// "Verification").
const (
	// ExactEps bounds |P_oracle − P_engine| for cells the engine
	// evaluates with exact log-binomial sums: pure float round-off
	// between two different exact summation orders.
	ExactEps = 1e-9
	// SimpsonEps bounds the per-net-contribution error of the Theorem 1
	// Simpson approximation against the exact escape sums. The measured
	// worst case over the randomized corpus is far smaller (see the
	// regression pins in internal/oracle/diff); this is the documented
	// engine-wide guarantee matching core's own approximation tests.
	SimpsonEps = 0.11
)

// Config mirrors the semantic knobs of core.Model. It deliberately has
// no performance knobs (memo caps, Simpson subintervals): the
// oracle always evaluates the escape sums exactly.
type Config struct {
	// Pitch is the base grid pitch in µm (unit lattice and line-merge
	// threshold). Must be positive.
	Pitch float64
	// TopFraction is the most-congested chip-area fraction averaged
	// into Score. Zero means 0.10.
	TopFraction float64
	// Exact mirrors core.Model.Exact: when false (the paper's default
	// model) the §4.5 pin-adjacent cells are overridden to probability
	// 1 exactly as the approximate engine does.
	Exact bool
	// NoMerge disables the cutting-line merge rule (Algorithm step 2).
	NoMerge bool
	// ExactSpanLimit mirrors core.Model.ExactSpanLimit. The oracle
	// itself always sums exactly; the limit is only used to flag the
	// cells where the engine under the same configuration would take
	// the Theorem 1 Simpson path, so the differential harness can apply
	// the approximation's ε budget to those cells and the tight
	// round-off budget everywhere else. Zero means the engine default
	// (32); negative means 1 (the engine's force-Simpson setting).
	ExactSpanLimit int
	// Rat computes every escape term in big-rational arithmetic
	// (Pascal-rule route counts, one division per cell) instead of the
	// default independent float64 log-binomial sums. Exact but slow;
	// meant for small circuits.
	Rat bool
}

func (c Config) topFraction() float64 {
	if c.TopFraction <= 0 {
		return 0.10
	}
	return c.TopFraction
}

func (c Config) exactSpanLimit() int {
	switch {
	case c.ExactSpanLimit > 0:
		return c.ExactSpanLimit
	case c.ExactSpanLimit < 0:
		return 1
	default:
		return 32
	}
}

// Map is the oracle's evaluated Irregular-Grid.
type Map struct {
	Chip geom.Rect
	// X and Y are the cutting-line coordinates after dedup and merge.
	X, Y []float64
	// Prob[iy][ix] is F(I) = Σ_i P_i(I) for the IR-grid between
	// X[ix]..X[ix+1] and Y[iy]..Y[iy+1].
	Prob [][]float64
	// ApproxNets[iy][ix] counts the net contributions to this IR-grid
	// for which the engine (same configuration, default evaluation
	// policy) would score at least one edge with the Theorem 1 Simpson
	// integral instead of the exact sum. Zero means the engine's value
	// should match the oracle to round-off; positive cells carry the
	// approximation's error budget once per flagged contribution.
	ApproxNets [][]int
}

// Cols returns the number of IR-grid columns.
func (mp *Map) Cols() int { return len(mp.X) - 1 }

// Rows returns the number of IR-grid rows.
func (mp *Map) Rows() int { return len(mp.Y) - 1 }

// Evaluate runs the full reference pipeline: cutting lines from every
// net's routing range, dedup, merge rule, and per-net per-IR-grid
// exact crossing probabilities.
func (c Config) Evaluate(chip geom.Rect, nets []netlist.TwoPin) *Map {
	if c.Pitch <= 0 {
		panic("oracle: Pitch must be positive")
	}
	eps := c.Pitch * 1e-9
	xs := []float64{chip.X1, chip.X2}
	ys := []float64{chip.Y1, chip.Y2}
	for _, n := range nets {
		r := rangeOf(n)
		xs = append(xs, r.X1, r.X2)
		ys = append(ys, r.Y1, r.Y2)
	}
	x := dedupeSorted(xs, eps)
	y := dedupeSorted(ys, eps)
	if !c.NoMerge {
		x = mergeLines(x, 2*c.Pitch)
		y = mergeLines(y, 2*c.Pitch)
	}
	mp := &Map{Chip: chip, X: x, Y: y}
	mp.Prob = make([][]float64, mp.Rows())
	mp.ApproxNets = make([][]int, mp.Rows())
	for iy := range mp.Prob {
		mp.Prob[iy] = make([]float64, mp.Cols())
		mp.ApproxNets[iy] = make([]int, mp.Cols())
	}
	for _, n := range nets {
		c.addNet(mp, n)
	}
	return mp
}

// Score evaluates the nets and returns the chip-level congestion cost
// under the configured top fraction.
func (c Config) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	return c.Evaluate(chip, nets).TopScore(c.topFraction())
}

// TopScore returns the area-weighted mean density over the most
// congested IR-grids covering frac of the chip area, by fully sorting
// the cells (the engine uses a quickselect instead). The last consumed
// cell contributes only its remaining area share; a non-positive
// budget returns the maximum density.
func (mp *Map) TopScore(frac float64) float64 {
	type cell struct{ d, area float64 }
	var cells []cell
	for iy := 0; iy < mp.Rows(); iy++ {
		for ix := 0; ix < mp.Cols(); ix++ {
			a := (mp.X[ix+1] - mp.X[ix]) * (mp.Y[iy+1] - mp.Y[iy])
			if a <= 0 {
				continue
			}
			cells = append(cells, cell{d: mp.Prob[iy][ix] / a, area: a})
		}
	}
	if len(cells) == 0 {
		return 0
	}
	budget := frac * mp.Chip.Area()
	if budget <= 0 {
		mx := cells[0].d
		for _, cl := range cells[1:] {
			mx = math.Max(mx, cl.d)
		}
		return mx
	}
	// Selection sort, densest first: slow and unambiguous. Equal
	// densities contribute identically whatever their order, so ties
	// cannot change the result.
	for i := range cells {
		best := i
		for j := i + 1; j < len(cells); j++ {
			if cells[j].d > cells[best].d {
				best = j
			}
		}
		cells[i], cells[best] = cells[best], cells[i]
	}
	var sum, used float64
	remaining := budget
	for _, cl := range cells {
		a := math.Min(cl.area, remaining)
		sum += cl.d * a
		used += a
		remaining -= a
		if remaining <= 0 {
			break
		}
	}
	if used == 0 {
		return 0
	}
	return sum / used
}

// rangeOf is the net's routing range: the bounding box of its pins.
func rangeOf(n netlist.TwoPin) geom.Rect {
	return geom.Rect{
		X1: math.Min(n.A.X, n.B.X), Y1: math.Min(n.A.Y, n.B.Y),
		X2: math.Max(n.A.X, n.B.X), Y2: math.Max(n.A.Y, n.B.Y),
	}
}

// dedupeSorted sorts coords ascending (insertion sort — n is small and
// the intent is transparency) and keeps each coordinate that exceeds
// its predecessor by more than eps.
func dedupeSorted(coords []float64, eps float64) []float64 {
	c := append([]float64(nil), coords...)
	for i := 1; i < len(c); i++ {
		v := c[i]
		j := i - 1
		for j >= 0 && c[j] > v {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = v
	}
	out := []float64{c[0]}
	for _, v := range c[1:] {
		if v-out[len(out)-1] > eps {
			out = append(out, v)
		}
	}
	return out
}

// mergeLines applies Algorithm step 2: interior cutting lines closer
// than minGap to the previously kept line or to the chip's far
// boundary are removed; the two boundary lines always survive.
func mergeLines(a []float64, minGap float64) []float64 {
	if len(a) <= 2 || minGap <= 0 {
		return a
	}
	last := len(a) - 1
	out := []float64{a[0]}
	for i := 1; i < last; i++ {
		if a[i]-out[len(out)-1] >= minGap && a[last]-a[i] >= minGap {
			out = append(out, a[i])
		}
	}
	return append(out, a[last])
}

// locate returns the index of the cell containing v: coordinates
// exactly on an interior cutting line belong to the cell to their
// right, the final coordinate to the last cell.
func locate(axis []float64, v float64) int {
	for i := 0; i+2 < len(axis); i++ {
		if v < axis[i+1] {
			return i
		}
	}
	return len(axis) - 2
}

// cellRange returns the cell index range covered by [lo, hi]; an
// interval ending exactly on a cell's lower line does not extend into
// that cell.
func cellRange(axis []float64, lo, hi float64) (int, int) {
	c1 := locate(axis, lo)
	c2 := locate(axis, hi)
	if c2 > c1 && hi <= axis[c2] {
		c2--
	}
	return c1, c2
}

// unitSpan maps an IR-grid boundary interval [lo, hi] (µm) into unit
// cell indices on a lattice of g cells anchored at origin, mirroring
// the engine's half-open rounding with its 1e-9 guard band.
func unitSpan(lo, hi, origin, pitch float64, g int) (int, int) {
	u1 := int(math.Floor((lo-origin)/pitch + 1e-9))
	u2 := int(math.Ceil((hi-origin)/pitch-1e-9)) - 1
	return clamp(u1, 0, g-1), clamp(u2, 0, g-1)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// addNet accumulates one net's exact crossing probabilities into mp.
func (c Config) addNet(mp *Map, n netlist.TwoPin) {
	r := rangeOf(n)
	cx1, cx2 := cellRange(mp.X, r.X1, r.X2)
	cy1, cy2 := cellRange(mp.Y, r.Y1, r.Y2)

	// The modified routing range spans whole IR-grids.
	x0, y0 := mp.X[cx1], mp.Y[cy1]
	g1 := unitCells(mp.X[cx2+1]-x0, c.Pitch)
	g2 := unitCells(mp.Y[cy2+1]-y0, c.Pitch)
	// Degenerate original ranges stay lines even when the snapped
	// range is wider.
	if r.W() < c.Pitch/2 {
		g1 = 1
	}
	if r.H() < c.Pitch/2 {
		g2 = 1
	}

	if g1 == 1 || g2 == 1 {
		for iy := cy1; iy <= cy2; iy++ {
			for ix := cx1; ix <= cx2; ix++ {
				mp.Prob[iy][ix] += 1
			}
		}
		return
	}

	// Type II: one pin upper-left of the other. Reflect y so the
	// source sits at unit cell (0, 0).
	a, b := n.A, n.B
	if a.X > b.X {
		a, b = b, a
	}
	typeII := b.Y < a.Y

	var tab *PathTable
	if c.Rat {
		tab = NewPathTable(g1, g2)
	}
	lf := newLnFact(g1 + g2)
	limit := c.exactSpanLimit()

	for iy := cy1; iy <= cy2; iy++ {
		for ix := cx1; ix <= cx2; ix++ {
			x1, x2 := unitSpan(mp.X[ix], mp.X[ix+1], x0, c.Pitch, g1)
			y1, y2 := unitSpan(mp.Y[iy], mp.Y[iy+1], y0, c.Pitch, g2)
			if x2 < x1 || y2 < y1 {
				continue
			}
			if typeII {
				y1, y2 = g2-1-y2, g2-1-y1
			}
			p, approx := c.cellProb(tab, lf, g1, g2, x1, x2, y1, y2, limit)
			mp.Prob[iy][ix] += p
			if approx {
				mp.ApproxNets[iy][ix]++
			}
		}
	}
}

// cellProb returns the exact crossing probability of the IR-rectangle
// [x1..x2]×[y1..y2] in type-I orientation, applying the model's pin
// and (in approximate mode) §4.5 overrides, and reports whether the
// engine under the same configuration would have scored any edge of
// this cell with the Simpson integral.
func (c Config) cellProb(tab *PathTable, lf lnFact, g1, g2, x1, x2, y1, y2, limit int) (float64, bool) {
	covers := func(cx, cy int) bool {
		return cx >= x1 && cx <= x2 && cy >= y1 && cy <= y2
	}
	if covers(0, 0) || covers(g1-1, g2-1) {
		return 1, false
	}
	if !c.Exact && (covers(g1-2, g2-1) || covers(g1-1, g2-2)) {
		return 1, false
	}

	approx := false
	var p float64
	if y2+1 <= g2-1 {
		if !c.Exact && x2-x1 >= limit && g2 != 2 {
			approx = true
		}
		if tab != nil {
			p += ratToFloat(tab.TopEscapeSum(x1, x2, y2))
		} else {
			for x := x1; x <= x2; x++ {
				p += math.Exp(lf.logChoose(x+y2, y2) +
					lf.logChoose((g1-1-x)+(g2-2-y2), g2-2-y2) -
					lf.logChoose(g1+g2-2, g2-1))
			}
		}
	}
	if x2+1 <= g1-1 {
		if !c.Exact && y2-y1 >= limit && g1 != 2 {
			approx = true
		}
		if tab != nil {
			p += ratToFloat(tab.RightEscapeSum(x2, y1, y2))
		} else {
			for yy := y1; yy <= y2; yy++ {
				p += math.Exp(lf.logChoose(x2+yy, yy) +
					lf.logChoose((g1-2-x2)+(g2-1-yy), g2-1-yy) -
					lf.logChoose(g1+g2-2, g2-1))
			}
		}
	}
	if p > 1 {
		p = 1
	}
	return p, approx
}

func ratToFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
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

// lnFact is the oracle's own ln-factorial table: lnFact[n] = ln(n!).
type lnFact []float64

func newLnFact(n int) lnFact {
	t := make(lnFact, n+1)
	for i := 2; i <= n; i++ {
		t[i] = t[i-1] + math.Log(float64(i))
	}
	return t
}

// logChoose returns ln C(n, k), or -Inf for a zero coefficient.
func (t lnFact) logChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return math.Inf(-1)
	}
	return t[n] - t[k] - t[n-k]
}
