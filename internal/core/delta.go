package core

// Incremental (delta) evaluation of the IR-grid congestion model.
//
// A simulated-annealing move perturbs a handful of modules; most nets
// keep their routing ranges and most cutting lines survive. The
// DeltaEvaluator exploits that by maintaining, across Score calls:
//
//   - the sorted multisets of cutting-line source coordinates (two per
//     net range plus the chip boundary, per axis), updated per move in
//     O(dirty·log dirty + lines) by a linear merge — no full re-sort;
//   - the merged cutting-line axes, rebuilt from the multisets in O(lines)
//     and compared to the cached axes (the "axis cache");
//   - one fixed-point contribution vector per net (the quantized values
//     the full evaluator would fold into the grid), double-buffered.
//
// The central invariant making this both cheap and exact: a net's
// contribution vector is a pure function of its unit-lattice tuple
// (g1, g2, typeII, per-cell unit spans) — the global axes only anchor
// where the vector lands on the grid. Two consequences:
//
//   - when a move leaves the axes bit-identical, only the dirty nets'
//     vectors are recomputed; the grid update is subtract-old/add-new
//     over their covered cells (O(dirty·coverage));
//   - when the axes shift, the grid is refolded from the stored vectors
//     onto the new grid; a net's expensive probability sweep reruns only
//     if its span tuple changed AND no other net ever produced the same
//     tuple (vectors are shared across nets through sweepMemo, since the
//     tuple fully determines them).
//
// Accumulation is int64 fixed point (fixed.go), so additions commute
// and subtracting a stored vector perfectly inverts adding it. Every
// path therefore reproduces, bit for bit, what Evaluator.Evaluate
// computes from scratch on the same (chip, nets) — the differential
// suites in delta_test.go and oracle/diff assert exactly that — and
// Rollback is an exact O(touched) inverse with no cell-level undo log.

import (
	"sort"
	"time"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/nmath"
	"irgrid/internal/obs"
)

// netSide is one buffered evaluation of a net against some axis pair:
// its frame on the IR-grid, its unit-lattice tuple and its quantized
// contribution vector.
type netSide struct {
	ok      bool // frame resolved; false → no contribution
	uniform bool // g1==1 or g2==1: probability 1 over the covered box
	typeII  bool
	g1, g2  int32
	// Covered IR-grid box (frame anchor on the axes the side was
	// computed against).
	cx1, cy1, cols, rows int32
	// spans holds colLo,colHi per covered column then rowLo,rowHi per
	// covered row (rows oriented, i.e. typeII-reflected), exactly as
	// addNetSweep derives them. Empty for uniform sides.
	spans []int32
	// vals[j*cols+i] is the net's quantized contribution to frame cell
	// (i, j); nil for uniform sides (every cell contributes probOne).
	vals []int64
}

// netVec double-buffers a net's evaluation: cur is folded into the
// accumulator, alt is the scratch side the next move computes into.
// After a move the buffers swap; Rollback swaps them back.
type netVec struct {
	cur, alt netSide
}

// sweepMemo caches contribution vectors across nets and moves, keyed by
// the exact unit-lattice tuple (g1, g2, typeII, per-cell unit spans).
// The sweep is a pure function of that tuple — crossProb and the pin
// overrides consume only unit indices — so two nets anywhere on the
// chip, or the same net on two different move steps, share one vector
// as long as their tuples match bit for bit. Small nets repeat a
// handful of shapes endlessly, which is what makes the axis-rebuild
// path cheap: a global repack re-anchors every frame, but almost every
// vector comes out of this table instead of a fresh probability sweep.
//
// Entries are immutable once stored; net sides alias them, never copy.
// Keys are compared exactly on lookup (the hash only buckets), so a
// collision can never substitute a wrong vector.
type sweepMemo struct {
	idx   map[uint64]int32 // tuple hash → head of entry chain (index+1)
	next  []int32          // per-entry collision chain (0 terminates)
	keys  [][]int32
	vecs  [][]int64
	cells int // total cached int64s, for the memory bound
}

// memoMaxCells caps the int64 cells held by cached vectors: 1<<26
// cells is 512 MiB. The per-entry []int32 keys and the index are not
// counted against it. Exceeding it drops the whole index and starts
// over: vectors already aliased by live net sides remain valid because
// their storage is never recycled, only unreferenced.
const memoMaxCells = 1 << 26

//irlint:hot
func (sm *sweepMemo) lookup(key []int32, h uint64) ([]int64, bool) {
	for e := sm.idx[h]; e != 0; e = sm.next[e-1] {
		if int32sEqual(sm.keys[e-1], key) {
			return sm.vecs[e-1], true
		}
	}
	return nil, false
}

func (sm *sweepMemo) put(key []int32, h uint64, vec []int64) {
	if sm.cells+len(vec) > memoMaxCells {
		sm.idx = nil
		sm.next = sm.next[:0]
		sm.keys = sm.keys[:0]
		sm.vecs = sm.vecs[:0]
		sm.cells = 0
	}
	if sm.idx == nil {
		sm.idx = make(map[uint64]int32)
	}
	sm.keys = append(sm.keys, append([]int32(nil), key...))
	sm.vecs = append(sm.vecs, vec)
	sm.next = append(sm.next, sm.idx[h])
	sm.idx[h] = int32(len(sm.keys))
	sm.cells += len(vec)
}

//irlint:hot
func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// netUndo records one dirty net's pre-move value for Rollback.
type netUndo struct {
	idx int32
	n   netlist.TwoPin
}

// Undo kinds (what Rollback has to invert).
const (
	undoNone      byte = iota
	undoNoop           // nothing changed
	undoIdentical      // axis-cache hit: dirty nets' folds + buffer swaps
	undoRebuild        // axes shifted: whole-state ping-pong swap
	undoInit           // full (re)initialization: replay the previous state
)

// deltaInstr holds the delta engine's resolved telemetry instruments.
type deltaInstr struct {
	incMoves  *obs.Counter // eval_incremental_moves
	fullFalls *obs.Counter // eval_full_fallbacks
	dirtyNets *obs.Counter // eval_dirty_nets
	axisHits  *obs.Counter // eval_axis_cache_hits_total
	axisMiss  *obs.Counter // eval_axis_cache_misses_total
	hitRate   *obs.Gauge   // eval_axis_cache_hit_rate
	vecReuse  *obs.Counter // eval_vec_reuse_total
	vecMemo   *obs.Counter // eval_vec_memo_hits_total
	vecSweeps *obs.Counter // eval_vec_sweeps_total
	rollbacks *obs.Counter // eval_rollbacks_total
	memoHit   *obs.Counter // eval_simpson_memo_hits_total (shared name)
	memoMiss  *obs.Counter // eval_simpson_memo_misses_total
	moveNs    *obs.Histogram
}

func newDeltaInstr(reg *obs.Registry) *deltaInstr {
	return &deltaInstr{
		incMoves:  reg.Counter("eval_incremental_moves"),
		fullFalls: reg.Counter("eval_full_fallbacks"),
		dirtyNets: reg.Counter("eval_dirty_nets"),
		axisHits:  reg.Counter("eval_axis_cache_hits_total"),
		axisMiss:  reg.Counter("eval_axis_cache_misses_total"),
		hitRate:   reg.Gauge("eval_axis_cache_hit_rate"),
		vecReuse:  reg.Counter("eval_vec_reuse_total"),
		vecMemo:   reg.Counter("eval_vec_memo_hits_total"),
		vecSweeps: reg.Counter("eval_vec_sweeps_total"),
		rollbacks: reg.Counter("eval_rollbacks_total"),
		memoHit:   reg.Counter("eval_simpson_memo_hits_total"),
		memoMiss:  reg.Counter("eval_simpson_memo_misses_total"),
		moveNs:    reg.Histogram("eval_move_ns", obs.DurationBuckets),
	}
}

// DeltaEvaluator scores successive (chip, nets) states incrementally.
// It is the move-level counterpart of Evaluator: Score on a state that
// differs from the previous one by a few nets costs O(dirty) instead of
// O(nets), and the result is bit-identical to Evaluator.Score on the
// same input. Rollback restores the cached state to what it was before
// the last Score (one level deep), so a rejected SA move costs only the
// inverse folds.
//
// A DeltaEvaluator is not safe for concurrent use.
type DeltaEvaluator struct {
	m  Model
	ev evaluator // sweep engine in vec-capture mode
	lf nmath.LogFact

	valid bool
	chip  geom.Rect
	nets  []netlist.TwoPin // owned copy of the cached state
	nv    []netVec

	// Sorted coordinate multisets feeding the axis build (chip bounds +
	// two range coordinates per net, per axis).
	msX, msY multiset
	dedup    []float64 // dedup scratch between multiset and merge

	// Current and spare merged axes (ping-pong on rebuild moves).
	axX, axY       geom.Axis
	axXAlt, axYAlt geom.Axis

	// Per-move coordinate change lists.
	rmX, insX, rmY, insY []float64

	// Cross-net sweep cache and its key scratch.
	memo    sweepMemo
	memoKey []int32

	acc, accAlt []int64 // fixed-point grids (ping-pong on rebuild moves)
	prob        []float64
	mp          Map
	cells       []topCell
	wX, wY      []float64 // per-axis cell extents for the score path

	score float64

	// Rollback journal (one level).
	canUndo   bool
	undoKind  byte
	dirty     []int32
	undoNets  []netUndo
	prevChip  geom.Rect
	prevScore float64
	prevValid bool
	prevNets  []netlist.TwoPin // only for undoInit

	instr              *deltaInstr
	axisHits, axisMiss int64
}

// NewDeltaEvaluator returns an incremental move scorer for the model.
func (m Model) NewDeltaEvaluator() *DeltaEvaluator {
	if m.Pitch <= 0 {
		panic("core: Pitch must be positive")
	}
	d := &DeltaEvaluator{m: m}
	d.ev = evaluator{m: m, lf: &d.lf, mp: &d.mp, memo: make(map[edgeKey]float64)}
	if m.Obs != nil {
		d.instr = newDeltaInstr(m.Obs)
	}
	return d
}

// NewMoveScorer implements the optional incremental-evaluation hook of
// higher layers (fplan detects it on the estimator): the returned value
// scores successive SA states sharing most of their nets. The `any`
// return keeps core free of pipeline imports, like WithObserver.
func (m Model) NewMoveScorer() any { return m.NewDeltaEvaluator() }

// Model returns the engine's configuration.
func (d *DeltaEvaluator) Model() Model { return d.m }

// Name identifies the engine in experiment tables.
func (d *DeltaEvaluator) Name() string { return d.m.Name() + "+delta" }

// Score evaluates the state incrementally against the cached previous
// state and returns the chip-level congestion cost, bit-identical to
// Evaluator.Score(chip, nets). The call commits (chip, nets) as the new
// cached state; Rollback reverts to the previous one.
//
//irlint:hot
func (d *DeltaEvaluator) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	in := d.instr
	var t0 time.Time
	if in != nil {
		//irlint:allow detsource(obs timing only)
		t0 = time.Now()
	}
	root := d.m.Spans.Start("move")
	d.apply(chip, nets, root)
	s := d.finishScore()
	root.End()
	if in != nil {
		//irlint:allow detsource(obs timing only)
		in.moveNs.Observe(float64(time.Since(t0).Nanoseconds()))
		d.flushTallies(in)
	}
	return s
}

// Evaluate is Score returning the dense map instead of the top-score
// scalar; it commits the state exactly like Score. The returned Map
// aliases the engine's arena and is valid until the next call.
func (d *DeltaEvaluator) Evaluate(chip geom.Rect, nets []netlist.TwoPin) *Map {
	root := d.m.Spans.Start("move")
	d.apply(chip, nets, root)
	root.End()
	d.refreshProb()
	return &d.mp
}

// Rollback restores the engine's cached state to what it was before the
// last Score/Evaluate call: the grid update is the exact integer
// inverse of the folds the move applied, so the restored accumulator is
// bit-identical to never having scored the rejected state. A second
// Rollback without an intervening Score is a no-op.
//
//irlint:hot
func (d *DeltaEvaluator) Rollback() {
	if !d.canUndo {
		return
	}
	d.canUndo = false
	if in := d.instr; in != nil {
		in.rollbacks.Inc()
	}
	// The "move" root span ended when Score returned, so the rollback
	// stage attaches to the tree by explicit path.
	sp := d.m.Spans.StartAt("move/rollback")
	defer sp.End()
	switch d.undoKind {
	case undoNoop:
		// No state was touched.
	case undoIdentical:
		stride := d.axX.Cells()
		for _, i := range d.dirty {
			nv := &d.nv[i]
			foldSide(d.acc, stride, &nv.cur, -1)
			foldSide(d.acc, stride, &nv.alt, +1)
			nv.cur, nv.alt = nv.alt, nv.cur
		}
		d.msX.swap()
		d.msY.swap()
		d.restoreNets()
	case undoRebuild:
		for i := range d.nv {
			nv := &d.nv[i]
			nv.cur, nv.alt = nv.alt, nv.cur
		}
		d.acc, d.accAlt = d.accAlt, d.acc
		d.axX, d.axXAlt = d.axXAlt, d.axX
		d.axY, d.axYAlt = d.axYAlt, d.axY
		d.msX.swap()
		d.msY.swap()
		d.restoreNets()
	case undoInit:
		if !d.prevValid {
			d.valid = false
			break
		}
		// Replay the previous state from scratch. Rare (first call or a
		// net-count change), so the O(n) rebuild is acceptable.
		d.fullInit(d.prevChip, d.prevNets)
		d.canUndo = false
	}
	d.chip = d.prevChip
	d.score = d.prevScore
	d.undoKind = undoNone
}

func (d *DeltaEvaluator) restoreNets() {
	for _, u := range d.undoNets {
		d.nets[u.idx] = u.n
	}
}

// apply advances the cached state to (chip, nets), updating the
// accumulator through the cheapest valid path. sp (the enclosing
// "move" span, nil when spans are disabled) receives the per-stage
// children: diff, fold-out/fold-in or rebuild.
//
//irlint:hot
func (d *DeltaEvaluator) apply(chip geom.Rect, nets []netlist.TwoPin, sp *obs.Span) {
	if !d.valid || len(nets) != len(d.nets) {
		// Full fallback: no usable cached state (first call) or the net
		// population changed shape.
		d.prevValid = d.valid
		d.prevChip = d.chip
		d.prevScore = d.score
		if d.valid {
			d.prevNets = append(d.prevNets[:0], d.nets...)
		}
		c := sp.Child("rebuild")
		d.fullInit(chip, nets)
		c.End()
		d.undoKind = undoInit
		d.canUndo = true
		if in := d.instr; in != nil {
			in.fullFalls.Inc()
		}
		return
	}

	// Diff the net lists; record pre-move values for rollback.
	c := sp.Child("diff")
	dirty, undo := d.dirty[:0], d.undoNets[:0]
	for i, n := range nets {
		if n != d.nets[i] {
			dirty = append(dirty, int32(i))
			undo = append(undo, netUndo{idx: int32(i), n: d.nets[i]})
		}
	}
	d.dirty, d.undoNets = dirty, undo
	chipChanged := chip != d.chip
	d.prevChip = d.chip
	d.prevScore = d.score
	if in := d.instr; in != nil {
		in.dirtyNets.Add(int64(len(d.dirty)))
	}
	if len(d.dirty) == 0 && !chipChanged {
		c.End()
		d.undoKind = undoNoop
		d.canUndo = true
		return
	}

	// Update the coordinate multisets and rebuild the candidate axes.
	rmX, insX := d.rmX[:0], d.insX[:0]
	rmY, insY := d.rmY[:0], d.insY[:0]
	for k, u := range d.undoNets {
		or := u.n.Range()
		nr := nets[d.dirty[k]].Range()
		rmX = append(rmX, or.X1, or.X2)
		insX = append(insX, nr.X1, nr.X2)
		rmY = append(rmY, or.Y1, or.Y2)
		insY = append(insY, nr.Y1, nr.Y2)
	}
	if chipChanged {
		rmX = append(rmX, d.chip.X1, d.chip.X2)
		insX = append(insX, chip.X1, chip.X2)
		rmY = append(rmY, d.chip.Y1, d.chip.Y2)
		insY = append(insY, chip.Y1, chip.Y2)
	}
	d.rmX, d.insX, d.rmY, d.insY = rmX, insX, rmY, insY
	sort.Float64s(d.rmX)
	sort.Float64s(d.insX)
	sort.Float64s(d.rmY)
	sort.Float64s(d.insY)
	d.msX.apply(d.rmX, d.insX)
	d.msY.apply(d.rmY, d.insY)
	d.axXAlt = d.buildAxis(d.msX.vals, d.axXAlt)
	d.axYAlt = d.buildAxis(d.msY.vals, d.axYAlt)

	// Commit the new inputs (old values are in the undo journal).
	for _, i := range d.dirty {
		d.nets[i] = nets[i]
	}
	d.chip = chip
	c.End()

	if axisEqual(d.axX, d.axXAlt) && axisEqual(d.axY, d.axYAlt) {
		d.axisHits++
		d.identicalMove(sp)
		d.undoKind = undoIdentical
	} else {
		d.axisMiss++
		c = sp.Child("rebuild")
		d.rebuildMove()
		c.End()
		d.undoKind = undoRebuild
	}
	d.canUndo = true
	if in := d.instr; in != nil {
		in.incMoves.Inc()
		if d.undoKind == undoIdentical {
			in.axisHits.Inc()
		} else {
			in.axisMiss.Inc()
		}
		in.hitRate.Set(float64(d.axisHits) / float64(d.axisHits+d.axisMiss))
	}
}

// identicalMove updates the accumulator in place: the axes are
// bit-identical, so clean nets' frames and vectors are untouched and
// only the dirty nets fold out and back in.
//
//irlint:hot
func (d *DeltaEvaluator) identicalMove(sp *obs.Span) {
	d.mp.XAxis, d.mp.YAxis = d.axX, d.axY
	stride := d.axX.Cells()
	for _, i := range d.dirty {
		nv := &d.nv[i]
		c := sp.Child("fold-out")
		foldSide(d.acc, stride, &nv.cur, -1)
		c.End()
		c = sp.Child("fold-in")
		d.computeSide(d.nets[i], &nv.cur, &nv.alt)
		foldSide(d.acc, stride, &nv.alt, +1)
		c.End()
		nv.cur, nv.alt = nv.alt, nv.cur
	}
}

// rebuildMove refolds the whole grid onto the shifted axes. Clean nets
// whose unit-lattice tuple survived the shift realias their stored
// vectors (a frame relocation, no copy); tuple-changed nets hit the
// cross-net sweep memo first and only sweep on a genuinely new shape.
// The previous grid, axes and vectors stay intact in the spare buffers
// for Rollback.
//
//irlint:hot
func (d *DeltaEvaluator) rebuildMove() {
	d.mp.XAxis, d.mp.YAxis = d.axXAlt, d.axYAlt
	stride := d.axXAlt.Cells()
	cells := stride * d.axYAlt.Cells()
	d.accAlt = resizeInt64s(d.accAlt, cells)
	for i := range d.nv {
		nv := &d.nv[i]
		d.computeSide(d.nets[i], &nv.cur, &nv.alt)
		foldSide(d.accAlt, stride, &nv.alt, +1)
		nv.cur, nv.alt = nv.alt, nv.cur
	}
	d.acc, d.accAlt = d.accAlt, d.acc
	d.axX, d.axXAlt = d.axXAlt, d.axX
	d.axY, d.axYAlt = d.axYAlt, d.axY
}

// fullInit rebuilds every cached structure from scratch for (chip,
// nets). Stored vectors still short-circuit the sweeps when their
// tuples match, so even a fallback is cheaper than a cold start.
func (d *DeltaEvaluator) fullInit(chip geom.Rect, nets []netlist.TwoPin) {
	d.chip = chip
	d.nets = append(d.nets[:0], nets...)
	d.msX.init(d.collectCoords(&d.rmX, chip.X1, chip.X2, axisX))
	d.msY.init(d.collectCoords(&d.rmY, chip.Y1, chip.Y2, axisY))
	d.axX = d.buildAxis(d.msX.vals, d.axX)
	d.axY = d.buildAxis(d.msY.vals, d.axY)
	d.mp.XAxis, d.mp.YAxis = d.axX, d.axY
	d.lf.Ensure(unitCells(chip.W(), d.m.Pitch) + unitCells(chip.H(), d.m.Pitch) + 4)

	for len(d.nv) < len(nets) {
		d.nv = append(d.nv, netVec{})
	}
	d.nv = d.nv[:len(nets)]

	stride := d.axX.Cells()
	cells := stride * d.axY.Cells()
	d.acc = resizeInt64s(d.acc, cells)
	for i := range nets {
		nv := &d.nv[i]
		d.computeSide(nets[i], &nv.cur, &nv.alt)
		foldSide(d.acc, stride, &nv.alt, +1)
		nv.cur, nv.alt = nv.alt, nv.cur
	}
	d.valid = true
}

type axisDim bool

const (
	axisX axisDim = false
	axisY axisDim = true
)

// collectCoords gathers the chip bounds plus every net range's lo/hi
// coordinate along one axis into the given scratch buffer.
func (d *DeltaEvaluator) collectCoords(buf *[]float64, lo, hi float64, dim axisDim) []float64 {
	c := (*buf)[:0]
	c = append(c, lo, hi)
	for _, n := range d.nets {
		r := n.Range()
		if dim == axisX {
			c = append(c, r.X1, r.X2)
		} else {
			c = append(c, r.Y1, r.Y2)
		}
	}
	*buf = c
	return c
}

// buildAxis turns a sorted coordinate multiset into the merged
// cutting-line axis, writing into dst's backing array. It mirrors
// geom.NewAxisInPlace (eps dedup) followed by Axis.MergeInPlace
// (2×pitch merge) exactly, so the result is bit-identical to what
// Evaluator.buildAxes derives from the same coordinates.
//
//irlint:hot
func (d *DeltaEvaluator) buildAxis(ms []float64, dst geom.Axis) geom.Axis {
	out := dst[:0]
	if len(ms) == 0 {
		return out
	}
	eps := d.m.Pitch * 1e-9
	dd := d.dedup[:0]
	dd = append(dd, ms[0])
	for _, v := range ms[1:] {
		if v-dd[len(dd)-1] > eps {
			dd = append(dd, v)
		}
	}
	d.dedup = dd
	minGap := 2 * d.m.Pitch
	if d.m.NoMerge || len(dd) <= 2 {
		return append(out, dd...)
	}
	last := len(dd) - 1
	hi := dd[last]
	out = append(out, dd[0])
	for i := 1; i < last; i++ {
		if dd[i]-out[len(out)-1] >= minGap && hi-dd[i] >= minGap {
			out = append(out, dd[i])
		}
	}
	return append(out, hi)
}

func axisEqual(a, b geom.Axis) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// computeSide evaluates net n against the axes currently installed in
// d.mp, into out. The probability sweep only runs when neither cur's
// stored side nor the cross-net sweep memo already holds a vector for
// the same unit-lattice tuple — valid because the vector is a pure
// function of the tuple (the axes only position the frame). Vectors are
// immutable and aliased, never copied.
//
//irlint:hot
func (d *DeltaEvaluator) computeSide(n netlist.TwoPin, cur, out *netSide) {
	f, ok := d.ev.frame(n)
	if !ok {
		out.ok = false
		return
	}
	out.ok = true
	out.typeII = f.typeII
	out.g1, out.g2 = int32(f.g1), int32(f.g2)
	out.cx1, out.cy1 = int32(f.cx1), int32(f.cy1)
	out.cols = int32(f.cx2 - f.cx1 + 1)
	out.rows = int32(f.cy2 - f.cy1 + 1)
	if f.g1 == 1 || f.g2 == 1 {
		out.uniform = true
		out.spans = out.spans[:0]
		return
	}
	out.uniform = false
	d.sideSpans(f, out)
	if sideReusable(cur, out) {
		out.vals = cur.vals
		if in := d.instr; in != nil {
			in.vecReuse.Inc()
		}
		return
	}
	key, h := d.memoTuple(out)
	if vec, ok := d.memo.lookup(key, h); ok {
		out.vals = vec
		if in := d.instr; in != nil {
			in.vecMemo.Inc()
		}
		return
	}
	vec := make([]int64, int(out.cols)*int(out.rows))
	d.ev.ensureLF(f.g1 + f.g2)
	d.ev.vec = vec
	d.ev.addNetSweep(f)
	d.ev.vec = nil
	out.vals = vec
	d.memo.put(key, h, vec)
	if in := d.instr; in != nil {
		in.vecSweeps.Inc()
	}
}

// memoTuple packs a side's unit-lattice tuple into the key scratch and
// returns it with its FNV-1a hash.
//
//irlint:hot
func (d *DeltaEvaluator) memoTuple(s *netSide) ([]int32, uint64) {
	k := d.memoKey[:0]
	t := int32(0)
	if s.typeII {
		t = 1
	}
	k = append(k, s.g1, s.g2, t, s.cols, s.rows)
	k = append(k, s.spans...)
	d.memoKey = k
	h := uint64(14695981039346656037)
	for _, v := range k {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return k, h
}

// sideSpans derives the per-cell unit spans of frame f, replicating the
// colLo/colHi/rowLo/rowHi computation of addNetSweep (including the
// type II row reflection).
//
//irlint:hot
func (d *DeltaEvaluator) sideSpans(f netFrame, s *netSide) {
	cols, rows := int(s.cols), int(s.rows)
	s.spans = resizeInt32s(s.spans, 2*(cols+rows))
	sp := s.spans
	pitch := d.m.Pitch
	for i := 0; i < cols; i++ {
		ix := f.cx1 + i
		sp[2*i] = int32(unitIndexLo(d.mp.XAxis[ix], f.x0, pitch, f.g1))
		sp[2*i+1] = int32(unitIndexHi(d.mp.XAxis[ix+1], f.x0, pitch, f.g1))
	}
	off := 2 * cols
	for j := 0; j < rows; j++ {
		iy := f.cy1 + j
		y1 := unitIndexLo(d.mp.YAxis[iy], f.y0, pitch, f.g2)
		y2 := unitIndexHi(d.mp.YAxis[iy+1], f.y0, pitch, f.g2)
		if f.typeII {
			y1, y2 = f.g2-1-y2, f.g2-1-y1
		}
		sp[off+2*j] = int32(y1)
		sp[off+2*j+1] = int32(y2)
	}
}

// sideReusable reports whether cur's stored vector is valid for out:
// the unit-lattice tuples must match exactly. Positions (cx1, cy1) are
// deliberately excluded — translation preserves the vector.
func sideReusable(cur, out *netSide) bool {
	if cur == nil || !cur.ok || cur.uniform ||
		cur.g1 != out.g1 || cur.g2 != out.g2 || cur.typeII != out.typeII ||
		cur.cols != out.cols || cur.rows != out.rows ||
		len(cur.spans) != len(out.spans) {
		return false
	}
	for i, v := range cur.spans {
		if v != out.spans[i] {
			return false
		}
	}
	return true
}

// foldSide adds (sign +1) or subtracts (sign -1) a net side's
// contribution vector into the accumulator grid.
//
//irlint:hot
func foldSide(acc []int64, stride int, s *netSide, sign int64) {
	if !s.ok {
		return
	}
	cx1, cy1 := int(s.cx1), int(s.cy1)
	cols, rows := int(s.cols), int(s.rows)
	if s.uniform {
		add := sign * probOne
		for j := 0; j < rows; j++ {
			dst := acc[(cy1+j)*stride+cx1:][:cols]
			for i := range dst {
				dst[i] += add
			}
		}
		return
	}
	idx := 0
	for j := 0; j < rows; j++ {
		dst := acc[(cy1+j)*stride+cx1:][:cols]
		src := s.vals[idx : idx+cols]
		if sign > 0 {
			for i, v := range src {
				dst[i] += v
			}
		} else {
			for i, v := range src {
				dst[i] -= v
			}
		}
		idx += cols
	}
}

// refreshProb converts the fixed-point accumulator to the float map the
// consumers read, exactly like Evaluator.Evaluate's final conversion.
//
//irlint:hot
func (d *DeltaEvaluator) refreshProb() {
	cells := d.axX.Cells() * d.axY.Cells()
	d.prob = resizeFloats(d.prob, cells)
	for i, v := range d.acc[:cells] {
		d.prob[i] = float64(v) * probInv
	}
	d.mp = Map{Chip: d.chip, XAxis: d.axX, YAxis: d.axY, Prob: d.prob}
}

// finishScore runs the top-fraction selection straight off the
// fixed-point accumulator, matching Evaluator.Score bit for bit
// without materializing the float map: the density of cell (i, j) is
// (float64(acc)·probInv)/(w·h), exactly the operations Map.topScore
// performs via Prob and Rect, and the selection itself is the shared
// weightedTopSum. Evaluate still converts the full map on demand.
//
//irlint:hot
func (d *DeltaEvaluator) finishScore() float64 {
	frac := d.m.TopFraction
	if frac <= 0 {
		frac = 0.10
	}
	cols, rows := d.axX.Cells(), d.axY.Cells()
	d.wX = resizeFloats(d.wX, cols)
	d.wY = resizeFloats(d.wY, rows)
	for i := 0; i < cols; i++ {
		d.wX[i] = d.axX[i+1] - d.axX[i]
	}
	for j := 0; j < rows; j++ {
		d.wY[j] = d.axY[j+1] - d.axY[j]
	}
	cells := d.cells[:0]
	for j := 0; j < rows; j++ {
		row := d.acc[j*cols : (j+1)*cols]
		h := d.wY[j]
		for i, v := range row {
			a := d.wX[i] * h
			if a <= 0 {
				continue
			}
			cells = append(cells, topCell{d: float64(v) * probInv / a, area: a})
		}
	}
	d.cells = cells
	var s float64
	switch {
	case len(cells) == 0:
		s = 0
	case frac*d.chip.Area() <= 0:
		mx := cells[0].d
		for _, c := range cells[1:] {
			if c.d > mx {
				mx = c.d
			}
		}
		s = mx
	default:
		sum, used := weightedTopSum(cells, frac*d.chip.Area())
		if used == 0 {
			s = 0
		} else {
			s = sum / used
		}
	}
	d.score = s
	return s
}

// flushTallies folds the sweep engine's memo tallies into the registry.
func (d *DeltaEvaluator) flushTallies(in *deltaInstr) {
	in.memoHit.Add(d.ev.nHit)
	in.memoMiss.Add(d.ev.nMiss)
	d.ev.nHit, d.ev.nMiss, d.ev.nExactLanes = 0, 0, 0
}

// multiset is a sorted multiset of float64 coordinates with a spare
// buffer: apply writes the updated sequence into the spare and swaps,
// keeping the previous sequence intact for rollback.
type multiset struct {
	vals, spare []float64
}

func (s *multiset) init(coords []float64) {
	s.vals = append(s.vals[:0], coords...)
	sort.Float64s(s.vals)
}

// apply removes one instance of every value in rm and inserts every
// value in ins (both sorted), via a single linear merge. Every rm value
// must be present (they are exact copies of previously inserted
// coordinates).
//
//irlint:hot
func (s *multiset) apply(rm, ins []float64) {
	out := s.spare[:0]
	j, k := 0, 0
	for _, v := range s.vals {
		for k < len(ins) && ins[k] <= v {
			out = append(out, ins[k])
			k++
		}
		if j < len(rm) && rm[j] == v {
			j++
			continue
		}
		out = append(out, v)
	}
	for ; k < len(ins); k++ {
		out = append(out, ins[k])
	}
	s.spare = s.vals
	s.vals = out
}

// swap restores the pre-apply sequence (single-level rollback).
func (s *multiset) swap() { s.vals, s.spare = s.spare, s.vals }

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
