// Package obs is the telemetry subsystem: a registry of atomic
// counters, gauges and fixed-bucket histograms with Prometheus-style
// text exposition, a JSONL run tracer, and an HTTP handler serving
// live metrics plus net/http/pprof.
//
// The package's contract is zero overhead when disabled: every
// instrument type is a pointer whose methods are nil-safe no-ops, and
// a nil *Registry hands out nil instruments, so instrumented code can
// unconditionally call Add/Set/Observe and pay only a predictable
// not-taken branch when telemetry is off (no allocation, no atomic;
// guarded by TestNilInstrumentsAreFree and BenchmarkNilInstruments).
// Telemetry never perturbs results: instruments observe values that
// the computation already produced and touch no RNG or float path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter ignores all writes.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the last observed value. The zero
// value is ready to use; a nil *Gauge ignores all writes.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// immutable after creation; Observe is lock-free. A nil *Histogram
// ignores all observations.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// DurationBuckets are the default nanosecond buckets for timing
// histograms: 1 µs to 10 s, roughly ×3 apart.
var DurationBuckets = []float64{
	1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 1e10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named collection of instruments. Instruments are
// created on first request and shared thereafter, so call sites can
// resolve them once and hold the pointers across the hot path. A nil
// *Registry hands out nil instruments, making every downstream write a
// no-op.
//
// Metric names follow Prometheus conventions (snake_case, counters
// ending in _total); a name may carry a label suffix in exposition
// syntax, e.g. `busy_ns_total{worker="0"}` — series
// sharing a base name are grouped under one TYPE line on export.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histogram map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		histogram: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bucket bounds on first use (later calls reuse the existing
// buckets). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histogram[name]
	if !ok {
		h = newHistogram(bounds)
		r.histogram[name] = h
	}
	return h
}

// Snapshot returns the current value of every instrument: counters and
// gauges under their own names, histograms as <name>_count and
// <name>_sum. A nil registry returns nil.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.histogram))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histogram {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// baseName strips a label suffix: `a_total{worker="0"}` → `a_total`.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// WriteText writes the registry in the Prometheus text exposition
// format (one TYPE line per base name, series sorted by name). A nil
// registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histogram))
	for k, v := range r.histogram {
		hists[k] = v
	}
	r.mu.Unlock()

	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	typed := make(map[string]bool) // base names whose TYPE line is out
	family := func(name, kind string) {
		if b := baseName(name); !typed[b] {
			typed[b] = true
			emit("# TYPE %s %s\n", b, kind)
		}
	}

	for _, name := range sortedKeys(counters) {
		family(name, "counter")
		emit("%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		family(name, "gauge")
		emit("%s %s\n", name, formatFloat(gauges[name].Value()))
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		family(name, "histogram")
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			emit("%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		emit("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		emit("%s_sum %s\n", name, formatFloat(h.Sum()))
		emit("%s_count %d\n", name, h.Count())
	}
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
