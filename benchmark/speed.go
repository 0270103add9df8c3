package main

import (
	"sort"
	"time"
)

// A shared host's speed swings by a third or more within minutes, as
// other tenants load it, and a run is too short to average that out. So
// every end-to-end time is host-normalized: while an untraced run
// measures, a speed probe runs every probeEvery, and a wall time is
// rescaled by probeNominal over the probe's median duration around it.
// The result is the time the work would take on a host where the probe
// takes probeNominal. Raw wall-clock values are printed beside them.
const (
	// probeNominal is the probe's duration on the reference host, close
	// to its typical duration on a two-vCPU cloud VM.
	probeNominal = 2 * time.Millisecond
	// probeEvery is how often the probe runs; it takes about 2% of the
	// CPU, which every measured time includes.
	probeEvery = 100 * time.Millisecond
	// probeMargin widens the interval whose probes rescale a time, so
	// that an op shorter than probeEvery still sees several.
	probeMargin = 500 * time.Millisecond
)

// speedProbe is a fixed computation that shares no code with the
// repository, so that no change to the repository changes its
// duration: generating, sorting and multiplying through 16 Ki float64s
// (128 KiB, cache-resident), without allocating.
type speedProbe struct {
	xs   [1 << 14]float64
	sink float64
}

// run returns the probe's duration in seconds.
func (p *speedProbe) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range p.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.xs[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(p.xs[:])
	s := 0.0
	for r := 0; r < 10; r++ {
		for i := range p.xs {
			s += p.xs[i] * p.xs[(i*7)&(len(p.xs)-1)]
		}
	}
	p.sink += s
	return time.Since(t0).Seconds()
}

// span is a measured wall-clock interval.
type span struct{ from, to time.Time }

func spanSince(t0 time.Time) span { return span{t0, time.Now()} }

func (s span) wall() float64 { return s.to.Sub(s.from).Seconds() }

// mapSpans applies f to every span.
func mapSpans(ss []span, f func(span) float64) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return vs
}

// hostClock rescales wall times by the probe durations read during the
// run.
type hostClock struct {
	probes []reading
	median float64 // over the whole run, seconds
}

// startHostClock starts probing; the returned function stops it and
// returns the clock.
func startHostClock() (stop func() *hostClock) {
	p := new(speedProbe)
	stopProbe := sampleEvery(probeEvery, func() (float64, error) { return p.run(), nil })
	return func() *hostClock {
		rs, _ := stopProbe() // the probe never fails
		all := make([]float64, len(rs))
		for i, r := range rs {
			all[i] = r.v
		}
		return &hostClock{probes: rs, median: median(all)}
	}
}

// seconds returns the host-normalized length of s: its wall time times
// probeNominal over the median probe duration within probeMargin of s,
// or over the whole run when no probe ran that close.
func (c *hostClock) seconds(s span) float64 {
	d := c.median
	if vs := within(c.probes, s.from.Add(-probeMargin).UnixNano(), s.to.Add(probeMargin).UnixNano()); len(vs) > 0 {
		d = median(vs)
	}
	return s.wall() * probeNominal.Seconds() / d
}
