package main

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if !math.IsNaN(geomean(xs)) {
			t.Errorf("geomean(%v) should be NaN", xs)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	if _, ok := percentile(seq(99), 0.90); ok {
		t.Error("p90 of 99 samples has only 9.9 beyond it and must not be reported")
	}
	if v, ok := percentile(seq(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(seq(20), 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.50); ok {
		t.Error("p50 of 19 samples has 9.5 beyond it and must not be reported")
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\tirgrid-bench\nVmPeak:\t 2000000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    5120 kB\n"
	got, err := parseStatusMiB(strings.NewReader(status), "VmHWM")
	if err != nil || got != 10 {
		t.Fatalf("VmHWM = %v, %v; want 10 MiB", got, err)
	}
	if got, err := parseStatusMiB(strings.NewReader(status), "VmRSS"); err != nil || got != 5 {
		t.Fatalf("VmRSS = %v, %v; want 5 MiB", got, err)
	}
	for _, bad := range []string{
		"VmRSS:\t 5120 kB\n",
		"VmHWM:\t 5120\n",
		"VmHWM:\t x kB\n",
		"VmHWM:\t 5120 MB\n",
	} {
		if _, err := parseStatusMiB(strings.NewReader(bad), "VmHWM"); err == nil {
			t.Errorf("parseStatusMiB(%q) accepted malformed input", bad)
		}
	}
	if _, err := peakRSSMiB(); err != nil {
		t.Errorf("peakRSSMiB on this process: %v", err)
	}
}

func TestHostClockSeconds(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(d time.Duration) int64 { return t0.Add(d).UnixNano() }
	c := &hostClock{
		// Probes at twice probeNominal around the start, at half of it
		// ten seconds in.
		probes: []reading{{at(0), 0.004}, {at(time.Second), 0.004}, {at(10 * time.Second), 0.001}},
		median: 0.004,
	}
	for _, tc := range []struct {
		from time.Duration
		want float64
	}{
		{0, 0.5},               // a slow host halves the wall time
		{10 * time.Second, 2},  // a fast host doubles it
		{5 * time.Second, 0.5}, // no probe within probeMargin: the run's median
	} {
		s := span{t0.Add(tc.from), t0.Add(tc.from + time.Second)}
		if got := c.seconds(s); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("seconds of 1 s at +%v = %v, want %v", tc.from, got, tc.want)
		}
	}
}

// TestSpeedProbeDoesNotAllocate averages over 100 runs, so that a
// stray allocation by a goroutine another test left winding down does
// not count as the probe's.
func TestSpeedProbeDoesNotAllocate(t *testing.T) {
	p := new(speedProbe)
	if n := testing.AllocsPerRun(100, func() { p.run() }); n != 0 {
		t.Errorf("the speed probe allocates %v times per run", n)
	}
}

// TestHostClockKeepsAnOpsOwnSlowdown runs, alternately while the speed
// probe runs, a busy loop, the same loop twice over, and the same loop
// while churning through a 64 MiB live heap. Host normalization must
// keep a fixed slowdown of the op (the doubled loop reads about twice
// as long, not 1 as it would if the probe absorbed it) and must not
// absorb garbage-collection pressure the op causes (the churning op's
// normalized ratio to the plain one stays near its wall-clock ratio).
// The tolerances leave room for a shared host's speed changing between
// probes.
func TestHostClockKeepsAnOpsOwnSlowdown(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sink uint64
	busy := func(n int) {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	}
	const n = 100_000_000 // about 0.1 s
	live := make([][]byte, 1024)
	ops := []func(){
		func() { busy(n) },
		func() { busy(2 * n) },
		func() {
			for i := 0; i < 256; i++ {
				busy(n / 256)
				for j := 0; j < 64; j++ {
					live[(i*64+j)%len(live)] = make([]byte, 64<<10)
				}
			}
		},
	}
	stop := startHostClock()
	spans := make([][]span, len(ops))
	for r := 0; r < 9; r++ {
		for k, op := range ops {
			t0 := time.Now()
			op()
			spans[k] = append(spans[k], spanSince(t0))
		}
	}
	c := stop()
	ratio := func(k int, seconds func(span) float64) float64 {
		return median(mapSpans(spans[k], seconds)) / median(mapSpans(spans[0], seconds))
	}
	if got := ratio(1, c.seconds); math.Abs(got/2-1) > 0.2 {
		t.Errorf("doubled op reads %.3f times the plain one after normalization, want 2 (wall clock %.3f)", got, ratio(1, span.wall))
	}
	if got, wall := ratio(2, c.seconds), ratio(2, span.wall); math.Abs(got/wall-1) > 0.2 {
		t.Errorf("churning op reads %.3f times the plain one after normalization, %.3f on the wall clock", got, wall)
	}
	t.Logf("normalized/wall ratios: doubled %.3f/%.3f, churning %.3f/%.3f (sink %d)",
		ratio(1, c.seconds), ratio(1, span.wall), ratio(2, c.seconds), ratio(2, span.wall), sink%2)
}
