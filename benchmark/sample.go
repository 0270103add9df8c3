package main

import "time"

// reading is one value a periodic sampler took.
type reading struct {
	at int64 // Unix ns
	v  float64
}

// sampleEvery calls f at once and then every interval on its own
// goroutine until the returned stop function is called. stop waits for
// the goroutine to end and returns the readings and the error from f
// that ended sampling early, if any.
func sampleEvery(every time.Duration, f func() (float64, error)) (stop func() ([]reading, error)) {
	done, ended := make(chan struct{}), make(chan struct{})
	var (
		readings []reading
		err      error
	)
	go func() {
		defer close(ended)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			var v float64
			if v, err = f(); err != nil {
				return
			}
			readings = append(readings, reading{at: time.Now().UnixNano(), v: v})
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]reading, error) {
		close(done)
		<-ended
		return readings, err
	}
}

// within returns the values read in [from, to] Unix ns.
func within(rs []reading, from, to int64) []float64 {
	var vs []float64
	for _, r := range rs {
		if r.at >= from && r.at <= to {
			vs = append(vs, r.v)
		}
	}
	return vs
}
