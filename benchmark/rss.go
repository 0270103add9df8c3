package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// parseStatusMiB reads a /proc/<pid>/status document and returns the
// named kB field in MiB: VmHWM (peak resident set size) or VmRSS.
func parseStatusMiB(r io.Reader, field string) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", field, sc.Text())
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s line %q: %v", field, sc.Text(), err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line", field)
}

// resetPeakRSS restarts this process's peak resident set size from its
// current resident set size (Linux: write 5 to /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns this process's peak resident set size since start
// or since the last resetPeakRSS.
func peakRSSMiB() (float64, error) { return selfStatusMiB("VmHWM") }

// residentMiB returns this process's resident set size.
func residentMiB() (float64, error) { return selfStatusMiB("VmRSS") }

func selfStatusMiB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusMiB(f, field)
}
