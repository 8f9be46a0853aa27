package main

import (
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile picks the highest candidate percentile that has at
// least ten samples beyond it and returns its label (e.g. "p90") and
// value. ok is false when no candidate qualifies: a tail estimated from
// fewer samples is omitted rather than reported.
func tailPercentile(xs []float64) (label string, v float64, ok bool) {
	for _, p := range tailPercentiles {
		beyond := float64(len(xs)) * (1 - p/100)
		if beyond >= 10-1e-9 {
			return "p" + strings.TrimSuffix(strconv.FormatFloat(p, 'f', -1, 64), ".0"), quantile(xs, p/100), true
		}
	}
	return "", 0, false
}

// outcome is what the benchmark observed for one attempted op.
type outcome struct {
	// err is a transport or simulation error.
	err error
	// status is the HTTP status of the op's decisive response (0 for
	// ops that make no HTTP request).
	status int
	// jobState is the final state of the op's serve job ("" when the op
	// runs no job).
	jobState string
	// mismatch marks simulated outputs that differ from the reference
	// or from an earlier run of the same inputs.
	mismatch bool
}

// failed reports whether the op counts against failed_frac: an error,
// a non-2xx response (429 backpressure included), a failed job, or a
// simulated-output mismatch.
func (o outcome) failed() bool {
	switch {
	case o.err != nil, o.mismatch:
		return true
	case o.status != 0 && (o.status < http.StatusOK || o.status >= http.StatusMultipleChoices):
		return true
	case o.jobState == "failed":
		return true
	}
	return false
}

// tally counts attempted and failed ops.
type tally struct{ attempted, failed int }

func (t *tally) add(o outcome) {
	t.attempted++
	if o.failed() {
		t.failed++
	}
}

// maxRSSMB reads the process's peak resident set size (VmHWM).
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
