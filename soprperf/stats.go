package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples would rest on fewer than
// ten observations, so the tail falls back to the highest percentile the
// sample supports.
const minBeyond = 10

// dist is a latency sample in milliseconds.
type dist []float64

func (d *dist) add(x time.Duration) { *d = append(*d, float64(x)/float64(time.Millisecond)) }

// median returns the middle value (the mean of the two middle values for
// an even count) and false for an empty sample.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// tail returns the value at percentile want (0 < want < 100) or, when the
// sample is too small for that, at the highest percentile that still has
// minBeyond samples above it. It also returns the percentile actually
// reported. ok is false when fewer than minBeyond+1 samples exist.
func tail(xs []float64, want float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(want/100*float64(n))) - 1
	if idx > n-minBeyond-1 {
		idx = n - minBeyond - 1
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metric is one reported figure. Pct and Samples describe the sample a
// percentile was taken from (zero for other metrics).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Pct     float64 `json:"percentile,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// latencyMetrics reports a sample's median and tails as <prefix>_p50_ms,
// <prefix>_p90_ms and <prefix>_p99_ms.
func latencyMetrics(prefix string, d dist) ([]metric, error) {
	p50, ok := median(d)
	if !ok {
		return nil, fmt.Errorf("%s: no samples", prefix)
	}
	ms := []metric{{Name: prefix + "_p50_ms", Value: p50, Unit: "ms", Pct: 50, Samples: len(d)}}
	for _, want := range []float64{90, 99} {
		v, pct, ok := tail(d, want)
		if !ok {
			return nil, fmt.Errorf("%s: %d samples, need more than %d for a tail percentile", prefix, len(d), minBeyond)
		}
		ms = append(ms, metric{Name: fmt.Sprintf("%s_p%g_ms", prefix, want), Value: v, Unit: "ms", Pct: pct, Samples: len(d)})
	}
	return ms, nil
}
