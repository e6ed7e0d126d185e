package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below
// it. It never interpolates, so every reported latency is a latency a
// client actually saw. xs must be non-empty; it is not modified.
func quantile(xs []time.Duration, q float64) time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// counters is one flat scrape of a JSON /metrics document: every
// numeric key, as float64.
type counters map[string]float64

// delta returns end − start for key.
func delta(start, end counters, key string) float64 { return end[key] - start[key] }

// windowMean is the mean of the latencies a process observed inside
// the window, from its cumulative count and mean at both ends:
// (mean₁·n₁ − mean₀·n₀) / (n₁ − n₀). The JSON documents carry means in
// whole microseconds, so the result is exact to about a microsecond.
func windowMean(start, end counters) (us float64, n float64) {
	n = delta(start, end, "latency_count")
	if n <= 0 {
		return 0, 0
	}
	sum := end["latency_mean_us"]*end["latency_count"] - start["latency_mean_us"]*start["latency_count"]
	return sum / n, n
}

// ratio is a share with its base, so no ratio is ever reported without
// the count it was taken over.
type ratio struct {
	num, base float64
}

func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string { return fmt.Sprintf("%.4f (%g/%g)", r.value(), r.num, r.base) }
