package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported; below that the estimate is a handful of outliers.
const minBeyond = 10

// pct is a percentile taken from a sample, with the percentile actually
// used (after the sample-size fallback) and the sample count.
type pct struct {
	Value float64
	Q     float64 // percentile used, in (0,1)
	N     int
}

// percentile returns the q-th percentile (nearest rank) of samples, q in
// steps of 0.001. When fewer than minBeyond samples lie beyond q it falls
// back to the highest percentile that leaves minBeyond beyond it. ok is
// false when even the median is unsupported (fewer than 2*minBeyond
// samples). samples is sorted in place.
func percentile(samples []float64, q float64) (p pct, ok bool) {
	n := len(samples)
	p.N = n
	if n < 2*minBeyond {
		return p, false
	}
	qm := int(math.Round(q * 1000)) // per mille, so ranks are exact integers
	if n*(1000-qm) < minBeyond*1000 {
		qm = (n - minBeyond) * 1000 / n
	}
	sort.Float64s(samples)
	rank := (qm*n + 999) / 1000
	p.Value, p.Q = samples[max(rank, 1)-1], float64(qm)/1000
	return p, true
}

// subPercentile splits samples by their offset into the window of length
// d into n equal slices, takes the q-th percentile of each, and returns
// their median, so a slice with an unusual stall moves it less than a
// pooled percentile would. The returned pct has the smallest slice's count
// and the lowest percentile any slice fell back to; ok is false when any
// slice lacks the samples for a median.
func subPercentile(xs []float64, at []time.Duration, d time.Duration, q float64, n int) (p pct, ok bool) {
	slices := make([][]float64, n)
	for i, x := range xs {
		k := int(int64(at[i]) * int64(n) / int64(d))
		k = min(max(k, 0), n-1)
		slices[k] = append(slices[k], x)
	}
	vals := make([]float64, 0, n)
	p.N, p.Q = len(xs), q
	for _, s := range slices {
		sp, sok := percentile(s, q)
		if !sok {
			return pct{N: min(p.N, len(s))}, false
		}
		vals = append(vals, sp.Value)
		p.N, p.Q = min(p.N, sp.N), min(p.Q, sp.Q)
	}
	p.Value = median(vals)
	return p, true
}

// median returns the median of xs (mean of the middle pair for even
// lengths), or 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// floatTol is the relative tolerance for float aggregates whose summation
// order differs between the server and the replay.
const floatTol = 1e-9

// valuesEqual compares one aggregate value. Exact values (counts and
// aggregates over integer attributes) must match bit for bit; others may
// differ by floatTol relative to the larger magnitude.
func valuesEqual(a, b float64, exact bool) bool {
	if exact || a == b {
		return a == b
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= floatTol*scale
}

// residual splits a measured round-trip time into the replayed busy time
// and the remaining wait, and reports the wait's share of the RTT. A
// negative wait means the replay found more work than the RTT can hold.
func residual(rtt, busy float64) (wait, share float64) {
	wait = rtt - busy
	if rtt > 0 {
		share = wait / rtt
	}
	return wait, share
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) error {
	if !metricName.MatchString(s) {
		return fmt.Errorf("bad name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s)
	}
	return nil
}

// chunkSizes splits n items into consecutive chunks whose sizes average
// mean: chunk i ends at item round(i·mean), so a mean of 2.5 gives 3, 2,
// 3, 2, ... Every chunk holds at least one item and the last may be short.
// A mean below 1, as from a histogram with no observations, gives chunks
// of one.
func chunkSizes(n int, mean float64) []int {
	if !(mean >= 1) {
		mean = 1
	}
	var out []int
	for i, done := 1, 0; done < n; i++ {
		end := min(n, max(done+1, int(math.Round(float64(i)*mean))))
		out = append(out, end-done)
		done = end
	}
	return out
}
