package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileSampleFloor(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		wantQ  float64
		wantV  float64
		wantOK bool
	}{
		{n: 1000, q: 0.99, wantQ: 0.99, wantV: 990, wantOK: true}, // exactly 10 beyond
		{n: 1000, q: 0.50, wantQ: 0.50, wantV: 500, wantOK: true},
		{n: 500, q: 0.99, wantQ: 0.98, wantV: 490, wantOK: true}, // falls back
		{n: 250, q: 0.95, wantQ: 0.95, wantV: 238, wantOK: true}, // 12.5 beyond: kept
		{n: 150, q: 0.95, wantQ: 0.933, wantV: 140, wantOK: true},
		{n: 20, q: 0.99, wantQ: 0.5, wantV: 10, wantOK: true},
		{n: 19, q: 0.5, wantOK: false},
		{n: 0, q: 0.5, wantOK: false},
	} {
		p, ok := percentile(seq(c.n), c.q)
		if ok != c.wantOK {
			t.Fatalf("n=%d q=%v: ok=%v, want %v", c.n, c.q, ok, c.wantOK)
		}
		if p.N != c.n {
			t.Errorf("n=%d: reported N=%d", c.n, p.N)
		}
		if !ok {
			continue
		}
		if math.Abs(p.Q-c.wantQ) > 1e-12 || p.Value != c.wantV {
			t.Errorf("n=%d q=%v: got p%v=%v, want p%v=%v", c.n, c.q, p.Q, p.Value, c.wantQ, c.wantV)
		}
		if beyond := float64(c.n) * (1 - p.Q); beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: only %v samples beyond p%v", c.n, beyond, p.Q)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestValuesEqual(t *testing.T) {
	for _, c := range []struct {
		a, b  float64
		exact bool
		want  bool
	}{
		{1e6, 1e6, true, true},
		{1e6, 1e6 + 1, true, false},
		{1e6, math.Nextafter(1e6, 2e6), true, false}, // exact means bit for bit
		{1e6, math.Nextafter(1e6, 2e6), false, true},
		{1234.5678, 1234.5678 * (1 + 5e-10), false, true},
		{1234.5678, 1234.5678 * (1 + 5e-9), false, false},
		{0, 0, false, true},
		{0, 1e-300, false, false},
		{-2, 2, false, false},
		{math.NaN(), math.NaN(), false, true},
		{math.NaN(), 1, false, false},
	} {
		if got := valuesEqual(c.a, c.b, c.exact); got != c.want {
			t.Errorf("valuesEqual(%v, %v, exact=%v) = %v, want %v", c.a, c.b, c.exact, got, c.want)
		}
	}
}

func TestResidual(t *testing.T) {
	wait, share := residual(2.0, 0.5)
	if wait != 1.5 || share != 0.75 {
		t.Errorf("residual(2, 0.5) = %v, %v; want 1.5, 0.75", wait, share)
	}
	if wait, share := residual(1, 1.25); wait != -0.25 || share != -0.25 {
		t.Errorf("busy beyond the RTT must show as a negative wait: %v, %v", wait, share)
	}
	if _, share := residual(0, 0); share != 0 {
		t.Errorf("zero RTT share = %v", share)
	}
	// busy + wait always adds back up to the RTT.
	for _, c := range [][2]float64{{0.37, 0.11}, {15.3, 2.9}, {1e-3, 4e-4}} {
		if w, _ := residual(c[0], c[1]); math.Abs(c[1]+w-c[0]) > 1e-15 {
			t.Errorf("busy %v + wait %v != rtt %v", c[1], w, c[0])
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"rta_qps", "netproto.event_rtt_ms", "scan-tiered", "p99", "a"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünïcode", "x{y}", long, long[:64] + "\n"} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
	if validName(long[:64]) != nil {
		t.Errorf("64-letter name rejected")
	}
}

// Every name the benchmark can print is legal.
func TestReportedNamesValid(t *testing.T) {
	for _, s := range specs {
		if err := validName(s.name); err != nil {
			t.Error(err)
		}
	}
	w := &window{m0: map[string]float64{}, m1: map[string]float64{}, tr: newTracer()}
	names := map[string]bool{}
	for _, m := range append(endToEnd(specs[0], w, 1, 1), perLayer(specs[0], w, w, &replay{}, 1)...) {
		if err := validName(m.name); err != nil {
			t.Error(err)
		}
		if names[m.name] {
			t.Errorf("metric %q reported twice", m.name)
		}
		names[m.name] = true
	}
}

func TestSubPercentile(t *testing.T) {
	const d = 3 * time.Second
	// Three sub-windows of 100 samples; the middle one holds a stall.
	var xs []float64
	var at []time.Duration
	for k := 0; k < 3; k++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if k == 1 {
				v *= 10
			}
			xs = append(xs, v)
			at = append(at, time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	p, ok := subPercentile(xs, at, d, 0.5, 3)
	if !ok || p.Value != 50 || p.N != 100 || p.Q != 0.5 {
		t.Errorf("p50 = %+v, %v; want 50 over sub-windows of 100", p, ok)
	}
	// 100 samples support only p90 with ten beyond: every slice falls back.
	p, ok = subPercentile(xs, at, d, 0.99, 3)
	if !ok || p.Q != 0.9 || p.Value != 90 {
		t.Errorf("p99 = %+v, %v; want the p90 fallback, median 90", p, ok)
	}
	// A sample stamped at or past the window end lands in the last slice,
	// whose p50 of 101 samples becomes 51.
	xs, at = append(xs, 1e9), append(at, d)
	if p, _ := subPercentile(xs, at, d, 0.5, 3); p.Value != 51 {
		t.Errorf("median with a late sample = %v, want 51", p.Value)
	}
	// A slice with too few samples makes the metric unsupported.
	if _, ok := subPercentile(xs[:150], at[:150], d, 0.5, 3); ok {
		t.Error("a sub-window with too few samples was accepted")
	}
}

func TestMedianRate(t *testing.T) {
	const d = 4 * time.Second
	// 10, 12, 2 (a stall) and 11 samples in the four seconds: the median
	// rate is 10.5, where the mean rate would be 8.75.
	var at []time.Duration
	for k, n := range []int{10, 12, 2, 11} {
		for i := 0; i < n; i++ {
			at = append(at, time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := medianRate(at, d); got != 10.5 {
		t.Errorf("medianRate = %v, want 10.5", got)
	}
	// A sample stamped at the window end counts in the last second, which
	// then ties the busiest: the middle pair is 10 and 12.
	if got := medianRate(append(at, d), d); got != 11 {
		t.Errorf("medianRate with a late sample = %v, want 11", got)
	}
	// A window shorter than a second is one sub-window: the mean rate.
	if got := medianRate(at[:5], 500*time.Millisecond); got != 10 {
		t.Errorf("medianRate over half a second = %v, want 10", got)
	}
}

func TestChunkSizes(t *testing.T) {
	for _, c := range []struct {
		n    int
		mean float64
		want []int
	}{
		{n: 10, mean: 2.5, want: []int{3, 2, 3, 2}},
		{n: 7, mean: 3, want: []int{3, 3, 1}},
		{n: 4, mean: 1.5, want: []int{2, 1, 1}},
		{n: 3, mean: 0, want: []int{1, 1, 1}},          // no observations
		{n: 3, mean: math.NaN(), want: []int{1, 1, 1}}, // undefined
		{n: 0, mean: 4, want: nil},
	} {
		if got := chunkSizes(c.n, c.mean); !slices.Equal(got, c.want) {
			t.Errorf("chunkSizes(%d, %v) = %v, want %v", c.n, c.mean, got, c.want)
		}
	}
	// Over a long run the chunks average the mean.
	got := chunkSizes(100_000, 37.3)
	if m := 100_000 / float64(len(got)); math.Abs(m-37.3) > 0.01 {
		t.Errorf("mean chunk %v, want 37.3", m)
	}
}
