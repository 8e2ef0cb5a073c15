package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastQuartile is the statistic every end-to-end timing is reported as: the
// quartile on the fast side of the pieces a run is timed in. Interference
// from other tenants of a shared host only ever adds time, and it comes in
// episodes longer than a piece, so the quarter of the pieces least touched
// by it repeats between runs of one commit where their median does not
// (measured on the 2-vCPU reference VM: 4-14% against 14-23%). It is an
// order statistic, not interpolated, so with the two to four pieces of an
// LA-scale part it is the best of them. The table still prints the median
// and the tail beside it.
func fastQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// fastQuartileRate is fastQuartile for pieces that are rates.
func fastQuartileRate(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-1-(len(s)-1)/4]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance driver computes its spreads from. With fewer than two values
// both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailPercentile picks the highest of a fixed ladder of percentiles that
// still has at least ten samples beyond it, so a reported tail is never
// one or two outliers. ok is false when even p75 has fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille)/1000 >= 10 {
			return float64(permille) / 10, true
		}
	}
	return 0, false
}

// timing summarises a set of durations: median, the tail percentile the
// sample count supports, and n.
type timing struct {
	N      int
	Median float64
	TailP  float64 // 0 when n is too small for any tail
	Tail   float64
	Max    float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if len(xs) == 0 {
		return t
	}
	t.Max = quantile(xs, 1)
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, quantile(xs, p/100)
	}
	return t
}

// tailLabel renders median and tail for the human table: "med=1.1 p99=1.23",
// or "max=…" when the sample is too small to name a percentile honestly.
func (t timing) tailLabel(scale float64) string {
	if t.N == 0 {
		return "-"
	}
	if t.TailP == 0 {
		return fmt.Sprintf("med=%.4g max=%.4g", t.Median*scale, t.Max*scale)
	}
	return fmt.Sprintf("med=%.4g p%g=%.4g", t.Median*scale, t.TailP, t.Tail*scale)
}

// durationsTo converts durations into a float unit (per = time.Millisecond
// gives milliseconds).
func durationsTo(ds []time.Duration, per time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(per)
	}
	return out
}
