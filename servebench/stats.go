package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// summary is the latency distribution of one operation kind.
type summary struct {
	n    int
	p50  float64 // ms
	tail float64 // ms
	// tailPct is the percentile the tail was read at.
	tailPct float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// summarize reads the median and the highest percentile with at least
// tailBeyond samples above it. With too few samples for that the tail is
// the maximum.
func summarize(lat []time.Duration) summary {
	n := len(lat)
	if n == 0 {
		return summary{}
	}
	s := make([]float64, n)
	for i, d := range lat {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	out := summary{n: n, p50: quantile(s, 0.5)}
	if n > tailBeyond {
		out.tail = s[n-1-tailBeyond]
		out.tailPct = 100 * float64(n-tailBeyond) / float64(n)
	} else {
		out.tail = s[n-1]
		out.tailPct = 100
	}
	return out
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}
