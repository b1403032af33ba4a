package main

import (
	"math"
	"sort"

	"github.com/repro/snowplow/internal/obs"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a percentile with fewer samples beyond it is one outlier, not a tail.
const minBeyond = 10

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least minBeyond
// samples above it, with its percentile rank; ok is false when there are
// too few samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - minBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// sampleQuantile returns quantile q of xs, capped at the highest rank
// with minBeyond samples above it (and at the median for small samples).
func sampleQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if lim := n - minBeyond - 1; i > lim {
		i = max(lim, (n-1)/2)
	}
	return s[max(i, 0)]
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histQuantile estimates quantile q of an obs histogram snapshot by linear
// interpolation inside the bucket that holds it. The rank is capped so that
// at least minBeyond observations lie above it; the returned q is the
// quantile actually estimated. Values in the overflow bucket read as the
// last finite bound.
func histQuantile(m obs.Metric, q float64) (value, usedQ float64) {
	if m.Count == 0 {
		return 0, q
	}
	n := float64(m.Count)
	if maxQ := 1 - minBeyond/n; q > maxQ {
		q = math.Max(maxQ, 0.5)
	}
	rank := q * n
	var cum, lo float64
	for _, b := range m.Buckets {
		hi := float64(b.Le)
		if b.Le == math.MaxInt64 {
			return lo, q
		}
		c := float64(b.Count)
		if cum+c >= rank && c > 0 {
			return lo + (hi-lo)*(rank-cum)/c, q
		}
		cum += c
		lo = hi
	}
	return lo, q
}

// mergeSnapshots folds registry snapshots into one: counters, gauges and
// histogram buckets add up, so the result is the run total over every
// traced operation (each of which got its own registry).
func mergeSnapshots(total map[string]obs.Metric, snap []obs.Metric) {
	for _, m := range snap {
		t, ok := total[m.Name]
		if !ok {
			t = obs.Metric{Name: m.Name, Kind: m.Kind, Unit: m.Unit}
			for _, b := range m.Buckets {
				t.Buckets = append(t.Buckets, obs.Bucket{Le: b.Le})
			}
		}
		t.Value += m.Value
		t.Sum += m.Sum
		t.Count += m.Count
		for i, b := range m.Buckets {
			if i < len(t.Buckets) {
				t.Buckets[i].Count += b.Count
			}
		}
		total[m.Name] = t
	}
}
