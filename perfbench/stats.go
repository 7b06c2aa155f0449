package main

import (
	"errors"
	"math"
	"sort"
)

// minBeyond is the number of samples a percentile must have beyond it
// before it is reported: with fewer, the value is one or two outliers,
// not a property of the distribution.
const minBeyond = 10

// errTooFewSamples is returned for a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses (errTooFewSamples) when fewer than minBeyond samples lie beyond
// the rank. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, errTooFewSamples
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), sorting xs in place; 0 for an empty slice.
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

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, each the nearest-rank value. It sorts xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	n := len(xs)
	return xs[n/4], median(xs), xs[(3*n)/4]
}
