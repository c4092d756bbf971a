package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the two closest ranks (Hyndman & Fan type 7, the
// default of numpy and R). Every percentile the benchmark reports comes from
// raw samples it timed itself through this function: the program's own
// obs.Histogram quantiles carry up to one bucket (~26%) of error. An empty
// sample set has no percentile and yields NaN, which the result check
// refuses.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// midmean is the mean of the middle half of xs: the sorted samples without
// the lowest and the highest quarter (n/4 rounded down from each end). Over
// a sample set made of clusters, such as daemon jobs of very different
// kernels, it moves smoothly with every sample, where the median jumps from
// one cluster's edge to the next's when a few samples trade ranks; like the
// median, it ignores the tails.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

// errorFrac is failed operations over attempted ones. Failures are kernel
// runs returning an error, non-2xx daemon responses, jobs carrying a
// failures list and fatal stream errors; a run with nothing attempted has
// no defined fraction.
func errorFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
