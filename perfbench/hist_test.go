package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestHistQuantile checks the histogram's quantiles against exact ones on
// the same samples: each must lie within a bucket's width (1/histSub) of
// the exact value.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 11, 1000, 100000} {
		var h hist
		exact := make([]float64, n)
		for i := range exact {
			d := time.Duration(math.Exp(rng.Float64()*20)) + 30*time.Microsecond
			h.add(d)
			exact[i] = float64(d) / float64(time.Millisecond)
		}
		slices.Sort(exact)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got, want := h.quantileMS(q), quantile(exact, q)
			if math.Abs(got-want) > want/histSub {
				t.Errorf("n=%d q=%g: histogram %.6f ms, exact %.6f ms", n, q, got, want)
			}
		}
	}
}

func TestBucketRangeInvertsBucketOf(t *testing.T) {
	for _, ns := range []int64{0, 1, 255, 256, 257, 511, 512, 1000, 123456789, 1 << 35} {
		lo, width := bucketRange(bucketOf(time.Duration(ns)))
		if float64(ns) < lo || float64(ns) >= lo+width {
			t.Errorf("%d ns falls in bucket [%g, %g)", ns, lo, lo+width)
		}
	}
}
