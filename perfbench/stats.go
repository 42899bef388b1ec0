package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the convention of numpy's default and of Python's
// statistics.quantiles with method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell-Davis estimate of the q-quantile: the mean of
// all order statistics, the i-th of n weighted by the Beta((n+1)q,
// (n+1)(1-q)) density at (i+0.5)/n. Where q falls in the gap between two
// programs' latencies, a quantile of one or two order statistics takes
// the slowest job of one program or the fastest of the next; this one
// averages the jobs around the gap instead.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	logw := make([]float64, n)
	top := math.Inf(-1)
	for i := range s {
		t := (float64(i) + 0.5) / float64(n)
		logw[i] = (a-1)*math.Log(t) + (b-1)*math.Log1p(-t)
		top = math.Max(top, logw[i])
	}
	var sum, wsum float64
	for i, x := range s {
		w := math.Exp(logw[i] - top)
		sum += w * x
		wsum += w
	}
	return sum / wsum
}

// gmean is the geometric mean of positive values; it weighs a 2x change
// on a 3 ms program the same as on a 1.5 s one.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	u, s := userSys()
	return u + s
}

// userSys is the process's user and system CPU time so far, in seconds.
func userSys() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// gcCycles is the number of completed GC cycles so far.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs reads the cumulative heap bytes allocated (the figure
// runtime.MemStats.TotalAlloc reports) without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

var epoch = time.Now()

// nowNS is a monotonic clock in nanoseconds.
func nowNS() int64 { return time.Since(epoch).Nanoseconds() }
