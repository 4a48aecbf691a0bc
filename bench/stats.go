package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailQuantile is the highest percentile, capped at the 99th, that still has
// at least ten samples beyond it.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func nsToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// memCounters are the process-wide allocation totals a delta is taken over.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc}
}

// liveHeapMB is the heap still reachable after a forced collection. The second
// collection frees what finalizers of the first released.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// perCall times fn in batches and returns the median nanoseconds of one call
// and the allocations of one call. Batching keeps the clock's own cost out of
// kernels that take tens of nanoseconds; fn(i) runs call number i.
func perCall(calls, batch int, fn func(i int)) (ns, allocs float64) {
	if calls == 0 {
		return 0, 0
	}
	if batch > calls {
		batch = calls
	}
	per := make([]float64, 0, calls/batch)
	before := readMem()
	for i := 0; i+batch <= calls; i += batch {
		t0 := time.Now()
		for j := i; j < i+batch; j++ {
			fn(j)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	after := readMem()
	done := len(per) * batch
	return median(per), float64(after.mallocs-before.mallocs) / float64(done)
}
