package main

import (
	"runtime"
	"sync"
	"time"
)

// refKernel is a fixed piece of work, timed next to every set-up and
// op, that measures how fast the host runs at that moment. On a shared
// host the speed of the same code drifts by tens of percent over
// minutes (other tenants' load changes clock rates and cache and memory
// contention), far more than a 25% regression bound allows between
// runs. Scaling a set-up's or op's wall-clock time by the kernel's time
// next to it cancels most of that drift; the raw times stay in the run
// record. The kernel lives in the benchmark, so no change to the
// pipeline moves it.
//
// Like an op at two ranks, it runs on two goroutines, and it mixes the
// op's kinds of work: a dependent floating-point chain, a stream over
// an array larger than a typical cache share, and a pointer chase
// through it. One run takes about 0.15 s.
type refKernel struct {
	next []int32
	// sink keeps the results live, so the compiler drops no work.
	sink float64
}

const (
	// refNominalS is the kernel's time at the reference speed, about its
	// median on a 2-core Xeon VM: a time measured while the kernel took
	// refNominalS is reported unscaled.
	refNominalS   = 0.15
	refWorkers    = 2
	refArrayLen   = 1 << 23 // 32 MiB of int32
	refFlops      = 20_000_000
	refStreams    = 8
	refChaseSteps = 250_000
)

// newRefKernel builds the kernel's array: a permutation of the indices
// that forms one cycle through all of them (Sattolo's shuffle driven by
// a fixed xorshift sequence), so the pointer chase never settles into a
// short cycle that fits in cache. It is the same on every run.
func newRefKernel() *refKernel {
	next := make([]int32, refArrayLen)
	for i := range next {
		next[i] = int32(i)
	}
	x := uint32(12345)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i))
		next[i], next[j] = next[j], next[i]
	}
	return &refKernel{next: next}
}

// seconds collects the heap, so no leftover garbage collection of the
// previous op runs inside the timing, then runs the kernel once and
// returns its wall-clock time in seconds.
func (k *refKernel) seconds() float64 {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	out := make([]float64, refWorkers)
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, x := 0.0, 1.0+float64(w)
			for i := 0; i < refFlops; i++ {
				x = x*1.0000001 + 1e-9
				s += x
			}
			part := k.next[w*refArrayLen/refWorkers : (w+1)*refArrayLen/refWorkers]
			for r := 0; r < refStreams; r++ {
				for _, v := range part {
					s += float64(v)
				}
			}
			j := int32(w)
			for i := 0; i < refChaseSteps; i++ {
				j = k.next[j]
			}
			out[w] = s + float64(j)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for _, v := range out {
		k.sink += v
	}
	return elapsed
}

// atRefSpeed scales each wall-clock time walls[i] to the reference
// speed: by refNominalS over the mean of the kernel times measured just
// before and just after it, refs[i] and refs[i+1]. refs therefore holds
// one more value than walls.
func atRefSpeed(walls, refs []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = w * refNominalS / ((refs[i] + refs[i+1]) / 2)
	}
	return out
}
