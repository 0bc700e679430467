// Package hotcallfix exercises the hotpath analyzer through the module
// call graph: the innermost loops of functions annotated //lint:hotpath
// may not allocate, lock or block through any chain of module calls
// (transitive effect summaries), nor block or spawn in the loop body.
package hotcallfix

import (
	"sync"
	"time"
)

var mu sync.Mutex

// square is effect-free: calls to it from a hot loop are fine.
func square(x float64) float64 { return x * x }

// tally locks; any hot loop reaching it inherits the effect.
func tally(x float64) float64 {
	mu.Lock()
	defer mu.Unlock()
	return x
}

// deep -> deeper -> tally is the three-edge chain the finding must
// spell out.
func deep(x float64) float64 { return deeper(x) }

func deeper(x float64) float64 { return tally(x) }

// grow allocates via append, one frame away from the loop.
func grow(xs []float64) []float64 { return append(xs, 1) }

// Kernel only reaches effect-free code: clean.
//
//lint:hotpath
func Kernel(xs []float64) float64 {
	s := 0.0
	for i := range xs {
		s += square(xs[i])
	}
	return s
}

// BadKernel reaches a lock three calls down.
//
//lint:hotpath
func BadKernel(xs []float64) float64 {
	s := 0.0
	for i := range xs {
		s += deep(xs[i]) // want hotpath "hotcallfix.deep -> hotcallfix.deeper -> hotcallfix.tally: sync.Mutex.Lock"
	}
	return s
}

// GrowKernel reaches an allocation the loop's own syntax does not show
// (the append is in the callee, not the loop).
//
//lint:hotpath
func GrowKernel(xs []float64) float64 {
	s := 0.0
	for i := range xs {
		xs = grow(xs) // want hotpath "reaches code that allocates: hotcallfix.grow: append"
		s += xs[i]
	}
	return s
}

// ChanKernel blocks directly in the loop body.
//
//lint:hotpath
func ChanKernel(xs []float64, ch chan float64) float64 {
	s := 0.0
	for _, x := range xs {
		ch <- x // want hotpath "channel send"
		s += x
	}
	return s
}

// SleepKernel calls a blocking stdlib function per iteration.
//
//lint:hotpath
func SleepKernel(xs []float64) {
	for range xs {
		time.Sleep(time.Millisecond) // want hotpath "time.Sleep"
	}
}

// SpawnKernel launches a goroutine per iteration.
//
//lint:hotpath
func SpawnKernel(xs []float64) {
	for _, x := range xs {
		go square(x) // want hotpath "spawns a goroutine per iteration"
	}
}

// Staged keeps its effects in the outer loop: per-cycle setup (the
// deep call) is sanctioned, only the innermost loop is budgeted.
//
//lint:hotpath
func Staged(xs [][]float64) float64 {
	s := 0.0
	for _, row := range xs {
		s += deep(0)
		for _, x := range row {
			s += square(x)
		}
	}
	return s
}
