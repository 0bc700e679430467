// Package hotpathfix exercises the hotpath analyzer on the syntax of
// the loop itself: the innermost loops of functions annotated
// //lint:hotpath may not allocate. The hotpathcalls fixture covers the
// effects reached through module calls and the blocking operations.
package hotpathfix

import "fmt"

// Dot is a clean annotated kernel: no allocation in the loop.
//
//lint:hotpath
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Alloc allocates per iteration in every way the analyzer flags.
//
//lint:hotpath
func Alloc(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		buf := make([]float64, len(r)) // want hotpath "make inside the innermost loop"
		copy(buf, r)
		out = append(out, buf...)         // want hotpath "append inside the innermost loop"
		name := fmt.Sprintf("%d", len(r)) // want hotpath "fmt.Sprintf inside the innermost loop"
		_ = name
	}
	return out
}

// Box converts to an interface type inside the innermost loop.
//
//lint:hotpath
func Box(vals []int) int {
	n := 0
	for _, v := range vals {
		n += sink(any(v)) // want hotpath "boxes the value"
	}
	return n
}

func sink(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// Hoisted allocates only in the outer loop; the innermost loop is
// clean, so nothing is flagged.
//
//lint:hotpath
func Hoisted(rows [][]float64) []float64 {
	sums := make([]float64, 0, len(rows))
	for _, r := range rows {
		buf := make([]float64, 1)
		for _, v := range r {
			buf[0] += v
		}
		sums = append(sums, buf[0])
	}
	return sums
}

// Stale carries the directive but has no loops.
//
//lint:hotpath
func Stale() float64 { // want hotpath "without loops; drop the stale annotation"
	return 1
}

// Unannotated allocates freely: no directive, no findings.
func Unannotated(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// Waived allocates once per iteration under an explicit waiver.
//
//lint:hotpath
func Waived(rows [][]float64) int {
	n := 0
	for _, r := range rows {
		//lint:ignore hotpath fixture demonstrates an accepted suppression
		buf := make([]float64, len(r))
		n += len(buf)
	}
	return n
}
