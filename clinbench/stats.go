package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) and NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the quartiles in the run record match those
// spread.py computes. Fewer than two values have no spread: both
// quartiles are then the single value (NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is the per-metric sample record of one run: the reported
// median, the quartiles around it and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// tally accounts ops by the fail rules: every attempted op counts once,
// and a failed op counts once however many rules it breaks.
type tally struct {
	attempted int
	failed    int
	// reasons counts failures by their first broken rule.
	reasons map[string]int
}

func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// failRatio is failed over attempted ops (0 before any op).
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// attribute splits the wall-clock time wallMS of one traced op whose
// stages took stageMS, given the in-op layer time replayed per stage.
// Each stage's gap is its time minus its replayed layers, so a stage the
// replay covers only partly shows the rest as its gap, and a layer timed
// slower in the replay than in the op makes the gap negative.
// unattributed is the op time outside every stage. The replayed layers,
// the gaps and unattributed add up to wallMS.
func attribute(wallMS float64, stageMS, layerMS map[string]float64) (gapMS map[string]float64, unattributed float64) {
	gapMS = map[string]float64{}
	unattributed = wallMS
	for stage, ms := range stageMS {
		gapMS[stage] = ms - layerMS[stage]
		unattributed -= ms
	}
	return gapMS, unattributed
}
