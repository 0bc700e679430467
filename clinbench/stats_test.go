package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/solver"
	"repro/internal/volume"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{2, 8, 4}, 2, 4, 8},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if m := median(tc.xs); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median/quartiles reordered their input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median(nil) is not NaN")
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.N != 4 || s.Median != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestAtRefSpeedScalesByTheBracketingKernelTimes(t *testing.T) {
	// Time i is bracketed by refs[i] and refs[i+1]; a kernel time of
	// refNominalS leaves a time unscaled.
	n := refNominalS
	got := atRefSpeed([]float64{2, 4, 3}, []float64{n, n, 2 * n, 4 * n})
	want := []float64{2, 4.0 / 1.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("atRefSpeed = %v, want %v", got, want)
		}
	}
}

func TestTallyCountsEachFailedOpOnce(t *testing.T) {
	var tl tally
	if tl.failRatio() != 0 {
		t.Fatalf("failRatio before any op = %v, want 0", tl.failRatio())
	}
	for _, reason := range []string{"", failDegraded, "", failNoGain, failNoGain, ""} {
		tl.add(reason)
	}
	if tl.attempted != 6 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3", tl.attempted, tl.failed)
	}
	if got := tl.failRatio(); got != 0.5 {
		t.Errorf("failRatio = %v, want 0.5", got)
	}
	if tl.reasons[failNoGain] != 2 || tl.reasons[failDegraded] != 1 || len(tl.reasons) != 2 {
		t.Errorf("reasons = %v", tl.reasons)
	}
}

func TestAttributionGapsAndRemainder(t *testing.T) {
	stages := map[string]float64{"classify": 800, "surface": 300, "biomech": 500}
	layers := map[string]float64{"classify": 850, "surface": 290, "biomech": 450, "rigid": 99}
	gapMS, unattributed := attribute(1700, stages, layers)
	want := map[string]float64{"classify": -50, "surface": 10, "biomech": 50}
	for s, g := range want {
		if math.Abs(gapMS[s]-g) > 1e-9 {
			t.Errorf("gap[%s] = %v, want %v", s, gapMS[s], g)
		}
	}
	if _, ok := gapMS["rigid"]; ok {
		t.Errorf("a layer of a stage the op did not run got a gap")
	}
	if math.Abs(unattributed-100) > 1e-9 {
		t.Errorf("unattributed = %v, want 100", unattributed)
	}
}

func TestReplayFoldsInOpCallsBeforeBaselineCalls(t *testing.T) {
	rp := &replay{rec: newRecorder("test")}
	rp.enter("surface")
	call := func(metric string, inOp bool, v float64) {
		rp.samples = append(rp.samples, sample{metric: metric, stage: rp.stage, inOp: inOp, value: v})
	}
	// A cold op calls both evolutions; a stream op only the second.
	call("surface.evolve_ms", false, 40)
	call("surface.evolve_ms", true, 10)
	call("edt.saturated_ms", false, 7)
	rp.set("surface.evolve.iters", 5)
	m := rp.metrics()
	if m["surface.evolve_ms"] != 10 {
		t.Errorf("evolve = %v, want the in-op call's 10", m["surface.evolve_ms"])
	}
	if m["edt.saturated_ms"] != 7 {
		t.Errorf("saturated = %v, want the baseline's 7 for a layer the op skipped", m["edt.saturated_ms"])
	}
	if by := rp.inOpByStage(); by["surface"] != 10 || len(by) != 1 {
		t.Errorf("inOpByStage = %v, want surface: 10 only", by)
	}
}

func TestStreamWalksWholePeriods(t *testing.T) {
	b := &bench{kind: streamUpdate, scans: make([]scan, streamScans), pos: 1, step: 1}
	var shifts []int
	for i := 0; i < 2*(streamScans-1); i++ {
		if i > 0 && b.periodDone() {
			t.Fatalf("period done after %d ops", i)
		}
		shifts = append(shifts, b.pos)
		b.advance()
	}
	if !b.periodDone() {
		t.Errorf("period not done after %d ops (positions %v)", len(shifts), shifts)
	}
	for i := 1; i < len(shifts); i++ {
		if d := shifts[i] - shifts[i-1]; d != 1 && d != -1 {
			t.Errorf("positions %v: a step of %d scans", shifts, d)
		}
	}
}

func TestCheckAppliesFailRulesInOrder(t *testing.T) {
	g := volume.NewGrid(2, 2, 1, 1)
	truth := volume.NewField(g)
	for i := range truth.DX {
		truth.DX[i] = 2
	}
	near := volume.NewField(g)
	for i := range near.DX {
		near.DX[i] = 1.5
	}
	good := func() *core.Result {
		return &core.Result{
			SolveStats:        solver.Stats{Converged: true},
			NodeDisplacements: []geom.Vec3{geom.V(0.5, 0, 0)},
			Backward:          near,
			Incremental:       true,
		}
	}
	for _, tc := range []struct {
		name        string
		err         error
		edit        func(r *core.Result)
		incremental bool
		want        string
	}{
		{"passing", nil, func(*core.Result) {}, true, ""},
		{"error", errors.New("boom"), nil, false, failError},
		{"degraded beats unconverged", nil, func(r *core.Result) {
			r.Degraded = true
			r.SolveStats.Converged = false
		}, false, failDegraded},
		{"unconverged", nil, func(r *core.Result) { r.SolveStats.Converged = false }, false, failUnconverged},
		{"non-finite", nil, func(r *core.Result) { r.NodeDisplacements[0].Y = math.NaN() }, false, failNonFinite},
		{"rigid-only field", nil, func(r *core.Result) { r.Backward = volume.NewField(g) }, false, failNoGain},
		{"cold result on the stream", nil, func(r *core.Result) { r.Incremental = false }, true, failNotIncr},
		{"cold result elsewhere", nil, func(r *core.Result) { r.Incremental = false }, false, ""},
	} {
		o := opResult{scan: scan{truth: truth}}
		if tc.err == nil {
			o.res = good()
			tc.edit(o.res)
		}
		o.check(tc.err, tc.incremental, nil)
		if o.fail != tc.want {
			t.Errorf("%s: fail %q, want %q", tc.name, o.fail, tc.want)
		}
	}
	o := opResult{scan: scan{truth: truth}, res: good()}
	o.check(nil, false, nil)
	if math.Abs(o.rmsMM-0.5) > 1e-12 || math.Abs(o.rigidMM-2) > 1e-12 {
		t.Errorf("rms %v rigid %v, want 0.5 and 2", o.rmsMM, o.rigidMM)
	}
}
