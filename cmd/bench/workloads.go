package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// Metric is one tracked number of a workload. It regresses when it
// worsens by more than Tol relative to the baseline record of the same
// shape; it worsens downward if Higher is better, upward otherwise.
type Metric struct {
	Name   string
	Higher bool
	Tol    float64
	// Gate also holds a re-measure (-gate) to Tol against the committed
	// record. Only host-portable ratios carry it: a CI runner is not the
	// host that recorded the committed absolute times.
	Gate bool
}

// Invariant is a hard bound a record must meet whatever its baseline:
// Metric Op Bound, with Op one of < <= == >= >.
type Invariant struct {
	Metric string
	Op     string
	Bound  float64
}

// Workload is one row of the benchmark table: its whole shape, the
// metrics tracked across commits, and its hard invariants. The checker
// reads the rules from here, never from the record, so editing a
// committed record cannot loosen a gate.
type Workload struct {
	Name       string
	Shape      Shape
	Tracked    []Metric
	Invariants []Invariant
	measure    func(Shape) ([]Value, []StageMS, error)
}

const (
	// Every workload runs at a constant 2 ranks: another rank count takes
	// another partition and solves to another rounding.
	benchRanks = 2
	// incrUpdates is the incremental workload's stream length.
	incrUpdates = 4
	// Accuracy metrics compare at the 0.1 relative bound BENCHMARK.json
	// gives them; timings at 0.5, the noise of an unpinned host.
	accuracyTol = 0.1
	timingTol   = 0.5
)

var accuracy = []Metric{
	{Name: "field_rms_mm", Tol: accuracyTol},
	{Name: "field_rms_ratio", Tol: accuracyTol},
}

var workloads = []Workload{
	{
		// Cold pipeline runs with a fresh phantom seed each: the
		// per-stage timeline of the paper's Figure 6.
		Name:  "pipeline",
		Shape: Shape{Size: 32, CellSize: 2, Ranks: benchRanks, Runs: 5},
		Tracked: append([]Metric{
			{Name: "total_seconds", Tol: timingTol},
			{Name: "assembly_imbalance_max", Tol: timingTol},
		}, accuracy...),
		Invariants: []Invariant{
			{"total_seconds", ">", 0},
			{"solver_nonconverged_runs", "==", 0},
			{"field_rms_ratio", "<", 1},
		},
		measure: measurePipeline,
	},
	{
		// A growing-shift stream through Session.Update against a cold
		// Register of every scan.
		Name:  "incremental",
		Shape: Shape{Size: 64, CellSize: 2, Ranks: benchRanks, Updates: incrUpdates},
		Tracked: append([]Metric{
			{Name: "speedup", Higher: true, Tol: timingTol, Gate: true},
			{Name: "update_mean_ms", Tol: timingTol},
			{Name: "max_divergence_mm", Tol: timingTol},
		}, accuracy...),
		Invariants: []Invariant{
			{"incremental_steps", "==", incrUpdates},
			{"max_divergence_mm", "<=", 1e-3},
			{"speedup", ">=", 1.5},
			{"field_rms_ratio", "<", 1},
		},
		measure: measureIncremental,
	},
	{
		// Fresh sessions registering one preop against a shared artifact
		// store; cell 1 puts it in the FEM-dominated regime the cache
		// targets.
		Name:  "cache",
		Shape: Shape{Size: 48, CellSize: 1, Ranks: benchRanks, Rounds: 3},
		Tracked: []Metric{
			{Name: "speedup", Higher: true, Tol: timingTol, Gate: true},
			{Name: "warm_mean_ms", Tol: timingTol},
		},
		Invariants: []Invariant{
			{"hits", ">", 0},
			{"bit_identical", "==", 1},
			{"max_divergence_mm", "==", 0},
			{"speedup", ">=", 1},
		},
		measure: measureCache,
	},
}

// lookup returns the table row named name, or nil.
func lookup(name string) *Workload {
	ws := workloads
	for i := range ws {
		if ws[i].Name == name {
			return &ws[i]
		}
	}
	return nil
}

// run measures the workload at its table shape.
func (w *Workload) run() (Record, error) {
	metrics, stages, err := w.measure(w.Shape)
	if err != nil {
		return Record{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	return Record{Workload: w.Name, Shape: w.Shape, GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics: metrics, StagesMS: stages}, nil
}

func config(sh Shape) core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true // phantom pairs share the scanner frame
	cfg.Ranks = sh.Ranks
	cfg.MeshCellSize = sh.CellSize
	return cfg
}

func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// stageMS reads the mean wall-clock of every stage the collector saw,
// in pipeline order, as one op kind's timeline.
func stageMS(op string, coll *obs.StageCollector) []StageMS {
	var out []StageMS
	for _, st := range []string{core.StageRigid, core.StageClassify, core.StageMesh,
		core.StageSurface, core.StageSolve, core.StageResample} {
		if h := coll.StageHistogram(st).Summary(); h.Count > 0 {
			out = append(out, StageMS{op, st, 1e3 * h.Sum / float64(h.Count)})
		}
	}
	return out
}

// fieldError accumulates the field RMS error against the phantom's
// ground truth inside the brain mask, and the rigid-only (zero-field)
// error of the same scans.
type fieldError struct{ rms, rigid, n float64 }

func (e *fieldError) add(f, truth *volume.Field, mask []bool) error {
	r, err := f.RMSDifference(truth, mask)
	if err != nil {
		return err
	}
	g, err := volume.NewField(truth.Grid).RMSDifference(truth, mask)
	if err != nil {
		return err
	}
	e.rms, e.rigid, e.n = e.rms+r, e.rigid+g, e.n+1
	return nil
}

// values is the mean field RMS and its ratio to rigid-only.
func (e *fieldError) values() []Value {
	return []Value{{"field_rms_mm", e.rms / e.n}, {"field_rms_ratio", e.rms / e.rigid}}
}

func measurePipeline(sh Shape) ([]Value, []StageMS, error) {
	coll := obs.NewStageCollector(obs.NewRegistry())
	cfg := config(sh)
	cfg.Observer = coll

	var acc fieldError
	nonConverged := 0
	t0 := time.Now()
	for i := 0; i < sh.Runs; i++ {
		// A fresh seed per run varies the deformation, so the latency
		// spread is real rather than cache-identical repetition.
		p := phantom.DefaultParams(sh.Size)
		p.Seed = int64(i + 1)
		c := phantom.Generate(p)
		res, err := core.New(cfg).Run(c.Preop, c.PreopLabels, c.Intraop)
		if err != nil {
			return nil, nil, fmt.Errorf("run %d: %w", i+1, err)
		}
		if !res.SolveStats.Converged {
			nonConverged++
		}
		if err := acc.add(res.Backward, c.Truth, c.BrainMask); err != nil {
			return nil, nil, err
		}
		logf("run %d/%d: solve %d iters, match %.3f mm", i+1, sh.Runs, res.SolveStats.Iterations, res.MatchMeanAbsDiff)
	}
	total := time.Since(t0)

	reg := coll.Registry()
	return append([]Value{
		{"total_seconds", total.Seconds()},
		{"assembly_flops_total", reg.Counter(obs.MetricAssemblyFlops, "").Value()},
		{"assembly_imbalance_last", reg.Gauge(obs.MetricAssemblyImbalance, "").Value()},
		{"assembly_imbalance_max", reg.Gauge(obs.MetricAssemblyImbalanceMax, "").Value()},
		{"solver_nonconverged_runs", float64(nonConverged)},
	}, acc.values()...), stageMS("register", coll), nil
}

func measureIncremental(sh Shape) ([]Value, []StageMS, error) {
	// Baseline shift plus a stream of scans with the shift growing as
	// the resection progresses — the paper's repeated-acquisition
	// pattern.
	shifts := make([]float64, sh.Updates+1)
	for i := range shifts {
		shifts[i] = 3 + 3*float64(i)/float64(sh.Updates)
	}
	p := phantom.DefaultParams(sh.Size)
	p.NoiseStd = 2
	stream := phantom.GenerateStream(p, shifts)

	cfg := config(sh)
	ctx := context.Background()
	warm, err := core.NewSession(cfg, stream.Case.Preop, stream.Case.PreopLabels)
	if err != nil {
		return nil, nil, err
	}
	cold, err := core.NewSession(cfg, stream.Case.Preop, stream.Case.PreopLabels)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	if _, err := warm.Register(ctx, stream.Case.Intraop); err != nil {
		return nil, nil, fmt.Errorf("baseline register: %w", err)
	}
	baselineMS := sinceMS(t0)
	if _, err := cold.Register(ctx, stream.Case.Intraop); err != nil {
		return nil, nil, fmt.Errorf("cold baseline register: %w", err)
	}
	updColl := obs.NewStageCollector(obs.NewRegistry())
	coldColl := obs.NewStageCollector(obs.NewRegistry())
	warm.SetObserver(updColl)
	cold.SetObserver(coldColl)

	var acc fieldError
	var updTotal, coldTotal, maxDiv float64
	incremental, saved := 0, 0
	for i, step := range stream.Steps {
		tu := time.Now()
		ru, err := warm.Update(ctx, step.Intraop)
		if err != nil {
			return nil, nil, fmt.Errorf("update %d: %w", i+1, err)
		}
		updMS := sinceMS(tu)
		tc := time.Now()
		rc, err := cold.Register(ctx, step.Intraop)
		if err != nil {
			return nil, nil, fmt.Errorf("cold register %d: %w", i+1, err)
		}
		coldMS := sinceMS(tc)

		div, _, err := divergence(ru, rc)
		if err != nil {
			return nil, nil, fmt.Errorf("step %d: %w", i+1, err)
		}
		if ru.Incremental && ru.Update != nil && ru.Update.WarmStarted {
			incremental++
			saved += ru.Update.IterationsSaved
		}
		updTotal, coldTotal, maxDiv = updTotal+updMS, coldTotal+coldMS, max(maxDiv, div)
		if err := acc.add(ru.Backward, step.Truth, stream.Case.BrainMask); err != nil {
			return nil, nil, err
		}
		logf("step %d/%d: shift %.1fmm update %.0fms (%d iters) cold %.0fms (%d iters) %.1fx, diverge %.2gmm",
			i+1, len(stream.Steps), step.ShiftMagnitude, updMS, ru.SolveStats.Iterations,
			coldMS, rc.SolveStats.Iterations, coldMS/updMS, div)
	}
	n := float64(len(stream.Steps))
	return append([]Value{
		{"baseline_register_ms", baselineMS},
		{"update_mean_ms", updTotal / n},
		{"cold_mean_ms", coldTotal / n},
		{"speedup", coldTotal / updTotal},
		{"max_divergence_mm", maxDiv},
		{"incremental_steps", float64(incremental)},
		{"iterations_saved", float64(saved)},
	}, acc.values()...), append(stageMS("update", updColl), stageMS("cold", coldColl)...), nil
}

func measureCache(sh Shape) ([]Value, []StageMS, error) {
	p := phantom.DefaultParams(sh.Size)
	p.NoiseStd = 2
	c := phantom.Generate(p)
	cfg := config(sh)

	// rounds registers n fresh sessions, returning the last result and
	// the mean latency.
	var stages []StageMS
	rounds := func(op string, cfg core.Config, n int) (*core.Result, float64, error) {
		var res *core.Result
		total := 0.0
		coll := obs.NewStageCollector(obs.NewRegistry())
		cfg.Observer = coll
		for i := 0; i < n; i++ {
			sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
			if err != nil {
				return nil, 0, err
			}
			t0 := time.Now()
			if res, err = sess.Register(context.Background(), c.Intraop); err != nil {
				return nil, 0, fmt.Errorf("%s %d: %w", op, i+1, err)
			}
			ms := sinceMS(t0)
			total += ms
			logf("%s %d/%d: %.0fms", op, i+1, n, ms)
		}
		stages = append(stages, stageMS(op, coll)...)
		return res, total / float64(n), nil
	}

	coldRes, coldMS, err := rounds("cold", cfg, sh.Rounds)
	if err != nil {
		return nil, nil, err
	}
	// One populate run fills a shared store (misses plus encode
	// overhead); the warm rounds then hit it.
	store, err := artifact.New(artifact.Options{})
	if err != nil {
		return nil, nil, err
	}
	cfg.ArtifactStore = store
	_, populateMS, err := rounds("populate", cfg, 1)
	if err != nil {
		return nil, nil, err
	}
	warmRes, warmMS, err := rounds("warm", cfg, sh.Rounds)
	if err != nil {
		return nil, nil, err
	}
	div, identical, err := divergence(coldRes, warmRes)
	if err != nil {
		return nil, nil, err
	}
	bitIdentical := 0.0
	if identical {
		bitIdentical = 1
	}
	st := store.Stats()
	return []Value{
		{"cold_mean_ms", coldMS},
		{"populate_ms", populateMS},
		{"warm_mean_ms", warmMS},
		{"speedup", coldMS / warmMS},
		{"hits", float64(st.Hits)},
		{"misses", float64(st.Misses)},
		{"evictions", float64(st.Evictions)},
		{"bit_identical", bitIdentical},
		{"max_divergence_mm", div},
	}, stages, nil
}

// divergence is the largest nodal displacement difference between two
// results of the same scan, and whether they are element-exact equal in
// both node displacements and warped voxels.
func divergence(a, b *core.Result) (float64, bool, error) {
	an, bn := a.NodeDisplacements, b.NodeDisplacements
	if len(an) != len(bn) {
		return 0, false, fmt.Errorf("results have %d and %d mesh nodes", len(an), len(bn))
	}
	maxDiff := 0.0
	for i, u := range an {
		maxDiff = max(maxDiff, u.Sub(bn[i]).MaxAbs())
	}
	identical := slices.Equal(an, bn) && a.Warped != nil && b.Warped != nil &&
		slices.Equal(a.Warped.Data, b.Warped.Data)
	return maxDiff, identical, nil
}
