package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"repro/internal/core"
)

// span is one recorded interval: the benchmark brackets each call into
// a layer with one, and the traced op's stages come from the pipeline's
// observer hooks. Spans of one run share RunID; Parent is 0 for a root.
type span struct {
	RunID  string `json:"run_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder keeps a run's spans in memory until write. It is used from
// one goroutine: the pipeline calls its observer on the caller's.
type recorder struct {
	runID string
	t0    time.Time
	spans []span
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, t0: time.Now()}
}

// start opens a span under parent and returns its id.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{
		RunID: r.runID, ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// observer records each pipeline stage as a span under parent.
func (r *recorder) observer(parent int) core.Observer {
	open := map[string]int{}
	return core.FuncObserver{
		OnStart: func(stage string) { open[stage] = r.start("stage."+stageKey(stage), parent) },
		OnDone: func(stage string, _ time.Duration, _ error) {
			if id, ok := open[stage]; ok {
				r.end(id)
				delete(open, stage)
			}
		},
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	// The deferred Close covers the error paths; the success path
	// reports its own Close.
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}

// stageKey maps the pipeline's stage names to the metric keys.
func stageKey(stage string) string {
	switch stage {
	case core.StageRigid:
		return "rigid"
	case core.StageClassify:
		return "classify"
	case core.StageMesh:
		return "mesh"
	case core.StageSurface:
		return "surface"
	case core.StageSolve:
		return "biomech"
	case core.StageResample:
		return "resample"
	}
	return stage
}

// stageKeys lists every stage metric key, in pipeline order.
var stageKeys = []string{"rigid", "classify", "mesh", "surface", "biomech", "resample"}

// tracedRun is the --trace 1 run: untraced ops for the median, one op
// with stage spans, a replay of that op's layers on its own data, and
// the same op at one rank. It returns the per-layer metrics.
func tracedRun(ctx context.Context, b *bench, rec *recorder, t *tally, log *log.Logger) (map[string]float64, error) {
	var walls []float64
	for i := 0; i < untracedInRun; i++ {
		o := b.runOp(ctx, nil)
		t.add(o.fail)
		walls = append(walls, ms(o.wall))
	}
	prev := b.last
	root := rec.start("op", 0)
	o := b.runOp(ctx, rec.observer(root))
	rec.end(root)
	if o.fail != "" {
		return nil, fmt.Errorf("traced op failed: %s", o.fail)
	}
	stageMS := map[string]float64{}
	for _, st := range o.res.Timings {
		stageMS[stageKey(st.Name)] += ms(st.Elapsed)
	}

	rp := &replay{rec: rec, kind: b.kind}
	rp.root = rec.start("replay", 0)
	err := rp.run(ctx, b, o, prev)
	rec.end(rp.root)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// The replay mirrors private choices of core (see METRICS.md). A layer
	// whose replayed output differs from the op's means the replay no
	// longer reproduces the op, so its layer values and gaps describe
	// another computation: the traced op then counts as failed, and the
	// run reads correct=false.
	fail := ""
	if len(rp.diverged) > 0 {
		log.Printf("replay diverged from the op in %v", rp.diverged)
		fail = failReplayDiverged
	}
	m := rp.metrics()
	gapMS, unattributed := attribute(ms(o.wall), stageMS, rp.inOpByStage())
	for _, s := range stageKeys {
		m["core.stage."+s+"_ms"] = stageMS[s]
		m["core.stage."+s+".gap_ms"] = gapMS[s]
	}
	m["core.unattributed_ms"] = unattributed

	oneRank, err := b.oneRankOp(ctx, rec, o)
	if err != nil {
		return nil, fmt.Errorf("1-rank op: %w", err)
	}
	m["core.register_1rank_ms"] = ms(oneRank)

	m["solver.pc_cache.hit_ratio"] = 0
	m["solver.warm.iters_saved"] = 0
	if u := o.res.Update; u != nil {
		if u.PCCacheHit {
			m["solver.pc_cache.hit_ratio"] = 1
		}
		m["solver.warm.iters_saved"] = float64(u.IterationsSaved)
	}
	m["bench.trace_overhead_ms"] = ms(o.wall) - median(walls)

	for _, k := range artifactKeys {
		m[k] = 0
	}
	if b.kind == clinicalRegister {
		same, err := b.artifactRoundTrip(ctx, rec, o, m)
		if err != nil {
			return nil, fmt.Errorf("artifact round trip: %w", err)
		}
		if !same && fail == "" {
			fail = failCacheDiffers
		}
	}
	t.add(fail)
	return m, nil
}

// artifactKeys lists the artifact-layer metrics, which only the
// clinical-register round trip measures.
var artifactKeys = []string{"artifact.hits", "artifact.misses", "artifact.evictions",
	"artifact.bytes", "artifact.warm_register_ms"}

// artifactRoundTrip registers the traced op's case through a fresh
// in-memory artifact store twice: one session fills the store (its
// misses and the bytes written), then a fresh session reads it back
// (its hits and wall-clock time). This is the only path of the
// benchmark through the store and its codec. It reports whether the
// cached result matches the traced op's.
func (b *bench) artifactRoundTrip(ctx context.Context, rec *recorder, traced opResult, m map[string]float64) (bool, error) {
	store, err := newStore()
	if err != nil {
		return false, err
	}
	cfg := b.p.config(b.p.ranks)
	cfg.ArtifactStore = store
	register := func(name string) (*core.Result, time.Duration, error) {
		s, err := core.NewSession(cfg, b.preop, b.preopLabs)
		if err != nil {
			return nil, 0, err
		}
		id := rec.start(name, 0)
		t0 := time.Now()
		res, err := s.Register(ctx, traced.scan.intraop)
		wall := time.Since(t0)
		rec.end(id)
		return res, wall, err
	}
	if _, _, err := register("artifact.fill"); err != nil {
		return false, err
	}
	filled := store.Stats()
	warm, wall, err := register("artifact.warm_register")
	if err != nil {
		return false, err
	}
	read := store.Stats()
	m["artifact.misses"] = float64(filled.Misses)
	m["artifact.hits"] = float64(read.Hits - filled.Hits)
	m["artifact.evictions"] = float64(read.Evictions)
	m["artifact.bytes"] = float64(read.Bytes)
	m["artifact.warm_register_ms"] = ms(wall)
	return slices.Equal(warm.Backward.DX, traced.res.Backward.DX) &&
		slices.Equal(warm.Backward.DY, traced.res.Backward.DY) &&
		slices.Equal(warm.Backward.DZ, traced.res.Backward.DZ), nil
}

// oneRankOp times one op of the workload at Ranks=1, after building a
// one-rank baseline of its own where the workload needs one: the
// previous stream scan registered cold.
func (b *bench) oneRankOp(ctx context.Context, rec *recorder, traced opResult) (time.Duration, error) {
	one := *b
	one.p.ranks = 1
	one.last = nil
	one.pos = traced.pos
	one.updates = nil
	cfg := one.p.config(1)
	switch b.kind {
	case streamUpdate:
		s, err := core.NewSession(cfg, b.preop, b.preopLabs)
		if err != nil {
			return 0, err
		}
		// The baseline is a neighbouring scan, so the update moves the
		// shift by one stream step, as every stream op does.
		basePos := traced.pos - 1
		if basePos < 0 {
			basePos = 1
		}
		if _, err := s.Register(ctx, b.scans[basePos].intraop); err != nil {
			return 0, err
		}
		one.session = s
	}
	id := rec.start("op.1rank", 0)
	o := one.runOp(ctx, rec.observer(id))
	rec.end(id)
	if o.fail != "" {
		return 0, fmt.Errorf("%s", o.fail)
	}
	return o.wall, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
