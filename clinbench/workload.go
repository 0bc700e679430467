package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// The two workloads. Each op is one closed-loop call by one client:
// the next op starts when the previous one returns.
const (
	// clinicalRegister: every op is a fresh Session.Register with no
	// artifact store — the paper's headline path, every stage cold.
	clinicalRegister = "clinical-register"
	// streamUpdate: every op is one Session.Update of the next streamed
	// scan against a baseline registered in set-up — the re-scan loop the
	// surgeon waits on, which skips every preoperative stage.
	streamUpdate = "stream-update"
)

var workloads = []string{clinicalRegister, streamUpdate}

// Stream geometry: the baseline scan has a 3 mm shift and each later
// scan adds 0.5 mm. Ops walk the stream up and back down, so every op
// moves the shift by exactly 0.5 mm and the ops repeat with a period of
// 2*(streamScans-1); a run measures whole periods, so its op mix, and
// with it the accuracy median, does not depend on how many ops fit.
const (
	streamBaseMM = 3.0
	streamStepMM = 0.5
	streamScans  = 3
	defaultSize  = 96
	defaultCell  = 2
	defaultRanks = 2
	setupRepeats = 3
	// minOps keeps a latency median from resting on one op when an op
	// outlasts the run time.
	minOps        = 2
	bytesPerMB    = 1 << 20
	untracedInRun = 2
)

// params fixes the problem: phantom size and seed, and the rank count.
// Ranks is fixed rather than taken from the machine so partitions and
// block-Jacobi iteration counts match everywhere.
type params struct {
	size, ranks int
	seed        int64
}

// config is core.DefaultConfig with the benchmark's mesh cell and the
// given rank count.
func (p params) config(ranks int) core.Config {
	cfg := core.DefaultConfig()
	cfg.MeshCellSize = defaultCell
	cfg.Ranks = ranks
	return cfg
}

// scan is one intraoperative acquisition with its ground truth.
type scan struct {
	intraop *volume.Scalar
	truth   *volume.Field
	shiftMM float64
}

// bench is one workload's state after set-up.
type bench struct {
	kind string
	p    params
	// preop data, shared by every session.
	preop     *volume.Scalar
	preopLabs *volume.Labels
	brainMask []bool
	// scans: one for clinical-register, the whole stream (baseline
	// first) for stream-update.
	scans []scan
	// pos is the stream position of the next op; step its direction.
	pos, step int
	// updates lists the stream positions of every Update the session has
	// run, in order.
	updates []int
	// session is the stream-update session holding the baseline.
	session *core.Session
	// last is the result of the most recent registration or update.
	last *core.Result
}

// setup builds the workload's inputs from the seed and runs its
// baseline work: phantom generation for every workload, plus one cold
// Register for stream-update (its session baseline).
func setup(ctx context.Context, kind string, p params) (*bench, error) {
	b := &bench{kind: kind, p: p}
	pp := phantom.DefaultParams(p.size)
	pp.Seed = p.seed
	switch kind {
	case clinicalRegister:
		c := phantom.Generate(pp)
		b.preop, b.preopLabs, b.brainMask = c.Preop, c.PreopLabels, c.BrainMask
		b.scans = []scan{{intraop: c.Intraop, truth: c.Truth, shiftMM: pp.ShiftMagnitude}}
	case streamUpdate:
		shifts := make([]float64, streamScans)
		for i := range shifts {
			shifts[i] = streamBaseMM + streamStepMM*float64(i)
		}
		st := phantom.GenerateStream(pp, shifts)
		c := st.Case
		b.preop, b.preopLabs, b.brainMask = c.Preop, c.PreopLabels, c.BrainMask
		b.scans = []scan{{intraop: c.Intraop, truth: c.Truth, shiftMM: shifts[0]}}
		for _, s := range st.Steps {
			b.scans = append(b.scans, scan{intraop: s.Intraop, truth: s.Truth, shiftMM: s.ShiftMagnitude})
		}
		b.pos, b.step = 1, 1
		s, err := core.NewSession(p.config(p.ranks), b.preop, b.preopLabs)
		if err != nil {
			return nil, err
		}
		res, err := s.Register(ctx, b.scans[0].intraop)
		if err != nil {
			return nil, fmt.Errorf("baseline register: %w", err)
		}
		b.session, b.last = s, res
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", kind, workloads)
	}
	return b, nil
}

// newStore opens an in-memory artifact store; it has no disk tier, so
// runs share nothing.
func newStore() (*artifact.Store, error) {
	return artifact.New(artifact.Options{})
}

// opResult is one timed op and its checked outcome.
type opResult struct {
	res  *core.Result
	scan scan
	// pos is the scan's stream position.
	pos     int
	wall    time.Duration
	allocMB float64
	// rmsMM is the RMS error of the recovered backward field against the
	// ground truth inside the brain mask; rigidMM the same for the zero
	// field, i.e. the rigid-only result.
	rmsMM, rigidMM float64
	// fail is the first fail rule the op broke ("" for a passing op).
	fail string
}

// runOp runs the workload's next op with the given observer (nil for an
// untraced op), timing it and its heap allocation, then checks it.
func (b *bench) runOp(ctx context.Context, ob core.Observer) opResult {
	// Start every op from a collected heap, so one op's garbage is not
	// charged to the next one's latency.
	runtime.GC()
	pos := b.pos
	sc := b.scans[pos]
	if b.kind == streamUpdate {
		b.updates = append(b.updates, pos)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := b.call(ctx, sc, ob)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	o := opResult{res: res, scan: sc, pos: pos, wall: wall,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / bytesPerMB}
	if err == nil {
		b.last = res
	}
	b.advance()
	o.check(err, b.kind == streamUpdate, b.brainMask)
	return o
}

// call is the op itself: the only code inside the timed interval.
func (b *bench) call(ctx context.Context, sc scan, ob core.Observer) (*core.Result, error) {
	switch b.kind {
	case streamUpdate:
		b.session.SetObserver(ob)
		defer b.session.SetObserver(nil)
		return b.session.Update(ctx, sc.intraop)
	default:
		cfg := b.p.config(b.p.ranks)
		cfg.Observer = ob
		s, err := core.NewSession(cfg, b.preop, b.preopLabs)
		if err != nil {
			return nil, err
		}
		return s.Register(ctx, sc.intraop)
	}
}

// advance moves the stream position one scan on, turning at either end.
func (b *bench) advance() {
	if b.kind != streamUpdate {
		return
	}
	if next := b.pos + b.step; next < 0 || next >= len(b.scans) {
		b.step = -b.step
	}
	b.pos += b.step
}

// periodDone reports whether the ops so far form whole periods of the
// workload's op sequence (every op, for the register workloads).
func (b *bench) periodDone() bool {
	return b.kind != streamUpdate || (b.pos == 1 && b.step == 1)
}

// Fail rules, in the order they are checked.
const (
	failError       = "error"
	failDegraded    = "degraded"
	failUnconverged = "solve not converged"
	failNonFinite   = "non-finite displacement"
	failNoGain      = "field RMS not below rigid-only"
	failNotIncr     = "update not incremental"
	// failReplayDiverged marks a traced op whose replay did not
	// reproduce it (see tracedRun).
	failReplayDiverged = "replay diverged from the op"
	// failCacheDiffers marks a traced op whose registration through the
	// artifact store gave another result (see artifactRoundTrip).
	failCacheDiffers = "cached result differs from the op"
)

// check applies the fail rules to the op and fills its accuracy.
func (o *opResult) check(err error, incremental bool, mask []bool) {
	o.rmsMM, o.rigidMM = math.NaN(), math.NaN()
	switch {
	case err != nil:
		o.fail = failError
		return
	case o.res.Degraded:
		o.fail = failDegraded
		return
	case !o.res.SolveStats.Converged:
		o.fail = failUnconverged
		return
	}
	for _, u := range o.res.NodeDisplacements {
		if !finite(u.X) || !finite(u.Y) || !finite(u.Z) {
			o.fail = failNonFinite
			return
		}
	}
	rms, rerr := o.res.Backward.RMSDifference(o.scan.truth, mask)
	rigid, gerr := volume.NewField(o.scan.truth.Grid).RMSDifference(o.scan.truth, mask)
	if err := errors.Join(rerr, gerr); err != nil {
		o.fail = failError
		return
	}
	o.rmsMM, o.rigidMM = rms, rigid
	switch {
	case !finite(rms):
		o.fail = failNonFinite
	case !(rms < rigid):
		o.fail = failNoGain
	case incremental && !o.res.Incremental:
		o.fail = failNotIncr
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
