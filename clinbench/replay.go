package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/surface"
	"repro/internal/transform"
	"repro/internal/volume"
)

// kernelCalls is how many SpMV and preconditioner applications a kernel
// timing averages over.
const kernelCalls = 20

// sample is one replayed layer measurement. stage is the pipeline stage
// the call belongs to ("" for a measurement outside every stage, such
// as a 1-rank variant or a count); inOp marks a call the traced op
// itself made, as opposed to one only its baseline made.
type sample struct {
	metric string
	stage  string
	inOp   bool
	value  float64
}

// replay re-runs the layers of one traced op on that op's own data,
// calling each layer's public function once and recording a span and a
// sample per call. It also compares each replayed layer's output with
// the op's own: diverged lists the layers whose output differed.
type replay struct {
	rec      *recorder
	kind     string
	root     int
	stageID  int
	stage    string
	samples  []sample
	diverged []string
}

// enter opens the span of the next stage; later calls nest under it.
func (rp *replay) enter(stage string) {
	if rp.stageID != 0 {
		rp.rec.end(rp.stageID)
	}
	rp.stage = stage
	rp.stageID = rp.rec.start("replay."+stage, rp.root)
}

// measure runs fn as one call of the layer metric and records its time
// in milliseconds under the current stage.
func (rp *replay) measure(metric string, inOp bool, fn func() error) error {
	return rp.measureIn(metric, rp.stage, inOp, fn)
}

// measureIn is measure with an explicit stage ("" keeps the sample out
// of the stage attribution).
func (rp *replay) measureIn(metric, stage string, inOp bool, fn func() error) error {
	id := rp.rec.start(metric, rp.stageID)
	err := fn()
	d := rp.rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", metric, err)
	}
	rp.samples = append(rp.samples, sample{metric: metric, stage: stage, inOp: inOp, value: ms(d)})
	return nil
}

// match records whether the replayed layer reproduced the op's output.
func (rp *replay) match(layer string, same bool) {
	if !same {
		rp.diverged = append(rp.diverged, layer)
	}
}

// set records a count or a derived value.
func (rp *replay) set(metric string, v float64) {
	rp.samples = append(rp.samples, sample{metric: metric, inOp: true, value: v})
}

// metrics folds the samples into one value per metric: the sum of the
// calls the traced op made, or, for a layer the op skipped because its
// session or store already held the result, the sum of the calls the
// baseline made — what set-up paid for it.
func (rp *replay) metrics() map[string]float64 {
	all, inOp := map[string]float64{}, map[string]float64{}
	seen := map[string]bool{}
	for _, s := range rp.samples {
		all[s.metric] += s.value
		if s.inOp {
			inOp[s.metric] += s.value
			seen[s.metric] = true
		}
	}
	for m := range all {
		if seen[m] {
			all[m] = inOp[m]
		}
	}
	return all
}

// inOpByStage sums the traced op's own replayed calls per stage.
func (rp *replay) inOpByStage() map[string]float64 {
	by := map[string]float64{}
	for _, s := range rp.samples {
		if s.inOp && s.stage != "" {
			by[s.stage] += s.value
		}
	}
	return by
}

// inBrain mirrors the pipeline's deformable tissue set: the labels the
// mesh covers and the brain surface bounds.
func inBrain(lab volume.Label) bool {
	switch lab {
	case volume.LabelBrain, volume.LabelVentricle, volume.LabelTumor,
		volume.LabelFalx, volume.LabelResection:
		return true
	}
	return false
}

// knnWeights mirrors the pipeline's feature weights: intensity, then the
// three localization channels.
var knnWeights = []float64{1, 8, 8, 8}

// run replays the layers of the traced op in pipeline order. prev is
// the result before it, whose boundary conditions and solution a stream
// update patches and warm-starts from.
func (rp *replay) run(ctx context.Context, b *bench, op opResult, prev *core.Result) error {
	cfg := b.p.config(b.p.ranks)
	cold := rp.kind == clinicalRegister
	stream := rp.kind == streamUpdate
	fresh := !stream // a fresh session runs rigid, sampling, elimination and PC setup
	res, preop, intraop := op.res, b.preop, op.scan.intraop
	grid := intraop.Grid
	defer func() {
		if rp.stageID != 0 {
			rp.rec.end(rp.stageID)
		}
	}()

	rp.enter("rigid")
	var diag register.Result
	if err := rp.measure("register.mi_align_ms", fresh, func() (err error) {
		init := register.CenterOfMassInit(intraop, preop, cfg.Register.Threshold)
		diag, err = register.AlignContext(ctx, intraop, preop, init, cfg.Register)
		return err
	}); err != nil {
		return err
	}
	rp.set("register.mi.evals", float64(diag.Evals))
	// An update reuses its baseline's alignment, found on another scan.
	if fresh {
		rp.match("register.mi_align", diag.Transform == res.Rigid)
	}
	var aligned *volume.Scalar
	var alignedLabs *volume.Labels
	if err := rp.measure("transform.resample_ms", fresh, func() error {
		aligned = transform.ResampleScalar(preop, res.Rigid, grid)
		alignedLabs = transform.ResampleLabels(b.preopLabs, res.Rigid, grid)
		return nil
	}); err != nil {
		return err
	}

	rp.enter("classify")
	var loc []*volume.Scalar
	if err := rp.measure("edt.saturated_ms", cold, func() error {
		loc = []*volume.Scalar{
			edt.Saturated(alignedLabs, volume.LabelBrain, cfg.EDTSaturation),
			edt.Saturated(alignedLabs, volume.LabelVentricle, cfg.EDTSaturation),
			edt.Saturated(alignedLabs, volume.LabelCSF, cfg.EDTSaturation),
		}
		return nil
	}); err != nil {
		return err
	}
	cl := &classify.Classifier{K: cfg.KNN, Weights: knnWeights, Workers: cfg.Ranks}
	if err := rp.measure("classify.sample_ms", fresh, func() (err error) {
		cl.Prototypes, err = classify.SamplePrototypesContext(ctx, alignedLabs,
			append([]*volume.Scalar{aligned}, loc...), cfg.PrototypesPerClass, cfg.Seed)
		return err
	}); err != nil {
		return err
	}
	channels := append([]*volume.Scalar{intraop}, loc...)
	if stream {
		// The session's classifier keeps the outlier rejections of every
		// update before this one; replay them untimed, so the timed
		// refresh starts from the prototype set the op started from.
		for _, pos := range b.updates[:len(b.updates)-1] {
			earlier := append([]*volume.Scalar{b.scans[pos].intraop}, loc...)
			if err := cl.RefreshFeaturesRobustContext(ctx, earlier, 4, 5); err != nil {
				return fmt.Errorf("classify.refresh history: %w", err)
			}
		}
		if err := rp.measure("classify.refresh_ms", true, func() error {
			return cl.RefreshFeaturesRobustContext(ctx, channels, 4, 5)
		}); err != nil {
			return err
		}
	} else {
		rp.set("classify.refresh_ms", 0)
	}
	rp.set("classify.prototypes", float64(len(cl.Prototypes)))
	var labs *volume.Labels
	if err := rp.measure("classify.knn_ms", true, func() (err error) {
		labs, err = classifyScan(ctx, cl, channels)
		return err
	}); err != nil {
		return err
	}
	rp.match("classify.knn", slices.Equal(labs.Data, res.IntraopLabels.Data))
	cl.Workers = 1
	if err := rp.measureIn("classify.knn_1rank_ms", "", true, func() error {
		_, err := classifyScan(ctx, cl, channels)
		return err
	}); err != nil {
		return err
	}

	rp.enter("mesh")
	var brainSurf *mesh.TriMesh
	if err := rp.measure("mesh.generate_ms", cold, func() error {
		m, err := mesh.FromLabels(alignedLabs, mesh.Options{CellSize: cfg.MeshCellSize, Include: inBrain})
		if err != nil {
			return err
		}
		rp.match("mesh.generate", m.NumNodes() == res.Mesh.NumNodes() && m.NumTets() == res.Mesh.NumTets())
		brainSurf, err = m.ExtractSurface(inBrain)
		return err
	}); err != nil {
		return err
	}
	rp.set("mesh.nodes", float64(res.Mesh.NumNodes()))
	rp.set("mesh.tets", float64(res.Mesh.NumTets()))

	rp.enter("surface")
	var phiPre, phiIntra *volume.Scalar
	var relaxed, displaced *surface.Result
	if err := rp.measure("edt.signed_ms", cold, func() error {
		phiPre = edt.SignedOfSet(alignedLabs, inBrain, 0).SmoothGaussian(1.0)
		return nil
	}); err != nil {
		return err
	}
	if err := rp.measure("surface.evolve_ms", cold, func() (err error) {
		relaxed, err = surface.EvolveContext(ctx, brainSurf, surface.SignedDistanceForce{Phi: phiPre}, cfg.Surface)
		return err
	}); err != nil {
		return err
	}
	if err := rp.measure("edt.signed_ms", true, func() error {
		phiIntra = edt.SignedOfSet(res.IntraopLabels, inBrain, 0).SmoothGaussian(1.0)
		return nil
	}); err != nil {
		return err
	}
	if err := rp.measure("surface.evolve_ms", true, func() (err error) {
		displaced, err = surface.EvolveContext(ctx, relaxed.Final, surface.SignedDistanceForce{Phi: phiIntra}, cfg.Surface)
		return err
	}); err != nil {
		return err
	}
	rp.match("surface.evolve", slices.Equal(displaced.Final.Verts, res.Surface.Final.Verts))
	iters := displaced.Iterations
	if cold {
		iters += relaxed.Iterations
	}
	rp.set("surface.evolve.iters", float64(iters))

	rp.enter("biomech")
	sys, err := rp.assemble(ctx, res.Mesh, cfg, cold)
	if err != nil {
		return err
	}
	// A stream update patches the system its session eliminated for the
	// previous scan; a fresh session eliminates this scan's conditions.
	bc := res.Surface.BoundaryConditions()
	if stream {
		bc = prev.Surface.BoundaryConditions()
	}
	if err := rp.measure("fem.dirichlet_ms", fresh, func() error { return sys.ApplyDirichlet(bc) }); err != nil {
		return err
	}
	dofPart := sys.DOFPartition()
	onePart := par.Even(sys.NumDOF, 1)
	var pc, pc1 *solver.BlockJacobiPC
	if err := rp.measure("solver.pc_setup_ms", fresh, func() (err error) {
		pc, err = solver.NewBlockJacobiILU0(sys.K, dofPart)
		return err
	}); err != nil {
		return err
	}
	if err := rp.measureIn("solver.pc_setup_1rank_ms", "", true, func() (err error) {
		pc1, err = solver.NewBlockJacobiILU0(sys.K, onePart)
		return err
	}); err != nil {
		return err
	}
	var x0 []float64
	if stream {
		changed := 0
		if err := rp.measure("fem.patch_ms", true, func() (err error) {
			changed, err = sys.PatchDirichlet(ctx, res.Surface.BoundaryConditions())
			return err
		}); err != nil {
			return err
		}
		rp.set("fem.patch.dofs_changed", float64(changed))
		x0 = flatten(prev.NodeDisplacements)
	} else {
		rp.set("fem.patch_ms", 0)
		rp.set("fem.patch.dofs_changed", 0)
	}
	gmresIters, err := rp.solve(ctx, sys, x0, pc, pc1, cfg.Solver)
	if err != nil {
		return err
	}
	rp.match("solver.gmres", gmresIters == res.SolveStats.Iterations)

	rp.enter("resample")
	var table *fem.InterpTable
	var fwd, bwd *volume.Field
	if err := rp.measure("fem.interp_build_ms", cold, func() error {
		table = sys.BuildInterpTable(grid)
		return nil
	}); err != nil {
		return err
	}
	if err := rp.measure("fem.interp_apply_ms", true, func() error {
		fwd = table.Apply(res.NodeDisplacements)
		return nil
	}); err != nil {
		return err
	}
	if err := rp.measure("volume.invert_ms", true, func() error {
		bwd = fwd.Invert(4)
		return nil
	}); err != nil {
		return err
	}
	rp.match("volume.invert", slices.Equal(bwd.DX, res.Backward.DX) &&
		slices.Equal(bwd.DY, res.Backward.DY) && slices.Equal(bwd.DZ, res.Backward.DZ))
	var warped *volume.Scalar
	if err := rp.measure("volume.warp_ms", true, func() error {
		warped = bwd.WarpScalar(res.AlignedPreop)
		return nil
	}); err != nil {
		return err
	}
	rp.match("volume.warp", slices.Equal(warped.Data, res.Warped.Data))
	return nil
}

// assemble replays the stiffness assembly at the run's ranks, recording
// its time, allocation and work counters, and once more at one rank.
func (rp *replay) assemble(ctx context.Context, m *mesh.Mesh, cfg core.Config, inOp bool) (*fem.System, error) {
	var sys *fem.System
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rp.measure("fem.assemble_ms", inOp, func() (err error) {
		sys, err = fem.AssembleContext(ctx, m, cfg.Materials, par.Even(m.NumNodes(), cfg.Ranks))
		return err
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rp.set("fem.assemble.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/bytesPerMB)
	snap := sys.Assembly.Snapshot()
	rp.set("fem.assemble.flops", snap.TotalFlops)
	rp.set("fem.assemble.imbalance", snap.Imbalance)
	if err := rp.measureIn("fem.assemble_1rank_ms", "", true, func() error {
		_, err := fem.AssembleContext(ctx, m, cfg.Materials, par.Even(m.NumNodes(), 1))
		return err
	}); err != nil {
		return nil, err
	}
	return sys, nil
}

// solve replays the GMRES solve (warm-started when x0 is non-nil) at the
// run's ranks and at one rank, then times the two kernels inside it,
// SpMV and the preconditioner application, averaged over kernelCalls
// calls each. Orthogonalization is what per-iteration time leaves after
// the kernels: derived, not measured. It returns the iteration count of
// the solve at the run's ranks.
func (rp *replay) solve(ctx context.Context, sys *fem.System, x0 []float64, pc, pc1 *solver.BlockJacobiPC, opts solver.Options) (int, error) {
	dofPart := sys.DOFPartition()
	opts.Partition = dofPart
	var st solver.Stats
	if err := rp.measure("solver.gmres_ms", true, func() (err error) {
		st, err = gmres(ctx, sys, x0, pc, opts)
		return err
	}); err != nil {
		return 0, err
	}
	opts1 := opts
	opts1.Partition = par.Even(sys.NumDOF, 1)
	id := rp.rec.start("solver.gmres_1rank", rp.stageID)
	st1, err := gmres(ctx, sys, x0, pc1, opts1)
	d1 := rp.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("solver.gmres_1rank: %w", err)
	}
	k := sys.K
	x := make([]float64, k.N)
	y := make([]float64, k.N)
	for i := range x {
		x[i] = 1
	}
	spmvMS := rp.kernel("sparse.spmv_ms", func() { k.MulVecPar(dofPart, x, y) })
	rp.kernel("sparse.spmv_1rank_ms", func() { k.MulVecPar(opts1.Partition, x, y) })
	applyMS := rp.kernel("solver.pc_apply_ms", func() { pc.Apply(x, y) })
	rp.kernel("solver.pc_apply_1rank_ms", func() { pc1.Apply(x, y) })
	gmresMS := rp.metrics()["solver.gmres_ms"]
	iters := float64(st.Iterations)
	rp.set("sparse.nnz", float64(k.NNZ()))
	rp.set("sparse.spmv.bytes_computed", float64(spmvBytes(k)))
	rp.set("solver.gmres.iters", iters)
	rp.set("solver.gmres.ms_per_iter", gmresMS/iters)
	rp.set("solver.gmres_1rank.ms_per_iter", ms(d1)/float64(st1.Iterations))
	rp.set("solver.ortho.ms_per_iter",
		(gmresMS-float64(st.MatVecs)*spmvMS-float64(st.PCApplies)*applyMS)/iters)
	return st.Iterations, nil
}

// kernel times kernelCalls back-to-back calls of fn as one span and
// records, and returns, the mean milliseconds per call.
func (rp *replay) kernel(metric string, fn func()) float64 {
	id := rp.rec.start(metric, rp.stageID)
	for i := 0; i < kernelCalls; i++ {
		fn()
	}
	v := ms(rp.rec.end(id)) / kernelCalls
	rp.set(metric, v)
	return v
}

// gmres runs the solver cold (x0 nil) or warm-started.
func gmres(ctx context.Context, sys *fem.System, x0 []float64, pc *solver.BlockJacobiPC, opts solver.Options) (solver.Stats, error) {
	var st solver.Stats
	var err error
	if x0 == nil {
		_, st, err = solver.GMRESContext(ctx, sys.K, sys.F, nil, pc, opts)
	} else {
		_, st, err = solver.GMRESWarmContext(ctx, sys.K, sys.F, x0, pc, opts)
	}
	return st, err
}

// spmvBytes is the traffic one SpMV implies from the array sizes alone —
// values, column indices and row pointers read once, x read and y
// written once — ignoring cache reuse. Computed, not measured.
func spmvBytes(k *sparse.CSR) int64 {
	return int64(len(k.Val))*8 + int64(len(k.Col))*4 + int64(len(k.RowPtr))*8 + 2*int64(k.N)*8
}

// classifyScan mirrors the pipeline's choice of k-NN search: the k-d
// tree once the prototype set is large, the brute-force scan below.
func classifyScan(ctx context.Context, cl *classify.Classifier, channels []*volume.Scalar) (*volume.Labels, error) {
	if len(cl.Prototypes) >= 128 {
		return cl.ClassifyKDContext(ctx, channels)
	}
	return cl.ClassifyContext(ctx, channels)
}

// flatten turns per-node displacements back into the DOF vector.
func flatten(u []geom.Vec3) []float64 {
	out := make([]float64, 0, 3*len(u))
	for _, v := range u {
		out = append(out, v.X, v.Y, v.Z)
	}
	return out
}
