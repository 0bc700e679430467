package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/classify"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/surface"
	"repro/internal/transform"
	"repro/internal/volume"
)

// ErrNoBaseline reports an Update against a session that has no
// completed full registration to build on.
var ErrNoBaseline = errors.New("core: no baseline registration; run Register before Update")

// IncrementalStats reports what the incremental update path reused and
// saved relative to a cold registration.
type IncrementalStats struct {
	// DOFsPatched is the number of Dirichlet DOFs whose prescribed
	// displacement actually changed since the previous solve.
	DOFsPatched int
	// PCCacheHit reports that the factorized preconditioner was reused
	// (true whenever the stiffness matrix was unchanged).
	PCCacheHit bool
	// WarmStarted reports that the solve was seeded with the previous
	// displacement field.
	WarmStarted bool
	// EntryResRel is the relative preconditioned residual of the seeded
	// iterate: 1.0 would mean the seed was worthless, values ≪ 1 mean
	// most of the solve was inherited.
	EntryResRel float64
	// IterationsSaved is the iteration count saved relative to the
	// session's baseline cold solve (0 when the update needed as many).
	IterationsSaved int
}

// sessionCache holds the baseline artifacts an incremental update
// reuses: everything derived from the preoperative preparation alone
// (rigid alignment, localization channels, mesh, relaxed surface) plus
// the assembled/constrained FEM system, its cached preconditioner and
// the previous displacement solution. It is (re)filled by each
// successful full registration.
type sessionCache struct {
	rigid        transform.Rigid
	alignedPreop *volume.Scalar
	// edtChannels are the preop-derived spatial localization channels of
	// the classifier (brain/ventricle/CSF saturated distance maps).
	edtChannels []*volume.Scalar
	mesh        *mesh.Mesh
	// relaxedSurf is the discretization-relaxed preoperative brain
	// surface; updates evolve it onto each new intraoperative boundary.
	relaxedSurf *mesh.TriMesh
	// sys is the assembled, Dirichlet-eliminated system of the baseline
	// solve; updates patch its RHS in place.
	sys *fem.System
	// interp is the voxel→element interpolation table of the baseline
	// mesh on the session grid; updates rasterize their solution through
	// it instead of re-locating every voxel.
	interp *fem.InterpTable
	// prevU seeds the next warm-started solve.
	prevU []float64
	// coldIterations is the baseline cold solve's iteration count, the
	// reference for IncrementalStats.IterationsSaved.
	coldIterations int
}

// complete reports whether the cache holds everything an update needs.
func (c *sessionCache) complete() bool {
	return c != nil && c.alignedPreop != nil && len(c.edtChannels) == 3 &&
		c.mesh != nil && c.relaxedSurf != nil && c.sys != nil && c.prevU != nil
}

// updateContext runs the incremental re-solve for one streaming
// intraoperative scan against a session baseline. Only the stages that
// depend on the new image run — classifier refresh + classification,
// one surface evolution, the Dirichlet patch + warm-started solve, and
// resampling; rigid alignment, the localization channels and the mesh
// are reused from the baseline (the head is fixed in the scanner frame
// for the duration of the case, so the rigid pose does not drift
// between acquisitions). Context semantics match RunContext, including
// the degraded rigid-only fallback on deadline expiry after the
// surface stage.
func (p *Pipeline) updateContext(ctx context.Context, cache *sessionCache,
	intraop *volume.Scalar, cl *classify.Classifier) (*Result, *classify.Classifier, error) {
	if p.cfgErr != nil {
		return nil, nil, p.cfgErr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if intraop == nil {
		return nil, nil, fmt.Errorf("core: nil input volume")
	}
	if !cache.complete() || cl == nil {
		return nil, nil, ErrNoBaseline
	}
	if !intraop.Grid.SameShape(cache.alignedPreop.Grid) {
		return nil, nil, fmt.Errorf("core: update scan grid %v differs from session grid %v",
			intraop.Grid, cache.alignedPreop.Grid)
	}
	ctx, runSpan := obs.StartSpan(ctx, obs.SpanPipelineUpdate)
	var runErr error
	defer func() { runSpan.End(runErr) }()
	res, cl, err := p.updateStages(ctx, cache, intraop, cl)
	if res != nil {
		runSpan.SetAttr("degraded", res.Degraded)
		if res.Update != nil {
			runSpan.SetAttr("dofs_patched", res.Update.DOFsPatched)
			runSpan.SetAttr("pc_cache_hit", res.Update.PCCacheHit)
		}
	}
	runErr = err
	return res, cl, err
}

// updateDAG declares the incremental-update DAG: the intraoperative
// stage subset, seeded with the session baseline's preop artifacts.
// Like registerDAG, every literal must mirror the //lint:stage contract
// on its run method (stagedag cross-checks them). None of these nodes
// is pure — each depends on the streaming scan or mutates session
// state (prototype refresh, RHS patch, warm-start seed) — so the
// artifact store never serves them.
func (p *Pipeline) updateDAG() []stageNode {
	return []stageNode{
		{name: "update-classify", bucket: StageClassify,
			inputs:  []string{"intraop", "edtChannels"},
			outputs: []string{"intraLabels"},
			run:     p.stageUpdateClassify},
		{name: "update-surface", bucket: StageSurface,
			deps:    []string{"update-classify"},
			inputs:  []string{"relaxedSurf", "intraLabels"},
			outputs: []string{"surfRes"},
			run:     p.stageUpdateSurface},
		{name: "update-solve", bucket: StageSolve,
			deps:    []string{"update-surface"},
			inputs:  []string{"sys", "surfRes"},
			outputs: []string{"solveRes"},
			run:     p.stageUpdateSolve},
		{name: "update-resample", bucket: StageResample,
			deps:   []string{"update-solve"},
			inputs: []string{"intraop", "alignedPreop", "sys", "solveRes"},
			run:    p.stageUpdateResample},
	}
}

// updateStages executes the intraoperative stage subset of an
// incremental update.
func (p *Pipeline) updateStages(ctx context.Context, cache *sessionCache,
	intraop *volume.Scalar, cl *classify.Classifier) (*Result, *classify.Classifier, error) {
	res := &Result{
		Rigid:        cache.rigid,
		AlignedPreop: cache.alignedPreop,
		Mesh:         cache.mesh,
		Incremental:  true,
		Update:       &IncrementalStats{},
	}
	ps := &pipeState{
		intraop: intraop,
		cl:      cl,
		cache:   cache,
		res:     res,
		// Baseline preop artifacts, reused verbatim: rigid alignment,
		// localization channels, mesh, relaxed surface and the
		// assembled/constrained system (the head is fixed in the scanner
		// frame for the duration of the case).
		alignedPreop: cache.alignedPreop,
		edtChannels:  cache.edtChannels,
		mesh:         cache.mesh,
		relaxedSurf:  cache.relaxedSurf,
		sys:          cache.sys,
	}
	err := p.runDAG(ctx, p.updateDAG(), ps, newStageRunner(ctx, p.cfg.observer(), res))
	return p.finishDAG(ctx, err, ps)
}

// stageUpdateClassify refreshes the statistical model from the new
// image at the recorded prototype locations (never re-sampled — the
// baseline owns the prototype geometry) and classifies the scan; the
// preop-derived localization channels are reused verbatim.
//
//lint:stage name=update-classify inputs=intraop,edtChannels outputs=intraLabels
func (p *Pipeline) stageUpdateClassify(ctx context.Context, ps *pipeState) error {
	channels := make([]*volume.Scalar, 0, 1+len(ps.edtChannels))
	channels = append(channels, ps.intraop)
	channels = append(channels, ps.edtChannels...)
	if err := ps.cl.RefreshFeaturesRobustContext(ctx, channels, 4, 5); err != nil {
		return err
	}
	ps.cl.Workers = p.cfg.Ranks
	var err error
	if len(ps.cl.Prototypes) >= 128 {
		ps.intraLabels, err = ps.cl.ClassifyKDContext(ctx, channels)
	} else {
		ps.intraLabels, err = ps.cl.ClassifyContext(ctx, channels)
	}
	return err
}

// stageUpdateSurface runs one surface evolution, from the cached
// relaxed preoperative surface onto the new intraoperative boundary.
// Using the same starting surface as the baseline keeps the
// vertex-to-node map — and therefore the Dirichlet row set — identical.
//
//lint:stage name=update-surface deps=update-classify inputs=relaxedSurf,intraLabels outputs=surfRes
func (p *Pipeline) stageUpdateSurface(ctx context.Context, ps *pipeState) error {
	phiIntra := edt.SignedOfSet(ps.intraLabels, brainSet, 0).SmoothGaussian(1.0)
	sr, err := surface.EvolveContext(ctx, ps.relaxedSurf,
		surface.SignedDistanceForce{Phi: phiIntra}, p.cfg.Surface)
	if err != nil {
		return err
	}
	ps.surfRes = sr
	return nil
}

// stageUpdateSolve runs the biomechanical simulation incrementally:
// patch the right-hand side for the boundary displacements that
// changed, keep the stiffness matrix and its preconditioner factors,
// and warm-start GMRES from the previous displacement field.
//
//lint:stage name=update-solve deps=update-surface inputs=sys,surfRes outputs=solveRes
func (p *Pipeline) stageUpdateSolve(ctx context.Context, ps *pipeState) error {
	cfg := p.cfg
	cache, sys, upd := ps.cache, ps.sys, ps.res.Update
	changed, err := sys.PatchDirichlet(ctx, ps.surfRes.BoundaryConditions())
	if err != nil {
		return err
	}
	upd.DOFsPatched = changed
	sopts := cfg.Solver
	if cfg.RecordSolveHistory {
		sopts.RecordHistory = true
	}
	solveRes, err := sys.SolveWarmContext(ctx, cache.prevU, sopts)
	if solveRes != nil {
		sp := obs.SpanFromContext(ctx)
		sp.SetAttr("solver_iterations", solveRes.Stats.Iterations)
		sp.SetAttr("solver_converged", solveRes.Stats.Converged)
		sp.SetAttr("solver_final_rel_residual", solveRes.Stats.FinalResRel)
	}
	if err != nil {
		return err
	}
	ps.solveRes = solveRes
	upd.PCCacheHit = solveRes.PCCacheHit
	upd.WarmStarted = solveRes.Stats.WarmStarted
	upd.EntryResRel = solveRes.Stats.EntryResRel
	if cache.coldIterations > solveRes.Stats.Iterations {
		upd.IterationsSaved = cache.coldIterations - solveRes.Stats.Iterations
	}
	cache.prevU = solveRes.U
	return nil
}

// stageUpdateResample rasterizes the solution through the cached
// interpolation table as a dense gather; inversion and warping match
// the cold path exactly.
//
//lint:stage name=update-resample deps=update-solve inputs=intraop,alignedPreop,sys,solveRes
func (p *Pipeline) stageUpdateResample(_ context.Context, ps *pipeState) error {
	res, cache, sys := ps.res, ps.cache, ps.sys
	nodeU := ps.solveRes.NodeU
	if cache.interp == nil {
		cache.interp = sys.BuildInterpTable(ps.intraop.Grid)
	}
	res.Forward = cache.interp.Apply(nodeU)
	res.Backward = res.Forward.Invert(4)
	res.Warped = res.Backward.WarpScalar(ps.alignedPreop)
	return nil
}
