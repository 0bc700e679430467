// Package core orchestrates the paper's intraoperative registration
// pipeline (its Figure 1): rigid MI registration of the intraoperative
// scan to the preoperative frame, k-NN tissue classification with the
// spatially varying localization model, active-surface correspondence
// detection between the two brain surfaces, biomechanical FEM
// simulation of the implied volumetric deformation, and resampling of
// the preoperative data into the intraoperative configuration. Each
// stage is timed, producing the timeline of the paper's Figure 6, and
// match-quality metrics quantify what the paper shows visually in its
// Figures 4 and 5.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/classify"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/solver"
	"repro/internal/surface"
	"repro/internal/transform"
	"repro/internal/volume"
)

// Config parameterizes the pipeline.
type Config struct {
	// MeshCellSize is the tetrahedral mesh resolution in voxels.
	MeshCellSize int
	// Materials is the biomechanical constitutive model.
	Materials fem.Table
	// Ranks is the parallelism degree for assembly and solve (the
	// paper's CPU count).
	Ranks int
	// Register configures the rigid MI registration.
	Register register.Options
	// Surface configures the active surface evolution.
	Surface surface.Options
	// Solver configures the GMRES solve.
	Solver solver.Options
	// KNN, PrototypesPerClass and EDTSaturation configure the tissue
	// classification stage.
	KNN                int
	PrototypesPerClass int
	EDTSaturation      float64
	// UseBCCMesh selects the body-centered-cubic mesher (the paper's
	// proposed "more regular connectivity" lattice) instead of the Kuhn
	// marching-tetrahedra split.
	UseBCCMesh bool
	// SnapMesh conforms the mesh's brain-surface nodes to the smooth
	// segmentation boundary (removing the marching-tetrahedra voxel
	// staircase from the FEM geometry) and re-smooths the interior.
	SnapMesh bool
	// SkipRigid bypasses the rigid registration (for scan pairs already
	// in one frame, or when benchmarking later stages in isolation).
	SkipRigid bool
	Seed      int64
	// RecordSolveHistory requests the per-iteration GMRES residual
	// history (Result.SolveStats.History) without the caller having to
	// construct the solver directly: it is OR-ed into
	// Solver.RecordHistory for the biomechanical solve. Trace spans
	// attach the history per restart cycle when a tracer is active.
	RecordSolveHistory bool
	// Observer, when non-nil, receives per-stage progress events and
	// counters snapshots while a registration runs (see Observer). It is
	// ignored by Validate.
	Observer Observer
	// ArtifactStore, when non-nil, caches the content-addressed outputs
	// of the pure preoperative stages (EDT localization channels, mesh
	// generation, surface relaxation) keyed on their declared inputs
	// and Config fields, so sessions sharing a preop volume skip those
	// stages. The store may be shared across sessions and processes;
	// it is read by the DAG executor only, never by stage bodies, and
	// is ignored by Validate.
	ArtifactStore *artifact.Store
}

// Validate reports configuration errors instead of silently patching
// them: out-of-range MeshCellSize, Ranks, KNN, PrototypesPerClass or
// EDTSaturation. New and the service layer both call it; New defers the
// reported error to the first Run so that the chained
// core.New(cfg).Run(...) idiom keeps working.
func (c Config) Validate() error {
	var errs []error
	if c.MeshCellSize < 1 {
		errs = append(errs, fmt.Errorf("MeshCellSize %d out of range (want >= 1 voxel)", c.MeshCellSize))
	}
	if c.Ranks < 1 {
		errs = append(errs, fmt.Errorf("Ranks %d out of range (want >= 1)", c.Ranks))
	}
	if c.KNN < 1 {
		errs = append(errs, fmt.Errorf("KNN %d out of range (want >= 1)", c.KNN))
	}
	if c.PrototypesPerClass < 1 {
		errs = append(errs, fmt.Errorf("PrototypesPerClass %d out of range (want >= 1)", c.PrototypesPerClass))
	}
	if c.EDTSaturation <= 0 {
		errs = append(errs, fmt.Errorf("EDTSaturation %g out of range (want > 0 mm)", c.EDTSaturation))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("core: invalid config: %w", errors.Join(errs...))
}

// observer returns the configured observer or a no-op stand-in.
func (c Config) observer() Observer {
	if c.Observer != nil {
		return c.Observer
	}
	return nopObserver{}
}

// DefaultConfig returns the configuration used throughout the
// reproduction's experiments.
func DefaultConfig() Config {
	return Config{
		MeshCellSize:       2,
		Materials:          fem.HomogeneousBrain(),
		Ranks:              4,
		Register:           register.DefaultOptions(),
		Surface:            surface.DefaultOptions(),
		Solver:             solver.DefaultOptions(),
		KNN:                5,
		PrototypesPerClass: 30,
		EDTSaturation:      10,
		Seed:               1,
	}
}

// StageTiming records the wall-clock time of one pipeline stage — one
// bar of the paper's Figure 6 timeline.
type StageTiming struct {
	Name    string
	Elapsed time.Duration
}

// Result is the output of one intraoperative registration.
type Result struct {
	// Rigid is the estimated scanner-frame alignment.
	Rigid transform.Rigid
	// RigidDiag reports the MI registration diagnostics.
	RigidDiag register.Result
	// IntraopLabels is the intraoperative tissue classification.
	IntraopLabels *volume.Labels
	// Surface is the active-surface correspondence result.
	Surface *surface.Result
	// SolveStats reports the FEM solver behaviour.
	SolveStats solver.Stats
	// NodeDisplacements is the solved volumetric deformation at the
	// mesh nodes (forward: preop position -> intraop position).
	NodeDisplacements []geom.Vec3
	// Mesh is the tetrahedral model of the (aligned) preoperative head.
	Mesh *mesh.Mesh
	// Forward is the dense forward displacement field.
	Forward *volume.Field
	// Backward is its inverse in the backward-warp convention: warping
	// the aligned preop scan with it produces the simulated match to
	// the intraoperative scan (the paper's Figure 4c).
	Backward *volume.Field
	// Warped is the aligned preoperative scan deformed into the
	// intraoperative configuration.
	Warped *volume.Scalar
	// AlignedPreop is the rigidly aligned preoperative scan (the
	// rigid-only baseline the paper compares against).
	AlignedPreop *volume.Scalar
	// Timings is the per-stage timeline (Figure 6).
	Timings []StageTiming

	// Incremental marks a result produced by the streaming update path
	// (Session.Update): the preop-only stages (rigid alignment, EDT
	// localization channels, mesh generation, surface relaxation) were
	// reused from the session baseline instead of recomputed.
	Incremental bool
	// Update reports the incremental-path diagnostics; nil on cold runs.
	Update *IncrementalStats

	// Degraded marks a rigid-only fallback result: the context deadline
	// expired after the surface stage, so the biomechanical refinement
	// was abandoned and Warped is just the rigidly aligned preoperative
	// scan — the paper's clinical fallback when the time budget runs
	// out. NodeDisplacements, Forward and Backward are nil.
	Degraded bool
	// DegradedReason says which stage the deadline interrupted.
	DegradedReason string

	// Match-quality metrics inside the brain mask (Figure 4d analogue):
	// mean absolute intensity difference to the intraoperative scan
	// after rigid alignment only, and after the biomechanical match.
	RigidMeanAbsDiff float64
	MatchMeanAbsDiff float64

	// PeakVonMises and MeanVonMises summarize the tissue stress implied
	// by the recovered deformation (Pa) — the "quantitative monitoring
	// of treatment progress" the paper's introduction promises.
	PeakVonMises float64
	MeanVonMises float64
}

// TotalTime returns the summed stage time.
func (r *Result) TotalTime() time.Duration {
	var t time.Duration
	for _, s := range r.Timings {
		t += s.Elapsed
	}
	return t
}

// Timeline renders the Figure 6 analogue as text.
func (r *Result) Timeline() string {
	var b strings.Builder
	b.WriteString("Timeline of intraoperative image processing\n")
	for _, s := range r.Timings {
		fmt.Fprintf(&b, "  %-28s %10.3fs\n", s.Name, s.Elapsed.Seconds())
	}
	fmt.Fprintf(&b, "  %-28s %10.3fs\n", "TOTAL", r.TotalTime().Seconds())
	if r.Degraded {
		fmt.Fprintf(&b, "  DEGRADED: rigid-only result (%s)\n", r.DegradedReason)
	}
	return b.String()
}

// Pipeline runs intraoperative registrations against one preoperative
// preparation.
type Pipeline struct {
	cfg Config
	// cfgErr holds the Validate error of an invalid configuration; it
	// is returned by Run/RunContext so the core.New(cfg).Run(...) call
	// chain keeps compiling while still surfacing the problem.
	cfgErr error
}

// New creates a pipeline with the given configuration. The
// configuration is validated (see Config.Validate); a validation error
// is reported by the first Run or RunContext call.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg, cfgErr: cfg.Validate()}
}

// brainSet reports whether a label belongs to the intracranial tissues
// deformed by the biomechanical model.
func brainSet(lab volume.Label) bool {
	switch lab {
	case volume.LabelBrain, volume.LabelVentricle, volume.LabelTumor,
		volume.LabelFalx, volume.LabelResection:
		return true
	}
	return false
}

// Run executes the full intraoperative pipeline with a background
// context; see RunContext.
func (p *Pipeline) Run(preop *volume.Scalar, preopLabels *volume.Labels, intraop *volume.Scalar) (*Result, error) {
	return p.RunContext(context.Background(), preop, preopLabels, intraop)
}

// RunContext executes the full intraoperative pipeline: preop and
// preopLabels are the preoperative preparation; intraop is the newly
// acquired scan. The context bounds the run: cancellation or deadline
// expiry aborts the current stage promptly (within one GMRES restart
// cycle during the solve) and returns the context error wrapped in a
// *StageError identifying the interrupted stage. One exception
// implements the paper's clinical fallback: if the *deadline* expires
// after the surface stage has completed, the rigid-only result is
// returned, marked Degraded, instead of an error — the surgeon still
// gets the rigid alignment on time.
func (p *Pipeline) RunContext(ctx context.Context, preop *volume.Scalar, preopLabels *volume.Labels, intraop *volume.Scalar) (*Result, error) {
	res, _, err := p.runContext(ctx, preop, preopLabels, intraop, nil, nil)
	return res, err
}

// runContext is the shared implementation: when cl is non-nil its
// prototypes are refreshed from the new scan (the paper's automatic
// statistical model update for successive intraoperative acquisitions)
// instead of sampling fresh ones. When cache is non-nil the run fills
// it with the baseline artifacts the incremental update path reuses.
// With a tracer on the context (see package obs) the whole run becomes
// a span hierarchy: pipeline.run → per-stage spans → the nested
// solver/assembly/classification spans.
func (p *Pipeline) runContext(ctx context.Context, preop *volume.Scalar, preopLabels *volume.Labels,
	intraop *volume.Scalar, cl *classify.Classifier, cache *sessionCache) (*Result, *classify.Classifier, error) {
	if p.cfgErr != nil {
		return nil, nil, p.cfgErr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if preop == nil || preopLabels == nil || intraop == nil {
		return nil, nil, fmt.Errorf("core: nil input volume")
	}
	if !preop.Grid.SameShape(preopLabels.Grid) {
		return nil, nil, fmt.Errorf("core: preop scan %v and labels %v differ in shape",
			preop.Grid, preopLabels.Grid)
	}
	ctx, runSpan := obs.StartSpan(ctx, obs.SpanPipelineRun)
	var runErr error
	defer func() { runSpan.End(runErr) }()
	res, cl, err := p.runStages(ctx, preop, preopLabels, intraop, cl, cache)
	if res != nil {
		runSpan.SetAttr("degraded", res.Degraded)
	}
	runErr = err
	return res, cl, err
}

// newStageRunner returns the stage executor shared by the cold and
// incremental paths: it times one pipeline stage, emits the observer
// events and a trace span, and attributes any failure (including
// context cancellation checked on entry) to the stage via *StageError.
// The stage body receives a derived context so work it starts (solver
// restart cycles, classification batches, assembly) nests under the
// stage span.
func newStageRunner(ctx context.Context, ob Observer, res *Result) func(name string, fn func(ctx context.Context) error) error {
	return func(name string, fn func(ctx context.Context) error) error {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: name, Err: err}
		}
		sctx, span := obs.StartSpan(ctx, name)
		// The span carries the raw stage error (the StageError wrap is
		// for callers); the deferred End survives a panicking stage body.
		var ferr error
		defer func() { span.End(ferr) }()
		span.SetAttr("kind", "stage")
		ob.StageStart(name)
		t0 := time.Now()
		ferr = fn(sctx)
		elapsed := time.Since(t0)
		res.Timings = append(res.Timings, StageTiming{Name: name, Elapsed: elapsed})
		ob.StageDone(name, elapsed, ferr)
		if ferr != nil {
			return &StageError{Stage: name, Err: ferr}
		}
		return nil
	}
}

// registerDAG declares the full-registration DAG. The literal fields
// must mirror the //lint:stage contract on each run method — the
// stagedag analyzer cross-checks them — and the declared order groups
// consecutive same-bucket nodes into the six classic timed stages.
func (p *Pipeline) registerDAG() []stageNode {
	return []stageNode{
		{name: "rigid-align", bucket: StageRigid,
			inputs:  []string{"preop", "preopLabels", "intraop"},
			outputs: []string{"alignedPreop", "alignedLabels"},
			run:     p.stageRigidAlign},
		{name: "preop-edt", bucket: StageClassify,
			deps:    []string{"rigid-align"},
			inputs:  []string{"alignedLabels"},
			outputs: []string{"edtChannels"},
			keys:    []string{"EDTSaturation"},
			pure:    true,
			run:     p.stagePreopEDT},
		{name: "classify", bucket: StageClassify,
			deps:    []string{"rigid-align", "preop-edt"},
			inputs:  []string{"intraop", "alignedPreop", "alignedLabels", "edtChannels"},
			outputs: []string{"intraLabels"},
			run:     p.stageClassify},
		{name: "preop-mesh", bucket: StageMesh,
			deps:    []string{"rigid-align"},
			inputs:  []string{"alignedLabels"},
			outputs: []string{"mesh", "brainSurf"},
			keys:    []string{"MeshCellSize", "UseBCCMesh", "SnapMesh"},
			pure:    true,
			run:     p.stagePreopMesh},
		{name: "preop-relax", bucket: StageSurface,
			deps:    []string{"rigid-align", "preop-mesh"},
			inputs:  []string{"alignedLabels", "brainSurf"},
			outputs: []string{"relaxedSurf"},
			keys:    []string{"Surface"},
			pure:    true,
			run:     p.stagePreopRelax},
		{name: "surface-displace", bucket: StageSurface,
			deps:    []string{"preop-relax", "classify"},
			inputs:  []string{"relaxedSurf", "intraLabels"},
			outputs: []string{"surfRes"},
			run:     p.stageSurfaceDisplace},
		{name: "preop-assemble", bucket: StageSolve,
			deps:    []string{"preop-mesh"},
			inputs:  []string{"mesh"},
			outputs: []string{"sys"},
			keys:    []string{"Materials", "Ranks"},
			pure:    true,
			run:     p.stagePreopAssemble},
		{name: "solve", bucket: StageSolve,
			deps:    []string{"preop-assemble", "surface-displace"},
			inputs:  []string{"sys", "surfRes"},
			outputs: []string{"solveRes"},
			run:     p.stageSolve},
		{name: "preop-interp", bucket: StageResample,
			deps:    []string{"preop-assemble"},
			inputs:  []string{"sys", "intraop"},
			outputs: []string{"interp"},
			pure:    true,
			run:     p.stagePreopInterp},
		{name: "resample", bucket: StageResample,
			deps:   []string{"rigid-align", "preop-interp", "solve"},
			inputs: []string{"alignedPreop", "interp", "solveRes"},
			run:    p.stageResample},
	}
}

// runStages executes the registration DAG (the six reporting stages of
// the paper's Figure 6 timeline).
func (p *Pipeline) runStages(ctx context.Context, preop *volume.Scalar, preopLabels *volume.Labels,
	intraop *volume.Scalar, cl *classify.Classifier, cache *sessionCache) (*Result, *classify.Classifier, error) {
	if p.cfg.SkipRigid && !preop.Grid.SameShape(intraop.Grid) {
		// Even without rigid alignment the downstream stages need the
		// preop data on the intraop grid.
		return nil, nil, fmt.Errorf("core: SkipRigid requires matching grids, got %v vs %v",
			preop.Grid, intraop.Grid)
	}
	res := &Result{}
	ps := &pipeState{
		preop: preop, preopLabels: preopLabels, intraop: intraop,
		cl: cl, cache: cache, res: res,
	}
	err := p.runDAG(ctx, p.registerDAG(), ps, newStageRunner(ctx, p.cfg.observer(), res))
	return p.finishDAG(ctx, err, ps)
}

// stageRigidAlign aligns the preoperative data to the intraoperative
// frame by MI maximization (or passes it through under SkipRigid).
//
//lint:stage name=rigid-align inputs=preop,preopLabels,intraop outputs=alignedPreop,alignedLabels
func (p *Pipeline) stageRigidAlign(ctx context.Context, ps *pipeState) error {
	if p.cfg.SkipRigid {
		ps.res.Rigid = transform.Identity(ps.intraop.Grid.Center())
		ps.alignedPreop = ps.preop
		ps.alignedLabels = ps.preopLabels
		return nil
	}
	init := register.CenterOfMassInit(ps.intraop, ps.preop, p.cfg.Register.Threshold)
	diag, err := register.AlignContext(ctx, ps.intraop, ps.preop, init, p.cfg.Register)
	if err != nil {
		return err
	}
	ps.res.Rigid = diag.Transform
	ps.res.RigidDiag = diag
	ps.alignedPreop = transform.ResampleScalar(ps.preop, diag.Transform, ps.intraop.Grid)
	ps.alignedLabels = transform.ResampleLabels(ps.preopLabels, diag.Transform, ps.intraop.Grid)
	return nil
}

// stagePreopEDT computes the classifier's spatial localization
// channels — saturated distance maps of the brain, ventricle and CSF
// compartments — from the aligned preoperative segmentation alone, so
// the node is preop-pure and content-addressable.
//
//lint:stage name=preop-edt deps=rigid-align inputs=alignedLabels outputs=edtChannels key=EDTSaturation pure
func (p *Pipeline) stagePreopEDT(_ context.Context, ps *pipeState) error {
	ps.edtChannels = []*volume.Scalar{
		edt.Saturated(ps.alignedLabels, volume.LabelBrain, p.cfg.EDTSaturation),
		edt.Saturated(ps.alignedLabels, volume.LabelVentricle, p.cfg.EDTSaturation),
		edt.Saturated(ps.alignedLabels, volume.LabelCSF, p.cfg.EDTSaturation),
	}
	return nil
}

// stageClassify labels the intraoperative scan: k-NN over intensity
// plus the localization channels. The first scan samples the
// statistical model's prototypes; later scans refresh the recorded
// prototypes from the new image (the paper's automatic model update).
//
//lint:stage name=classify deps=rigid-align,preop-edt inputs=intraop,alignedPreop,alignedLabels,edtChannels outputs=intraLabels
func (p *Pipeline) stageClassify(ctx context.Context, ps *pipeState) error {
	cfg := p.cfg
	channels := make([]*volume.Scalar, 0, 1+len(ps.edtChannels))
	channels = append(channels, ps.intraop)
	channels = append(channels, ps.edtChannels...)
	if ps.cl == nil {
		// First scan: build the statistical model. Prototype features
		// must come from the same modality as the scan being
		// classified: read intensity from the aligned preop scan at the
		// prototype voxels, localization channels as-is.
		protoChannels := append([]*volume.Scalar{ps.alignedPreop}, ps.edtChannels...)
		protos, err := classify.SamplePrototypesContext(ctx, ps.alignedLabels, protoChannels,
			cfg.PrototypesPerClass, cfg.Seed)
		if err != nil {
			return err
		}
		ps.cl = &classify.Classifier{
			K:          cfg.KNN,
			Prototypes: protos,
			Weights:    []float64{1, 8, 8, 8},
			Workers:    cfg.Ranks,
		}
	} else {
		// Subsequent scan: the recorded prototype locations update the
		// statistical model automatically from the new image. Prototypes
		// whose tissue changed between scans (resection, shift gap) are
		// rejected as per-class outliers.
		if err := ps.cl.RefreshFeaturesRobustContext(ctx, channels, 4, 5); err != nil {
			return err
		}
		ps.cl.Workers = cfg.Ranks
	}
	var err error
	// The k-d tree wins once the prototype set is large; below that the
	// brute-force scan's cache behaviour is better.
	if len(ps.cl.Prototypes) >= 128 {
		ps.intraLabels, err = ps.cl.ClassifyKDContext(ctx, channels)
	} else {
		ps.intraLabels, err = ps.cl.ClassifyContext(ctx, channels)
	}
	return err
}

// stagePreopMesh meshes the aligned preoperative anatomy and extracts
// its brain surface; under SnapMesh the surface nodes conform to the
// smooth segmentation boundary first. Preop-pure: the mesh depends on
// the aligned segmentation and the meshing config only.
//
//lint:stage name=preop-mesh deps=rigid-align inputs=alignedLabels outputs=mesh,brainSurf key=MeshCellSize,UseBCCMesh,SnapMesh pure
func (p *Pipeline) stagePreopMesh(_ context.Context, ps *pipeState) error {
	mesher := mesh.FromLabels
	if p.cfg.UseBCCMesh {
		mesher = mesh.FromLabelsBCC
	}
	m, err := mesher(ps.alignedLabels, mesh.Options{
		CellSize: p.cfg.MeshCellSize,
		Include:  brainSet,
	})
	if err != nil {
		return err
	}
	surf, err := m.ExtractSurface(brainSet)
	if err != nil {
		return err
	}
	if p.cfg.SnapMesh {
		// Conform the FEM geometry to the smooth preoperative brain
		// boundary, then relax the interior lattice.
		phiPre := edt.SignedOfSet(ps.alignedLabels, brainSet, 0)
		m.SnapToLevelSet(surf.NodeID, phiPre, float64(p.cfg.MeshCellSize))
		m.Smooth(3, 0.5)
		// Re-extract so the surface carries the snapped positions.
		if surf, err = m.ExtractSurface(brainSet); err != nil {
			return err
		}
	}
	ps.mesh = m
	ps.brainSurf = surf
	return nil
}

// stagePreopRelax relaxes the marching-tetrahedra brain surface onto
// the smooth preoperative boundary, so the sub-voxel discretization
// correction does not contaminate the measured intraoperative motion.
// Preop-pure: updates re-evolve this relaxed surface onto each new
// intraoperative boundary, keeping the Dirichlet row set stable.
//
//lint:stage name=preop-relax deps=rigid-align,preop-mesh inputs=alignedLabels,brainSurf outputs=relaxedSurf key=Surface pure
func (p *Pipeline) stagePreopRelax(ctx context.Context, ps *pipeState) error {
	// The distance field is lightly smoothed so its level set does not
	// inherit the voxel (or thick-slice) staircase of the label map,
	// which would otherwise make the evolution oscillate.
	phiPre := edt.SignedOfSet(ps.alignedLabels, brainSet, 0).SmoothGaussian(1.0)
	relaxed, err := surface.EvolveContext(ctx, ps.brainSurf, surface.SignedDistanceForce{Phi: phiPre}, p.cfg.Surface)
	if err != nil {
		return err
	}
	ps.relaxedSurf = relaxed.Final
	return nil
}

// stageSurfaceDisplace deforms the relaxed preoperative brain surface
// onto the classified intraoperative brain: these displacements are
// the physical surface correspondences driving the FEM solve.
//
//lint:stage name=surface-displace deps=preop-relax,classify inputs=relaxedSurf,intraLabels outputs=surfRes
func (p *Pipeline) stageSurfaceDisplace(ctx context.Context, ps *pipeState) error {
	phiIntra := edt.SignedOfSet(ps.intraLabels, brainSet, 0).SmoothGaussian(1.0)
	sr, err := surface.EvolveContext(ctx, ps.relaxedSurf, surface.SignedDistanceForce{Phi: phiIntra}, p.cfg.Surface)
	if err != nil {
		return err
	}
	ps.surfRes = sr
	return nil
}

// stagePreopAssemble assembles the FEM stiffness system on the
// preoperative mesh. Preop-pure — and by far the most expensive pure
// stage: the matrix is a deterministic function of the mesh geometry
// and the constitutive model alone. The intraoperative boundary
// conditions are eliminated later (stageSolve applies Dirichlet rows in
// place on this run's private System, which on a cache hit is a freshly
// decoded copy), so the assembled pre-Dirichlet system is
// content-addressable.
//
//lint:stage name=preop-assemble deps=preop-mesh inputs=mesh outputs=sys key=Materials,Ranks pure
func (p *Pipeline) stagePreopAssemble(ctx context.Context, ps *pipeState) error {
	sys, err := fem.AssembleContext(ctx, ps.mesh, p.cfg.Materials, par.Even(ps.mesh.NumNodes(), p.cfg.Ranks))
	if err != nil {
		return err
	}
	ps.sys = sys
	return nil
}

// stageSolve eliminates the surface-displacement boundary conditions
// into the assembled system and solves for the volumetric deformation.
// The assembly work counters travel with the cached System, so the
// observer and trace attributes report them identically on hit and miss
// runs.
//
//lint:stage name=solve deps=preop-assemble,surface-displace inputs=sys,surfRes outputs=solveRes
func (p *Pipeline) stageSolve(ctx context.Context, ps *pipeState) error {
	cfg := p.cfg
	sys := ps.sys
	snap := sys.Assembly.Snapshot()
	cfg.observer().StageCounters(StageSolve, snap)
	sp := obs.SpanFromContext(ctx)
	sp.SetAttr("assembly_flops", snap.TotalFlops)
	sp.SetAttr("assembly_imbalance", snap.Imbalance)
	if err := sys.ApplyDirichlet(ps.surfRes.BoundaryConditions()); err != nil {
		return err
	}
	sopts := cfg.Solver
	if cfg.RecordSolveHistory {
		sopts.RecordHistory = true
	}
	sr, err := sys.SolveContext(ctx, sopts)
	if sr != nil {
		sp.SetAttr("solver_iterations", sr.Stats.Iterations)
		sp.SetAttr("solver_converged", sr.Stats.Converged)
		sp.SetAttr("solver_final_rel_residual", sr.Stats.FinalResRel)
	}
	if err != nil {
		return err
	}
	ps.solveRes = sr
	return nil
}

// stagePreopInterp builds the voxel→element interpolation table of the
// assembled mesh on the intraoperative grid. Preop-pure: the table
// depends on the mesh geometry (via the assembled system) and the grid
// alone — applying it reproduces System.DisplacementField bit-exactly —
// so the rasterization cost is content-addressable alongside the other
// preoperative stages.
//
//lint:stage name=preop-interp deps=preop-assemble inputs=sys,intraop outputs=interp pure
func (p *Pipeline) stagePreopInterp(_ context.Context, ps *pipeState) error {
	ps.interp = ps.sys.BuildInterpTable(ps.intraop.Grid)
	return nil
}

// stageResample resamples the preoperative data through the computed
// volumetric deformation (the paper's ~0.5 s display step). Sessions
// keep the voxel→element interpolation table built by preop-interp, so
// every incremental update rasterizes its solution through it as a
// dense gather.
//
//lint:stage name=resample deps=rigid-align,preop-interp,solve inputs=alignedPreop,interp,solveRes
func (p *Pipeline) stageResample(_ context.Context, ps *pipeState) error {
	res, cache := ps.res, ps.cache
	nodeU := ps.solveRes.NodeU
	if cache != nil {
		cache.interp = ps.interp
	}
	res.Forward = ps.interp.Apply(nodeU)
	res.Backward = res.Forward.Invert(4)
	res.Warped = res.Backward.WarpScalar(ps.alignedPreop)
	return nil
}

// stressSummary fills the Von Mises stress summary of res from the
// solved deformation (best effort: degenerate elements skip it).
func stressSummary(sys *fem.System, nodeU []geom.Vec3, mats fem.Table, res *Result) {
	strains, err := sys.Strains(nodeU)
	if err != nil {
		return
	}
	stresses, err := sys.Stresses(strains, mats)
	if err != nil {
		return
	}
	sum := 0.0
	for _, st := range stresses {
		vm := st.VonMises()
		sum += vm
		if vm > res.PeakVonMises {
			res.PeakVonMises = vm
		}
	}
	if len(stresses) > 0 {
		res.MeanVonMises = sum / float64(len(stresses))
	}
}

// matchMetrics computes the match-quality metrics (Figure 4d analogue).
// The paper judges the match "by the very small intensity differences
// at the boundary of the simulated deformed brain and the air gap
// inside the skull": accordingly the metric is computed over a band
// around the intraoperative brain boundary, where residual differences
// are attributable to misregistration rather than to resected tissue
// (whose intensity no deformation can reproduce).
func matchMetrics(res *Result, intraop, alignedPreop *volume.Scalar, intraLabels *volume.Labels) {
	band := brainBoundaryBand(intraLabels)
	if d, err := alignedPreop.AbsDiff(intraop); err == nil {
		res.RigidMeanAbsDiff = d.ComputeStats(band).Mean
	}
	if d, err := res.Warped.AbsDiff(intraop); err == nil {
		res.MatchMeanAbsDiff = d.ComputeStats(band).Mean
	}
}

// brainBoundaryBand masks the voxels within a few millimetres of the
// intraoperative brain boundary, where the paper judges match quality.
func brainBoundaryBand(intraLabels *volume.Labels) []bool {
	phi := edt.SignedOfSet(intraLabels, brainSet, 0)
	band := make([]bool, len(phi.Data))
	const bandWidth = 3.0 // mm
	for i, v := range phi.Data {
		if v >= -bandWidth && v <= bandWidth {
			band[i] = true
		}
	}
	return band
}

// degrade implements the clinical fallback: when the context *deadline*
// (not an explicit cancellation) expires after the surface stage — i.e.
// during the biomechanical solve or the resampling — the scan is not
// failed; the rigid-only alignment is delivered instead, marked as
// Degraded. It reports whether the fallback applied, filling res in
// place when it did.
func (p *Pipeline) degrade(ctx context.Context, err error, res *Result, intraop, alignedPreop *volume.Scalar, intraLabels *volume.Labels) bool {
	if !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StageError
	stageName := "unknown stage"
	if errors.As(err, &se) {
		stageName = se.Stage
	}
	res.Degraded = true
	res.DegradedReason = fmt.Sprintf("deadline expired during %s", stageName)
	// The in-flight record of the decision: which stage the deadline
	// interrupted, visible in the flight recorder even when the caller
	// discards the Result.
	obs.Emit(ctx, obs.EventPipelineDegraded, map[string]any{"stage": stageName})
	// The delivered image is the rigid alignment; both match metrics
	// describe it, so downstream comparisons correctly see no
	// biomechanical improvement.
	res.Warped = alignedPreop
	res.NodeDisplacements = nil
	res.Forward, res.Backward = nil, nil
	band := brainBoundaryBand(intraLabels)
	if d, derr := alignedPreop.AbsDiff(intraop); derr == nil {
		res.RigidMeanAbsDiff = d.ComputeStats(band).Mean
		res.MatchMeanAbsDiff = res.RigidMeanAbsDiff
	}
	return true
}
