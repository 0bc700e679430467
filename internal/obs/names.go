package obs

// The brainsim telemetry vocabulary: every span name, metric name and
// structured-event name the simulator's instrumentation emits, in one
// place. Pipeline stage spans use the core.Stage* constants (the stage
// vocabulary of internal/core); everything below a stage uses the span
// names here. Tooling that consumes the telemetry — dashboards over the
// /metrics exposition, the JSONL trace stream, flight-recorder dumps —
// and the simlint `spanend` and `metricname` analyzers, which reject
// span- or metric-name literals outside this vocabulary, all key off
// these lists; adding a span, metric or event means adding its name
// here first.
const (
	// SpanPipelineRun is the root span of one intraoperative
	// registration (parents the six stage spans).
	SpanPipelineRun = "pipeline.run"
	// SpanPipelineUpdate is the root span of one incremental re-solve:
	// a streaming intraoperative update against a registered baseline,
	// running only the intraoperative stage subset.
	SpanPipelineUpdate = "pipeline.update"
	// SpanFEMPatchBC covers the Dirichlet delta patch of the incremental
	// path: right-hand-side updates for the boundary displacements that
	// changed since the previous solve, with the stiffness matrix kept.
	SpanFEMPatchBC = "fem.patch_bc"
	// SpanFEMAssemble covers the parallel element-stiffness assembly.
	SpanFEMAssemble = "fem.assemble"
	// SpanFEMSolve covers preconditioner setup plus the Krylov solve; it
	// parents the per-cycle SpanGMRESCycle spans.
	SpanFEMSolve = "fem.solve"
	// SpanGMRESCycle is one GMRES restart cycle, with the entry/exit
	// relative residuals (and, when recorded, the residual history of
	// the cycle) attached.
	SpanGMRESCycle = "gmres.cycle"
	// SpanKNNBatch is one classification worker's voxel batch — the
	// straggler-detection granule of the k-NN sweep.
	SpanKNNBatch = "knn.batch"
	// SpanSurfaceEvolve is one active-surface evolution with its
	// convergence outcome attached.
	SpanSurfaceEvolve = "surface.evolve"
)

// SpanNames maps each vocabulary span name to a one-line description,
// for discoverability (simlint -list, dashboards, docs).
var SpanNames = map[string]string{
	SpanPipelineRun:    "root span of one intraoperative registration",
	SpanPipelineUpdate: "root span of one incremental streaming update",
	SpanFEMAssemble:    "parallel element-stiffness assembly",
	SpanFEMSolve:       "preconditioner setup + Krylov solve",
	SpanFEMPatchBC:     "Dirichlet delta patch for an incremental re-solve",
	SpanGMRESCycle:     "one GMRES restart cycle",
	SpanKNNBatch:       "one k-NN classification worker batch",
	SpanSurfaceEvolve:  "one active-surface evolution",
}

// KnownSpanName reports whether name belongs to the span vocabulary.
func KnownSpanName(name string) bool {
	_, ok := SpanNames[name]
	return ok
}

// Metric names. The service layer, cmd/brainsim, cmd/bench and the
// runtime collector all publish under this vocabulary, so dashboards
// built against one surface work against the others. The simlint
// `metricname` analyzer rejects Registry.Counter/Gauge/Histogram calls
// whose name literal is not registered here.
const (
	// MetricStageSeconds is the per-stage latency histogram family,
	// labeled {stage="..."} with the core.Stage* names.
	MetricStageSeconds = "brainsim_stage_seconds"
	// MetricStageErrors counts stage executions that failed (including
	// context cancellations), labeled {stage="..."}.
	MetricStageErrors = "brainsim_stage_errors_total"
	// MetricAssemblyFlops totals the per-rank FEM assembly work.
	MetricAssemblyFlops = "brainsim_assembly_flops_total"
	// MetricAssemblyImbalance is the most recent max/mean per-rank
	// assembly work ratio (1.0 = perfectly balanced).
	MetricAssemblyImbalance = "brainsim_assembly_imbalance"
	// MetricAssemblyImbalanceMax is the worst imbalance seen — the
	// quantity the paper's load-balancing discussion revolves around.
	MetricAssemblyImbalanceMax = "brainsim_assembly_imbalance_max"

	// MetricSubmissions counts scan submissions accepted into the queue.
	MetricSubmissions = "brainsim_submissions_total"
	// MetricShed counts submissions rejected with a full queue (load
	// shedding, including early elective-QoS shedding).
	MetricShed = "brainsim_shed_total"
	// MetricScans counts finished scans, labeled {outcome="..."}.
	MetricScans = "brainsim_scans_total"
	// MetricScanSeconds is the per-scan worker wall-clock histogram,
	// labeled {kind="register"|"update"}; its buckets carry job-ID
	// exemplars linking a latency bucket to a concrete trace.
	MetricScanSeconds = "brainsim_scan_seconds"
	// MetricQueueDepth gauges accepted scans waiting for a worker.
	MetricQueueDepth = "brainsim_queue_depth"
	// MetricQueueCapacity gauges the configured queue bound.
	MetricQueueCapacity = "brainsim_queue_capacity"
	// MetricWorkersAlive gauges live worker-pool goroutines.
	MetricWorkersAlive = "brainsim_workers_alive"
	// MetricJobsEvicted counts finished jobs evicted from the bounded
	// admin retention window.
	MetricJobsEvicted = "brainsim_jobs_evicted_total"
	// MetricStageEventsDropped counts per-job stage events dropped
	// because a job exceeded its bounded event history.
	MetricStageEventsDropped = "brainsim_stage_events_dropped_total"

	// MetricUpdateFallbacks counts update submissions that ran as full
	// registrations because the session had no baseline.
	MetricUpdateFallbacks = "brainsim_update_fallbacks_total"
	// MetricWarmItersSaved totals GMRES iterations saved by warm starts.
	MetricWarmItersSaved = "brainsim_warmstart_iterations_saved_total"
	// MetricPCCache counts preconditioner-cache outcomes,
	// labeled {result="hit"|"miss"}.
	MetricPCCache = "brainsim_pc_cache_total"

	// MetricSolverIterationsTotal totals GMRES iterations across scans.
	MetricSolverIterationsTotal = "brainsim_solver_iterations_total"
	// MetricSolverIterations is the per-solve iteration-count histogram —
	// the "why did this session take 40 iterations" distribution.
	MetricSolverIterations = "brainsim_solver_iterations"
	// MetricSolverEntryResidual is the per-solve entry relative residual
	// histogram (1.0 = cold start; ≪ 1 = effective warm start).
	MetricSolverEntryResidual = "brainsim_solver_entry_residual"
	// MetricSolverSolves counts completed biomechanical solves, labeled
	// {converged="true"|"false"}.
	MetricSolverSolves = "brainsim_solver_solves_total"
	// MetricSolverNonConverged counts delivered scans whose solve hit
	// MaxIter without reaching tolerance.
	MetricSolverNonConverged = "brainsim_solver_nonconverged_total"
	// MetricSolverRestarts totals GMRES restart cycles beyond the first.
	MetricSolverRestarts = "brainsim_solver_restarts_total"
	// MetricSolverStagnated totals restart cycles that reduced the
	// residual by less than 1% — the stagnation-detection signal.
	MetricSolverStagnated = "brainsim_solver_stagnated_cycles_total"
	// MetricSolverDiverged counts solves in which some restart cycle
	// ended with a larger residual than it entered with.
	MetricSolverDiverged = "brainsim_solver_diverged_total"

	// MetricFlightDumps counts flight-recorder dumps by trigger,
	// labeled {trigger="degraded"|"fallback"|"shed"|"nonconverged"|"failed"}.
	MetricFlightDumps = "brainsim_flightrecorder_dumps_total"

	// MetricRuntimeHeapBytes gauges the live heap allocation.
	MetricRuntimeHeapBytes = "brainsim_runtime_heap_alloc_bytes"
	// MetricRuntimeGoroutines gauges the goroutine count.
	MetricRuntimeGoroutines = "brainsim_runtime_goroutines"
	// MetricRuntimeGCPauseSeconds is the histogram of individual GC
	// stop-the-world pauses observed since the collector started.
	MetricRuntimeGCPauseSeconds = "brainsim_runtime_gc_pause_seconds"
	// MetricRuntimeGCCycles counts completed GC cycles.
	MetricRuntimeGCCycles = "brainsim_runtime_gc_cycles_total"

	// MetricArtifactHits counts artifact-cache lookups served from the
	// store (memory or disk), i.e. pipeline stages skipped entirely.
	MetricArtifactHits = "brainsim_artifact_cache_hits_total"
	// MetricArtifactMisses counts artifact-cache lookups that had to
	// compute the stage and populate the store.
	MetricArtifactMisses = "brainsim_artifact_cache_misses_total"
	// MetricArtifactBytes gauges the bytes currently resident in the
	// in-memory tier of the artifact cache.
	MetricArtifactBytes = "brainsim_artifact_cache_bytes"
	// MetricArtifactEvictions counts in-memory entries evicted by the
	// LRU byte bound.
	MetricArtifactEvictions = "brainsim_artifact_cache_evictions_total"
)

// MetricNames maps each vocabulary metric name to a one-line
// description (simlint -list, dashboards, docs).
var MetricNames = map[string]string{
	MetricStageSeconds:          "per-stage latency histogram {stage}",
	MetricStageErrors:           "failed stage executions {stage}",
	MetricAssemblyFlops:         "total FEM assembly floating-point work",
	MetricAssemblyImbalance:     "most recent per-rank assembly imbalance",
	MetricAssemblyImbalanceMax:  "worst per-rank assembly imbalance seen",
	MetricSubmissions:           "scan submissions accepted into the queue",
	MetricShed:                  "submissions rejected by load shedding",
	MetricScans:                 "finished scans {outcome}",
	MetricScanSeconds:           "per-scan wall-clock histogram {kind}, job-ID exemplars",
	MetricQueueDepth:            "accepted scans waiting for a worker",
	MetricQueueCapacity:         "configured scan queue bound",
	MetricWorkersAlive:          "live worker-pool goroutines",
	MetricJobsEvicted:           "jobs evicted from the admin retention window",
	MetricStageEventsDropped:    "per-job stage events dropped at the history bound",
	MetricUpdateFallbacks:       "updates that ran as full registrations",
	MetricWarmItersSaved:        "GMRES iterations saved by warm starts",
	MetricPCCache:               "preconditioner cache outcomes {result}",
	MetricSolverIterationsTotal: "GMRES iterations across all delivered scans",
	MetricSolverIterations:      "per-solve GMRES iteration-count histogram",
	MetricSolverEntryResidual:   "per-solve entry relative residual histogram",
	MetricSolverSolves:          "completed solves {converged}",
	MetricSolverNonConverged:    "delivered scans whose solve hit MaxIter",
	MetricSolverRestarts:        "GMRES restart cycles beyond the first",
	MetricSolverStagnated:       "restart cycles with <1% residual reduction",
	MetricSolverDiverged:        "solves with a residual-increasing cycle",
	MetricFlightDumps:           "flight-recorder dumps {trigger}",
	MetricRuntimeHeapBytes:      "live heap allocation bytes",
	MetricRuntimeGoroutines:     "goroutine count",
	MetricRuntimeGCPauseSeconds: "individual GC stop-the-world pauses",
	MetricRuntimeGCCycles:       "completed GC cycles",
	MetricArtifactHits:          "artifact-cache lookups served from the store",
	MetricArtifactMisses:        "artifact-cache lookups that recomputed the stage",
	MetricArtifactBytes:         "bytes resident in the in-memory artifact tier",
	MetricArtifactEvictions:     "in-memory artifact entries evicted by the LRU bound",
}

// KnownMetricName reports whether name belongs to the metric
// vocabulary.
func KnownMetricName(name string) bool {
	_, ok := MetricNames[name]
	return ok
}

// Structured-event names (see Emit and the flight recorder). Events are
// point-in-time records — no duration, unlike spans — describing a
// health-relevant state change; the taxonomy is documented in DESIGN.md.
const (
	// EventSolverSolve is emitted once per GMRES solve with the
	// convergence diagnosis: iterations, restarts, entry/final relative
	// residuals, stagnated cycle count, divergence and convergence flags.
	EventSolverSolve = "solver.solve"
	// EventFEMAssembly is emitted per assembly with element/node counts
	// and the per-rank work balance.
	EventFEMAssembly = "fem.assembly"
	// EventFEMPatch is emitted per incremental Dirichlet patch with the
	// number of DOFs whose prescribed displacement changed.
	EventFEMPatch = "fem.patch"
	// EventJobFallback marks an update job that ran as a full
	// registration because its session had no baseline.
	EventJobFallback = "job.fallback"
	// EventJobShed marks a submission rejected by load shedding.
	EventJobShed = "job.shed"
	// EventJobDegraded marks a job delivered as the rigid-only fallback.
	EventJobDegraded = "job.degraded"
	// EventJobFailed marks a job that finished with an error.
	EventJobFailed = "job.failed"
	// EventPipelineDegraded is emitted by the core pipeline at the
	// moment the deadline fallback fires, naming the interrupted stage —
	// the in-flight counterpart of the service's job.degraded.
	EventPipelineDegraded = "pipeline.degraded"
)

// EventNames maps each vocabulary event name to a one-line description.
var EventNames = map[string]string{
	EventSolverSolve:      "per-solve GMRES convergence diagnosis",
	EventFEMAssembly:      "FEM assembly work and balance summary",
	EventFEMPatch:         "incremental Dirichlet patch summary",
	EventJobFallback:      "update ran as full registration (no baseline)",
	EventJobShed:          "submission rejected by load shedding",
	EventJobDegraded:      "job delivered as rigid-only fallback",
	EventJobFailed:        "job finished with an error",
	EventPipelineDegraded: "deadline fallback fired mid-pipeline",
}

// KnownEventName reports whether name belongs to the event vocabulary.
func KnownEventName(name string) bool {
	_, ok := EventNames[name]
	return ok
}
