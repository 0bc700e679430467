// Command clinbench is the repository's end-to-end benchmark. It drives
// the registration pipeline only through its public API
// (core.NewSession, Session.Register, Session.Update, artifact.New) on
// phantoms it generates from --seed, at the paper's clinical size: a
// size-96 phantom meshed at cell 2, i.e. about 97k equations, solved at
// two ranks. It prints a run record, then one JSON result line.
//
// An untraced run (--trace 0) measures closed-loop ops for --seconds and
// reports the end-to-end metrics. A traced run (--trace 1) records
// stage spans of one op, replays that op's layers one public call at a
// time on the op's own data, repeats the op at one rank, on
// clinical-register registers the case twice through a fresh artifact
// store, and reports the per-layer metrics; its spans are written as
// JSON lines under -out.
// METRICS.md lists every metric with the workloads it should move.
//
//	bash clinbench/run.sh --workload stream-update --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/fem"
	"repro/internal/par"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one op in the run record.
type opRecord struct {
	ShiftMM float64 `json:"shift_mm"`
	WallS   float64 `json:"wall_s"`
	// RefS is the mean of the reference-kernel times measured just
	// before and just after the op.
	RefS     float64 `json:"ref_s"`
	AllocMB  float64 `json:"alloc_mb"`
	RMSMM    float64 `json:"field_rms_mm"`
	RigidMM  float64 `json:"rigid_rms_mm"`
	Iters    int     `json:"gmres_iters"`
	Fail     string  `json:"fail,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
}

// record is the run's context and raw samples, printed before the
// result line so a figure can be traced back to what produced it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Ranks      int     `json:"ranks"`
	Size       int     `json:"size"`
	Cell       int     `json:"cell"`
	Equations  int     `json:"equations"`
	// NNZ is the stored entries of the stiffness matrix as assembled,
	// before Dirichlet elimination.
	NNZ         int                `json:"nnz"`
	Samples     map[string]summary `json:"samples,omitempty"`
	FailRatio   float64            `json:"fail_ratio"`
	FailReasons map[string]int     `json:"fail_reasons,omitempty"`
	Ops         []opRecord         `json:"ops,omitempty"`
	// Derived names the per-layer values computed rather than timed.
	Derived   []string `json:"derived,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// Units of the reported metrics.
var endToEndUnits = map[string]string{
	"latency_p50_s":   "s",
	"alloc_mb":        "MB",
	"field_rms_mm":    "mm",
	"field_rms_ratio": "1",
	"success_ratio":   "1",
	"setup_s":         "s",
}

var derived = []string{"solver.ortho.ms_per_iter", "sparse.spmv.bytes_computed"}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "clinbench: ", 0)
	fs := flag.NewFlagSet("clinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("workload", "", "workload: clinical-register or stream-update")
	seed := fs.Int64("seed", 1, "phantom seed")
	seconds := fs.Float64("seconds", 10, "measuring time of an untraced run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	size := fs.Int("size", defaultSize, "phantom grid size")
	out := fs.String("out", filepath.Join(".bench_build", "clinbench-out"), "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		logger.Printf("--trace must be 0 or 1")
		return 2
	}
	if *trace == 1 {
		// Fail before the run, not after it, on an unwritable directory.
		if err := os.MkdirAll(*out, 0o755); err != nil {
			logger.Print(err)
			return 1
		}
	}
	p := params{size: *size, ranks: defaultRanks, seed: *seed}
	rec := &record{
		Workload: *kind, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Ranks: p.ranks, Size: p.size, Cell: defaultCell,
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, p, rec, *out, logger)
	} else {
		res, err = runUntraced(ctx, p, rec, time.Duration(*seconds*float64(time.Second)), logger)
	}
	if err != nil {
		logger.Print(err)
		return 1
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		logger.Printf("record: %v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logger.Printf("result: %v", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n%s\n", body, line); err != nil {
		logger.Printf("write result: %v", err)
		return 1
	}
	return 0
}

// runUntraced sets the workload up setupRepeats times, then runs
// closed-loop ops until d has passed, at least minOps ops have run and
// the ops form whole periods of the workload's op sequence, and reports
// the end-to-end metrics: medians over the ops, and the median set-up
// time. The reference kernel runs before the first set-up and after
// every set-up and op, and set-up and op times are reported at the
// reference speed (see refKernel).
func runUntraced(ctx context.Context, p params, rec *record, d time.Duration, log *log.Logger) (*result, error) {
	ref := newRefKernel()
	refs := []float64{ref.seconds()}
	var setups []float64
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous set-up's state before collecting, so each
		// set-up starts from the same heap.
		b = nil
		runtime.GC()
		t0 := time.Now()
		nb, err := setup(ctx, rec.Workload, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		refs = append(refs, ref.seconds())
		b = nb
		log.Printf("set-up %d: %.3fs (ref %.4fs)", i+1, setups[i], refs[i+1])
	}
	// The last set-up's closing kernel time opens the first op.
	opRefs := []float64{refs[len(refs)-1]}
	var t tally
	var lat, alloc, rms, ratio []float64
	deadline := time.Now().Add(d)
	for t.attempted < minOps || time.Now().Before(deadline) || !b.periodDone() {
		o := b.runOp(ctx, nil)
		opRefs = append(opRefs, ref.seconds())
		t.add(o.fail)
		opRec := o.record()
		opRec.RefS = (opRefs[len(opRefs)-2] + opRefs[len(opRefs)-1]) / 2
		rec.Ops = append(rec.Ops, opRec)
		lat = append(lat, o.wall.Seconds())
		alloc = append(alloc, o.allocMB)
		if finite(o.rmsMM) {
			rms = append(rms, o.rmsMM)
			ratio = append(ratio, o.rmsMM/o.rigidMM)
		}
		log.Printf("op %d: %.3fs (ref %.4fs) %.0fMB rms %.3f/%.3fmm %s",
			t.attempted, o.wall.Seconds(), opRec.RefS, o.allocMB, o.rmsMM, o.rigidMM, o.fail)
	}
	samples := map[string][]float64{
		"latency_p50_s":   atRefSpeed(lat, opRefs),
		"alloc_mb":        alloc,
		"field_rms_mm":    rms,
		"field_rms_ratio": ratio,
		"setup_s":         atRefSpeed(setups, refs[:len(setups)+1]),
		// The raw wall-clock and reference-kernel times, for the record
		// only.
		"latency_wall_s": lat,
		"setup_wall_s":   setups,
		"ref_s":          slices.Concat(refs, opRefs[1:]),
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	rec.Samples = map[string]summary{}
	for name, xs := range samples {
		s := summarize(xs)
		rec.Samples[name] = s
		if unit, ok := endToEndUnits[name]; ok {
			res.Metrics[name] = metric{Value: orZero(s.Median), Unit: unit}
		}
	}
	res.Metrics["success_ratio"] = metric{Value: 1 - t.failRatio(), Unit: endToEndUnits["success_ratio"]}
	res.Correct = t.failed == 0
	rec.FailRatio, rec.FailReasons = t.failRatio(), t.reasons
	if err := rec.fillProblem(ctx, b); err != nil {
		return nil, err
	}
	return res, nil
}

// runTraced sets the workload up once and runs tracedRun, writing the
// spans to a file under dir.
func runTraced(ctx context.Context, p params, rec *record, dir string, log *log.Logger) (*result, error) {
	b, err := setup(ctx, rec.Workload, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runID := fmt.Sprintf("%s-seed%d-%d", rec.Workload, p.seed, time.Now().UnixNano())
	spans := newRecorder(runID)
	var t tally
	layers, err := tracedRun(ctx, b, spans, &t, log)
	if err != nil {
		return nil, err
	}
	rec.TraceFile = filepath.Join(dir, "trace-"+runID+".jsonl")
	if err := spans.write(rec.TraceFile); err != nil {
		return nil, err
	}
	log.Printf("spans: %s", rec.TraceFile)
	rec.Derived = derived
	rec.FailRatio, rec.FailReasons = t.failRatio(), t.reasons
	if err := rec.fillProblem(ctx, b); err != nil {
		return nil, err
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0, Metrics: map[string]metric{}}
	for name, v := range layers {
		res.Metrics[name] = metric{Value: orZero(v), Unit: layerUnit(name)}
	}
	return res, nil
}

// fillProblem records the problem size of the last registration. The
// matrix's entries are counted on an assembly of its mesh, because
// assembly drops the exact zeros of the element matrices, so no count
// taken from the mesh alone matches. That assembly runs after the
// measured ops.
func (r *record) fillProblem(ctx context.Context, b *bench) error {
	if b.last == nil || b.last.Mesh == nil {
		return nil
	}
	m := b.last.Mesh
	sys, err := fem.AssembleContext(ctx, m, b.p.config(b.p.ranks).Materials, par.Even(m.NumNodes(), b.p.ranks))
	if err != nil {
		return fmt.Errorf("problem size: %w", err)
	}
	r.Equations, r.NNZ = sys.NumDOF, sys.K.NNZ()
	return nil
}

func (o opResult) record() opRecord {
	r := opRecord{ShiftMM: o.scan.shiftMM, WallS: o.wall.Seconds(), AllocMB: o.allocMB,
		RMSMM: orZero(o.rmsMM), RigidMM: orZero(o.rigidMM), Fail: o.fail}
	if o.res != nil {
		r.Iters = o.res.SolveStats.Iterations
		r.Degraded = o.res.Degraded
	}
	return r
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms_per_iter"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, ".bytes"), strings.HasSuffix(name, ".bytes_computed"):
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, ".imbalance"):
		return "1"
	case strings.HasSuffix(name, ".flops"):
		return "flop"
	}
	return "count"
}

// orZero maps a value JSON cannot carry (NaN when no op produced one)
// to 0; the result then reads correct=false.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
