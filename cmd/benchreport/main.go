// Command benchreport aggregates the committed BENCH_*.json benchmark
// artifacts into one perf-trajectory report (markdown + JSON) and gates
// their quality: malformed files, violated hard invariants (an
// incremental path slower than cold, a non-converging solve, excessive
// update/cold divergence) and metric regressions against the previous
// commit's artifacts all fail a -check run. This makes the perf
// trajectory a first-class, machine-checked artifact: every PR that
// lands refreshed BENCH files is compared against the values it
// replaced.
//
//	go run ./cmd/benchreport -out BENCH_REPORT            # write report
//	go run ./cmd/benchreport -check                        # CI gate
//	go run ./cmd/benchreport -check -baseline HEAD~1       # explicit ref
//
// The baseline is read with `git show <ref>:<file>`; when git or the
// committed file is unavailable (fresh clone depth issues, a file's
// first landing) the comparison degrades to invariant checking alone
// rather than failing, so the gate never blocks the first data point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// obsReport mirrors the BENCH_obs.json fields the gate consumes.
type obsReport struct {
	Runs         int          `json:"runs"`
	Size         int          `json:"size"`
	Ranks        int          `json:"ranks"`
	TotalSeconds float64      `json:"total_seconds"`
	Stages       []stageEntry `json:"stages"`
	NonConverged int          `json:"solver_nonconverged_runs"`
	ImbalanceMax float64      `json:"assembly_imbalance_max"`
}

type stageEntry struct {
	Stage  string  `json:"stage"`
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// incrReport mirrors the BENCH_incremental.json fields the gate
// consumes.
type incrReport struct {
	Size            int        `json:"size"`
	Updates         int        `json:"updates"`
	UpdateMeanMS    float64    `json:"update_mean_ms"`
	ColdMeanMS      float64    `json:"cold_mean_ms"`
	Speedup         float64    `json:"speedup"`
	MaxDivergenceMM float64    `json:"max_divergence_mm"`
	Steps           []incrStep `json:"steps"`
}

type incrStep struct {
	WarmStarted     bool    `json:"warm_started"`
	IterationsSaved int     `json:"iterations_saved"`
	Speedup         float64 `json:"speedup"`
}

// cacheReport mirrors the BENCH_cache.json fields the gate consumes.
type cacheReport struct {
	Size            int     `json:"size"`
	Rounds          int     `json:"rounds"`
	CellSize        int     `json:"cell_size"`
	ColdMeanMS      float64 `json:"cold_mean_ms"`
	WarmMeanMS      float64 `json:"warm_mean_ms"`
	Speedup         float64 `json:"speedup"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	BitIdentical    bool    `json:"bit_identical"`
	MaxDivergenceMM float64 `json:"max_divergence_mm"`
}

// maxDivergenceMM is the hard equivalence bound on the incremental
// path: update and cold solutions of the same scan may differ by at
// most this much (well below voxel resolution).
const maxDivergenceMM = 0.01

// metricDelta is one tracked metric compared against the previous
// commit.
type metricDelta struct {
	File     string  `json:"file"`
	Metric   string  `json:"metric"`
	Current  float64 `json:"current"`
	Baseline float64 `json:"baseline,omitempty"`
	// RelChange is (current-baseline)/baseline, positive when the
	// metric moved in its bad direction (see badWhenUp handling).
	RelChange  float64 `json:"rel_change,omitempty"`
	HasBase    bool    `json:"has_baseline"`
	Regression bool    `json:"regression"`
}

// trajectoryReport is the machine-readable output schema.
type trajectoryReport struct {
	BaselineRef string        `json:"baseline_ref"`
	Files       []string      `json:"files"`
	Metrics     []metricDelta `json:"metrics"`
	Violations  []string      `json:"violations"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	out := flag.String("out", "", "report base path: writes <base>.md and <base>.json (empty: stdout markdown only)")
	check := flag.Bool("check", false, "gate mode: exit nonzero on malformed files, invariant violations, or regressions")
	baseline := flag.String("baseline", "HEAD", "git ref whose committed BENCH files are the comparison baseline")
	tolerance := flag.Float64("tolerance", 0.5, "relative worsening tolerated before a timing metric counts as regressed")
	obsPath := flag.String("obs", "BENCH_obs.json", "pipeline benchmark artifact")
	incrPath := flag.String("incr", "BENCH_incremental.json", "incremental benchmark artifact")
	cachePath := flag.String("cache", "BENCH_cache.json", "artifact-cache benchmark artifact")
	flag.Parse()

	rep := trajectoryReport{BaselineRef: *baseline, Files: []string{*obsPath, *incrPath, *cachePath}}

	obsCur, obsViol := loadObs(readFileOrDie(*obsPath), *obsPath)
	incrCur, incrViol := loadIncr(readFileOrDie(*incrPath), *incrPath)
	cacheCur, cacheViol := loadCache(readFileOrDie(*cachePath), *cachePath)
	rep.Violations = append(rep.Violations, obsViol...)
	rep.Violations = append(rep.Violations, incrViol...)
	rep.Violations = append(rep.Violations, cacheViol...)

	// The previous commit's artifacts; nil when unavailable.
	obsBase, _ := loadObsLenient(baselineBytes(*baseline, *obsPath))
	incrBase, _ := loadIncrLenient(baselineBytes(*baseline, *incrPath))
	cacheBase, _ := loadCacheLenient(baselineBytes(*baseline, *cachePath))

	rep.Metrics = compare(obsCur, obsBase, incrCur, incrBase, *obsPath, *incrPath, *tolerance)
	rep.Metrics = append(rep.Metrics, compareCache(cacheCur, cacheBase, *cachePath, *tolerance)...)

	md := renderMarkdown(&rep, obsCur, incrCur, cacheCur)
	if *out != "" {
		if err := os.WriteFile(*out+".md", []byte(md), 0o644); err != nil {
			fatalf("write %s.md: %v", *out, err)
		}
		js, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fatalf("encode report: %v", err)
		}
		if err := os.WriteFile(*out+".json", append(js, '\n'), 0o644); err != nil {
			fatalf("write %s.json: %v", *out, err)
		}
		fmt.Printf("benchreport: wrote %s.md and %s.json\n", *out, *out)
	} else {
		fmt.Print(md)
	}

	regressions := 0
	for _, m := range rep.Metrics {
		if m.Regression {
			regressions++
			fmt.Fprintf(os.Stderr, "benchreport: REGRESSION %s %s: %.4g -> %.4g (%+.1f%%)\n",
				m.File, m.Metric, m.Baseline, m.Current, 100*m.RelChange)
		}
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "benchreport: VIOLATION %s\n", v)
	}
	if *check && (regressions > 0 || len(rep.Violations) > 0) {
		fatalf("%d violation(s), %d regression(s)", len(rep.Violations), regressions)
	}
}

func readFileOrDie(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		fatalf("read %s: %v", path, err)
	}
	return b
}

// gitShow returns the file as committed at ref, or nil when git, the
// ref, or the file is unavailable.
func gitShow(ref, path string) []byte {
	out, err := exec.Command("git", "show", ref+":"+path).Output()
	if err != nil {
		return nil
	}
	return out
}

// baselineBytes reads the comparison baseline, noting the degradation
// on stderr when it is unavailable (shallow clone, a file's first
// landing) so a skipped comparison is visible in CI logs rather than
// silently passing.
func baselineBytes(ref, path string) []byte {
	b := gitShow(ref, path)
	if b == nil {
		fmt.Fprintf(os.Stderr, "benchreport: no baseline %s at %s; comparison skipped\n", path, ref)
	}
	return b
}

// loadObs parses and validates the pipeline artifact, returning the
// report and every invariant violation found.
func loadObs(data []byte, path string) (*obsReport, []string) {
	var r obsReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, []string{fmt.Sprintf("%s: malformed JSON: %v", path, err)}
	}
	var viol []string
	bad := func(format string, args ...any) {
		viol = append(viol, path+": "+fmt.Sprintf(format, args...))
	}
	if r.Runs <= 0 {
		bad("runs = %d, want > 0", r.Runs)
	}
	if r.TotalSeconds <= 0 || math.IsNaN(r.TotalSeconds) {
		bad("total_seconds = %g, want > 0", r.TotalSeconds)
	}
	if len(r.Stages) == 0 {
		bad("no stages recorded")
	}
	for _, st := range r.Stages {
		if st.Count <= 0 || st.MeanMS < 0 || math.IsNaN(st.MeanMS) {
			bad("stage %q: count=%d mean_ms=%g", st.Stage, st.Count, st.MeanMS)
		}
	}
	if r.NonConverged != 0 {
		bad("solver_nonconverged_runs = %d, want 0", r.NonConverged)
	}
	return &r, viol
}

func loadObsLenient(data []byte) (*obsReport, []string) {
	if data == nil {
		return nil, nil
	}
	return loadObs(data, "(baseline)")
}

// loadIncr parses and validates the incremental artifact.
func loadIncr(data []byte, path string) (*incrReport, []string) {
	var r incrReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, []string{fmt.Sprintf("%s: malformed JSON: %v", path, err)}
	}
	var viol []string
	bad := func(format string, args ...any) {
		viol = append(viol, path+": "+fmt.Sprintf(format, args...))
	}
	if r.Updates <= 0 {
		bad("updates = %d, want > 0", r.Updates)
	}
	if len(r.Steps) != r.Updates {
		bad("steps = %d, want %d", len(r.Steps), r.Updates)
	}
	if r.Speedup < 1 || math.IsNaN(r.Speedup) {
		bad("speedup = %.3f: the incremental path must not be slower than cold", r.Speedup)
	}
	if r.MaxDivergenceMM > maxDivergenceMM || math.IsNaN(r.MaxDivergenceMM) {
		bad("max_divergence_mm = %g exceeds the %g mm equivalence bound",
			r.MaxDivergenceMM, maxDivergenceMM)
	}
	for i, st := range r.Steps {
		if !st.WarmStarted {
			bad("step %d not warm-started", i)
		}
	}
	return &r, viol
}

func loadIncrLenient(data []byte) (*incrReport, []string) {
	if data == nil {
		return nil, nil
	}
	return loadIncr(data, "(baseline)")
}

// loadCache parses and validates the artifact-cache benchmark. Its hard
// floors are stricter than the timing metrics: a warm session must
// never be slower than a cold one, the warm rounds must actually hit
// the store, and a cache hit replays bytes rather than re-deriving
// them, so the warm result must be exactly the cold result — zero
// divergence, not merely sub-voxel.
func loadCache(data []byte, path string) (*cacheReport, []string) {
	var r cacheReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, []string{fmt.Sprintf("%s: malformed JSON: %v", path, err)}
	}
	var viol []string
	bad := func(format string, args ...any) {
		viol = append(viol, path+": "+fmt.Sprintf(format, args...))
	}
	if r.Rounds <= 0 {
		bad("rounds = %d, want > 0", r.Rounds)
	}
	if r.Hits <= 0 {
		bad("hits = %d: warm rounds never hit the store", r.Hits)
	}
	if r.Speedup < 1 || math.IsNaN(r.Speedup) {
		bad("speedup = %.3f: a warm session must not be slower than cold", r.Speedup)
	}
	if !r.BitIdentical {
		bad("bit_identical = false: a cache hit must replay the cold result exactly")
	}
	if r.MaxDivergenceMM != 0 || math.IsNaN(r.MaxDivergenceMM) {
		bad("max_divergence_mm = %g, want exactly 0 for replayed artifacts", r.MaxDivergenceMM)
	}
	return &r, viol
}

func loadCacheLenient(data []byte) (*cacheReport, []string) {
	if data == nil {
		return nil, nil
	}
	return loadCache(data, "(baseline)")
}

// compare builds the tracked-metric deltas. Timing metrics regress when
// they worsen beyond tol relative to the baseline (hardware noise
// absorbs below that); the speedup regresses when it shrinks beyond
// tol. Hard floors (speedup >= 1, divergence bound, convergence) are
// enforced unconditionally by the load validators, so a slow drift
// inside tolerance can never cross a correctness line unnoticed.
func compare(obsCur, obsBase *obsReport, incrCur, incrBase *incrReport, obsPath, incrPath string, tol float64) []metricDelta {
	var out []metricDelta
	add := func(file, metric string, cur float64, base float64, hasBase bool, badWhenUp bool) {
		d := metricDelta{File: file, Metric: metric, Current: cur, HasBase: hasBase}
		if hasBase && base != 0 {
			d.Baseline = base
			rel := (cur - base) / math.Abs(base)
			if !badWhenUp {
				rel = -rel
			}
			d.RelChange = rel
			d.Regression = rel > tol
		}
		out = append(out, d)
	}
	if obsCur != nil {
		hasBase := obsBase != nil && obsBase.Size == obsCur.Size && obsBase.Runs == obsCur.Runs
		base := obsReport{}
		if hasBase {
			base = *obsBase
		}
		add(obsPath, "total_seconds", obsCur.TotalSeconds, base.TotalSeconds, hasBase, true)
		add(obsPath, "assembly_imbalance_max", obsCur.ImbalanceMax, base.ImbalanceMax, hasBase, true)
	}
	if incrCur != nil {
		hasBase := incrBase != nil && incrBase.Size == incrCur.Size && incrBase.Updates == incrCur.Updates
		base := incrReport{}
		if hasBase {
			base = *incrBase
		}
		add(incrPath, "speedup", incrCur.Speedup, base.Speedup, hasBase, false)
		add(incrPath, "update_mean_ms", incrCur.UpdateMeanMS, base.UpdateMeanMS, hasBase, true)
		add(incrPath, "max_divergence_mm", incrCur.MaxDivergenceMM, base.MaxDivergenceMM, hasBase, true)
	}
	return out
}

// compareCache builds the tracked-metric deltas of the artifact-cache
// benchmark, with the same tolerance semantics as compare.
func compareCache(cur, base *cacheReport, path string, tol float64) []metricDelta {
	if cur == nil {
		return nil
	}
	var out []metricDelta
	add := func(metric string, c, b float64, hasBase bool, badWhenUp bool) {
		d := metricDelta{File: path, Metric: metric, Current: c, HasBase: hasBase}
		if hasBase && b != 0 {
			d.Baseline = b
			rel := (c - b) / math.Abs(b)
			if !badWhenUp {
				rel = -rel
			}
			d.RelChange = rel
			d.Regression = rel > tol
		}
		out = append(out, d)
	}
	hasBase := base != nil && base.Size == cur.Size && base.CellSize == cur.CellSize
	b := cacheReport{}
	if hasBase {
		b = *base
	}
	add("speedup", cur.Speedup, b.Speedup, hasBase, false)
	add("warm_mean_ms", cur.WarmMeanMS, b.WarmMeanMS, hasBase, true)
	return out
}

// renderMarkdown renders the human-facing trajectory report.
func renderMarkdown(rep *trajectoryReport, obs *obsReport, incr *incrReport, cache *cacheReport) string {
	var b strings.Builder
	b.WriteString("# Perf trajectory\n\n")
	fmt.Fprintf(&b, "Baseline: `%s`\n\n", rep.BaselineRef)

	b.WriteString("## Tracked metrics\n\n")
	b.WriteString("| file | metric | baseline | current | change | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, m := range rep.Metrics {
		baseStr, changeStr, status := "—", "—", "ok"
		if m.HasBase {
			baseStr = fmt.Sprintf("%.4g", m.Baseline)
			changeStr = fmt.Sprintf("%+.1f%%", 100*m.RelChange)
		} else {
			status = "no baseline"
		}
		if m.Regression {
			status = "REGRESSION"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.4g | %s | %s |\n",
			m.File, m.Metric, baseStr, m.Current, changeStr, status)
	}
	b.WriteString("\n")

	if obs != nil {
		fmt.Fprintf(&b, "## Pipeline stages (size %d, %d runs, %d ranks)\n\n", obs.Size, obs.Runs, obs.Ranks)
		b.WriteString("| stage | p50 ms | p99 ms | mean ms |\n|---|---:|---:|---:|\n")
		for _, st := range obs.Stages {
			fmt.Fprintf(&b, "| %s | %.3f | %.3f | %.3f |\n", st.Stage, st.P50MS, st.P99MS, st.MeanMS)
		}
		b.WriteString("\n")
	}
	if incr != nil {
		fmt.Fprintf(&b, "## Incremental path (size %d, %d updates)\n\n", incr.Size, incr.Updates)
		fmt.Fprintf(&b, "- speedup over cold: **%.2fx**\n", incr.Speedup)
		fmt.Fprintf(&b, "- update mean: %.1f ms (cold %.1f ms)\n", incr.UpdateMeanMS, incr.ColdMeanMS)
		fmt.Fprintf(&b, "- max update/cold divergence: %.3g mm (bound %g mm)\n\n",
			incr.MaxDivergenceMM, maxDivergenceMM)
	}

	if cache != nil {
		fmt.Fprintf(&b, "## Artifact cache (size %d, cell %d, %d rounds)\n\n", cache.Size, cache.CellSize, cache.Rounds)
		fmt.Fprintf(&b, "- warm-session speedup over cold: **%.2fx** (cold %.0f ms, warm %.0f ms)\n",
			cache.Speedup, cache.ColdMeanMS, cache.WarmMeanMS)
		fmt.Fprintf(&b, "- store traffic: %d hits / %d misses\n", cache.Hits, cache.Misses)
		fmt.Fprintf(&b, "- hit-vs-miss result: bit-identical = %t, max divergence %g mm (must be exactly 0)\n\n",
			cache.BitIdentical, cache.MaxDivergenceMM)
	}

	if len(rep.Violations) > 0 {
		b.WriteString("## Violations\n\n")
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "- %s\n", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
