package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// good returns a clean record of the named workload at its table shape.
func good(t *testing.T, name string) Record {
	t.Helper()
	w := lookup(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	metrics := map[string][]Value{
		"pipeline": {{"total_seconds", 0.9}, {"assembly_imbalance_max", 1},
			{"solver_nonconverged_runs", 0}, {"field_rms_mm", 0.95}, {"field_rms_ratio", 0.65}},
		"incremental": {{"update_mean_ms", 500}, {"cold_mean_ms", 1800}, {"speedup", 3.6},
			{"max_divergence_mm", 0.0002}, {"incremental_steps", incrUpdates},
			{"field_rms_mm", 0.76}, {"field_rms_ratio", 0.64}},
		"cache": {{"cold_mean_ms", 3643}, {"warm_mean_ms", 1493}, {"speedup", 2.44},
			{"hits", 15}, {"misses", 5}, {"bit_identical", 1}, {"max_divergence_mm", 0}},
	}[name]
	return Record{Workload: name, Shape: w.Shape, GoMaxProcs: 2,
		Metrics:  append([]Value(nil), metrics...),
		StagesMS: []StageMS{{Op: "register", Stage: "resampling", MS: 22.5}}}
}

func goodAll(t *testing.T) []Record {
	var recs []Record
	for _, w := range workloads {
		recs = append(recs, good(t, w.Name))
	}
	return recs
}

func set(r *Record, name string, v float64) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Value = v
			return
		}
	}
	r.Metrics = append(r.Metrics, Value{name, v})
}

func drop(r *Record, name string) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics = append(r.Metrics[:i], r.Metrics[i+1:]...)
			return
		}
	}
}

func contains(list []string, substr string) bool {
	for _, s := range list {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

// invariantCase breaks one rule of one table row; the checker must
// name it.
type invariantCase struct {
	name string
	edit func(r *Record)
	want string
}

// checkInvariants runs one workload's invariant cases: its clean record
// passes, every invariant uses a known comparison, and each case's
// edited record is flagged with the case's message.
func checkInvariants(t *testing.T, workload string, cases []invariantCase) {
	t.Helper()
	w := lookup(workload)
	for _, in := range w.Invariants {
		if holds[in.Op] == nil {
			t.Fatalf("%s: invariant on %s has unknown op %q", w.Name, in.Metric, in.Op)
		}
	}
	rec := good(t, workload)
	if viol := w.validate(&rec); len(viol) != 0 {
		t.Fatalf("clean %s record flagged: %v", workload, viol)
	}
	for _, tc := range cases {
		rec := good(t, workload)
		tc.edit(&rec)
		if viol := w.validate(&rec); !contains(viol, tc.want) {
			t.Errorf("%s: violations %v missing %q", tc.name, viol, tc.want)
		}
	}
}

// The three Load*Invariants tests hold one workload's record each to its
// table row: one case per violated invariant.

func TestLoadObsInvariants(t *testing.T) {
	checkInvariants(t, "pipeline", []invariantCase{
		{"no runs", func(r *Record) { r.Shape.Runs = 0 }, "shape"},
		{"no stages", func(r *Record) { r.StagesMS = nil }, "no stages recorded"},
		{"negative stage", func(r *Record) { r.StagesMS[0].MS = -1 }, "ms = -1"},
		{"zero time", func(r *Record) { set(r, "total_seconds", 0) }, "total_seconds = 0, want > 0"},
		{"nonconverged", func(r *Record) { set(r, "solver_nonconverged_runs", 2) }, "solver_nonconverged_runs = 2, want == 0"},
		{"no accuracy gain", func(r *Record) { set(r, "field_rms_ratio", 1) }, "field_rms_ratio = 1, want < 1"},
		{"non-finite metric", func(r *Record) { set(r, "field_rms_mm", math.NaN()) }, "field_rms_mm = NaN"},
	})
}

func TestLoadIncrInvariants(t *testing.T) {
	checkInvariants(t, "incremental", []invariantCase{
		{"other ranks", func(r *Record) { r.Shape.Ranks = 1 }, "shape"},
		{"below speedup floor", func(r *Record) { set(r, "speedup", 1.4) }, "speedup = 1.4, want >= 1.5"},
		{"diverged", func(r *Record) { set(r, "max_divergence_mm", 0.002) }, "max_divergence_mm = 0.002, want <= 0.001"},
		{"cold-started step", func(r *Record) { set(r, "incremental_steps", 3) }, "incremental_steps = 3, want == 4"},
		{"no accuracy gain", func(r *Record) { set(r, "field_rms_ratio", 1.2) }, "field_rms_ratio = 1.2, want < 1"},
		{"tracked metric missing", func(r *Record) { drop(r, "update_mean_ms") }, "tracked metric update_mean_ms missing"},
	})
}

func TestLoadCacheInvariants(t *testing.T) {
	checkInvariants(t, "cache", []invariantCase{
		{"no rounds", func(r *Record) { r.Shape.Rounds = 0 }, "shape"},
		{"no hits", func(r *Record) { set(r, "hits", 0) }, "hits = 0, want > 0"},
		{"slower than cold", func(r *Record) { set(r, "speedup", 0.8) }, "speedup = 0.8, want >= 1"},
		{"not bit-identical", func(r *Record) { set(r, "bit_identical", 0) }, "bit_identical = 0, want == 1"},
		{"diverged", func(r *Record) { set(r, "max_divergence_mm", 0.001) }, "max_divergence_mm = 0.001, want == 0"},
		{"invariant metric missing", func(r *Record) { drop(r, "hits") }, "hits missing"},
	})
}

func TestCheckFlagsMalformedAndMissingRecords(t *testing.T) {
	if _, err := parseRecords([]byte("{")); err == nil || !strings.Contains(err.Error(), "malformed JSON") {
		t.Errorf("parseRecords(\"{\") error = %v, want malformed JSON", err)
	}
	if rep := check(goodAll(t), nil, "HEAD"); len(rep.Violations) != 0 {
		t.Fatalf("clean records flagged: %v", rep.Violations)
	}
	recs := goodAll(t)
	recs[2] = good(t, "pipeline")
	recs = append(recs, Record{Workload: "prec"})
	viol := check(recs, nil, "HEAD").Violations
	for _, want := range []string{"cache: no record", "pipeline: recorded twice", `unknown workload "prec"`} {
		if !contains(viol, want) {
			t.Errorf("violations %v missing %q", viol, want)
		}
	}
}

// regressionCase sets one tracked metric's baseline; the current value
// is good()'s.
type regressionCase struct {
	workload, metric string
	base             float64
	regressed        bool
}

// checkRegressions compares each case's record against its edited
// baseline: only the case's metric may regress, and only if the case
// says so; every metric keeps its baseline.
func checkRegressions(t *testing.T, cases []regressionCase) {
	t.Helper()
	for _, tc := range cases {
		w := lookup(tc.workload)
		cur, base := good(t, tc.workload), good(t, tc.workload)
		set(&base, tc.metric, tc.base)
		for _, d := range w.compare(&cur, &base) {
			want := d.Name == tc.metric && tc.regressed
			if d.Regression != want || !d.HasBase {
				t.Errorf("%s %s baseline %g: %s regression=%t has_baseline=%t, want regression=%t",
					tc.workload, tc.metric, tc.base, d.Name, d.Regression, d.HasBase, want)
			}
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	// Identical baseline: every tracked metric compared, none regressed.
	for _, d := range check(goodAll(t), goodAll(t), "HEAD").Deltas {
		if d.Regression || !d.HasBase {
			t.Errorf("identical baseline: %s %s has_baseline=%t regression=%t", d.Workload, d.Name, d.HasBase, d.Regression)
		}
	}
	checkRegressions(t, []regressionCase{
		{"pipeline", "total_seconds", 0.9 / 2.1, true},
		{"pipeline", "total_seconds", 0.9 / 1.4, false},
		{"pipeline", "field_rms_mm", 0.95 / 1.11, true},
		{"pipeline", "field_rms_ratio", 0.65 / 1.09, false},
		{"incremental", "speedup", 3.6 * 2.5, true},
		{"incremental", "speedup", 3.6 * 1.9, false},
		{"incremental", "update_mean_ms", 500 / 2.1, true},
		{"incremental", "max_divergence_mm", 0.0002, false},
		{"incremental", "field_rms_ratio", 0.64 / 1.2, true},
	})
}

// TestCompareCacheFlagsRegressions: a collapsed speedup and a ballooned
// warm latency regress; a baseline of another cell size is no baseline.
func TestCompareCacheFlagsRegressions(t *testing.T) {
	checkRegressions(t, []regressionCase{
		{"cache", "speedup", 2.44 * 2.5, true},
		{"cache", "speedup", 2.44 * 1.9, false},
		{"cache", "warm_mean_ms", 1493 / 2.1, true},
		{"cache", "warm_mean_ms", 1493 / 1.4, false},
	})
	cur, other := good(t, "cache"), good(t, "cache")
	other.Shape.CellSize = 2
	for _, d := range lookup("cache").compare(&cur, &other) {
		if d.HasBase || d.Regression {
			t.Errorf("%s compared against a baseline of another cell size", d.Name)
		}
	}
}

// TestCompareOtherShapeIsNoBaseline: a baseline of another shape
// measures another thing. The ranks case is the committed incremental
// divergence, 1.73e-4 mm at 1 rank, against 2.70e-4 mm at 2 ranks: a
// comparison keyed on size and updates alone reported it as a 56%
// regression.
func TestCompareOtherShapeIsNoBaseline(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		edit           func(*Shape)
	}{
		{"ranks", "incremental", func(s *Shape) { s.Ranks = 1 }},
		{"size", "pipeline", func(s *Shape) { s.Size = 16 }},
		{"cell size", "cache", func(s *Shape) { s.CellSize = 2 }},
		{"rounds", "cache", func(s *Shape) { s.Rounds = 2 }},
	} {
		cur, base := good(t, tc.workload), good(t, tc.workload)
		tc.edit(&base.Shape)
		for _, m := range lookup(tc.workload).Tracked {
			// Any comparison of these values would regress.
			if m.Higher {
				set(&base, m.Name, 1e9)
			} else {
				set(&base, m.Name, 1e-9)
			}
		}
		if tc.name == "ranks" {
			set(&cur, "max_divergence_mm", 2.695e-4)
			set(&base, "max_divergence_mm", 1.7266648801650408e-4)
		}
		recs := goodAll(t)
		for i := range recs {
			if recs[i].Workload == tc.workload {
				recs[i] = cur
			}
		}
		rep := check(recs, []Record{base}, "HEAD")
		for _, d := range rep.Deltas {
			if d.HasBase || d.Regression {
				t.Errorf("%s: %s %s compared against a baseline of another shape", tc.name, d.Workload, d.Name)
			}
		}
		if md := rep.markdown(); strings.Contains(md, "REGRESSION") || !strings.Contains(md, "no baseline") {
			t.Errorf("%s: report should read no baseline:\n%s", tc.name, md)
		}
	}
}

// A missing previous-commit file must degrade to "no comparison",
// never to an error or a regression: git show of an unknown ref yields
// no records, and a baseline with no record of a workload leaves that
// workload's metrics without a baseline.

func TestGitShowUnknownRefReturnsNil(t *testing.T) {
	if recs := loadBaseline("no-such-ref-bench-test"); recs != nil {
		t.Fatalf("loadBaseline(bogus ref) = %d records, want nil", len(recs))
	}
}

func TestLenientLoadersPassNilThrough(t *testing.T) {
	if recs, err := parseRecords([]byte("{")); recs != nil || err == nil {
		t.Errorf("parseRecords(malformed) = (%d records, %v), want (nil, error)", len(recs), err)
	}
	for _, w := range workloads {
		if rec := find(nil, w.Name); rec != nil {
			t.Errorf("find(nil, %s) = %+v, want nil", w.Name, rec)
		}
	}
	// A baseline holding only the pipeline record compares the pipeline
	// and passes no baseline through for the other workloads.
	rep := check(goodAll(t), []Record{good(t, "pipeline")}, "HEAD")
	if len(rep.Violations) != 0 {
		t.Fatalf("partial baseline flagged: %v", rep.Violations)
	}
	for _, d := range rep.Deltas {
		if d.HasBase != (d.Workload == "pipeline") || d.Regression {
			t.Errorf("%s %s: has_baseline=%t regression=%t with a pipeline-only baseline", d.Workload, d.Name, d.HasBase, d.Regression)
		}
	}
}

func TestCompareWithoutBaselineIsNotRegression(t *testing.T) {
	rep := check(goodAll(t), nil, "HEAD")
	if len(rep.Deltas) == 0 {
		t.Fatal("check produced no tracked metrics")
	}
	for _, d := range rep.Deltas {
		if d.HasBase || d.Regression {
			t.Errorf("%s %s: has_baseline=%t regression=%t with no baseline", d.Workload, d.Name, d.HasBase, d.Regression)
		}
	}
}

func TestRenderMarkdownShape(t *testing.T) {
	rep := check(goodAll(t), goodAll(t), "HEAD")
	rep.Violations = append(rep.Violations, "x: example violation")
	md := rep.markdown()
	for _, want := range []string{
		"# Benchmark report", "## Tracked metrics", "total_seconds", "field_rms_ratio",
		"## pipeline", "Shape `{\"size\":32,\"cell_size\":2,\"ranks\":2,\"runs\":5}`", "GOMAXPROCS 2", "resampling",
		"## incremental", `"updates":4`, "| speedup | 3.6 |",
		"## cache", `"rounds":3`, "| speedup | 2.44 |", "| hits | 15 |",
		"## Violations", "example violation",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
}

// TestGateFloors: a re-measure must meet the table's invariants and keep
// every gated ratio within its tolerance of the committed record.
func TestGateFloors(t *testing.T) {
	committed := goodAll(t) // incremental speedup 3.6, cache 2.44
	for _, tc := range []struct {
		workload string
		speedup  float64
		want     string // "" passes
	}{
		{"incremental", 1.9, ""},
		{"incremental", 1.7, "speedup = 1.7, committed 3.6"}, // below half the committed value
		{"incremental", 1.4, "want >= 1.5"},
		{"cache", 1.3, ""},
		{"cache", 1.1, "speedup = 1.1, committed 2.44"},
		{"cache", 0.9, "want >= 1"},
	} {
		fresh := good(t, tc.workload)
		set(&fresh, "speedup", tc.speedup)
		viol := lookup(tc.workload).gate(fresh, committed)
		if tc.want == "" && len(viol) != 0 || tc.want != "" && !contains(viol, tc.want) {
			t.Errorf("%s at %.2fx: violations %v, want %q", tc.workload, tc.speedup, viol, tc.want)
		}
	}
	other := goodAll(t)
	other[1].Shape.Ranks = 1
	if viol := lookup("incremental").gate(good(t, "incremental"), other); !contains(viol, "no committed record at the table shape") {
		t.Errorf("gate against another shape: %v", viol)
	}
}

func committedRecords(t *testing.T) []Record {
	t.Helper()
	data, err := os.ReadFile("../../" + benchFile)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseRecords(data)
	if err != nil {
		t.Fatalf("%s: %v", benchFile, err)
	}
	return recs
}

// TestCommittedRecordsPass holds the committed BENCH.json to the table.
func TestCommittedRecordsPass(t *testing.T) {
	if viol := check(committedRecords(t), nil, "").Violations; len(viol) != 0 {
		t.Errorf("committed %s violates the table: %v", benchFile, viol)
	}
}

// TestCIGatesRunAtCommittedShape: every CI re-measure names a workload
// and nothing else, so it runs at the table shape, which must be the
// shape of the committed record it is held against.
func TestCIGatesRunAtCommittedShape(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	recs := committedRecords(t)
	gated := map[string]bool{}
	for _, m := range regexp.MustCompile(`go run \./cmd/bench -gate (\S+)(.*)`).FindAllStringSubmatch(string(data), -1) {
		name, rest := m[1], strings.TrimSpace(m[2])
		if rest != "" {
			t.Errorf("CI gate %s passes %q: a gate takes its whole shape from the table", name, rest)
		}
		w := lookup(name)
		if w == nil {
			t.Errorf("CI gates unknown workload %q", name)
			continue
		}
		if rec := find(recs, name); rec == nil || rec.Shape != w.Shape {
			t.Errorf("CI gate %s runs at %+v, committed record is %+v", name, w.Shape, rec)
		}
		gated[name] = true
	}
	for _, w := range workloads {
		for _, m := range w.Tracked {
			if m.Gate && !gated[w.Name] {
				t.Errorf("workload %s has gated metric %s but no CI re-measure", w.Name, m.Name)
			}
		}
	}
}
