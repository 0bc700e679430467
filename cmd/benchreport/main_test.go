package main

import (
	"strings"
	"testing"
)

const goodObs = `{"runs":5,"size":32,"ranks":1,"total_seconds":0.9,
"stages":[{"stage":"resampling","count":5,"p50_ms":22,"p99_ms":23,"mean_ms":22.5}],
"solver_nonconverged_runs":0,"assembly_imbalance_max":1}`

const goodIncr = `{"size":64,"updates":2,"update_mean_ms":500,"cold_mean_ms":1800,
"speedup":3.6,"max_divergence_mm":0.0002,
"steps":[{"warm_started":true,"iterations_saved":30,"speedup":3.5},
{"warm_started":true,"iterations_saved":28,"speedup":3.7}]}`

const goodCache = `{"size":48,"rounds":3,"ranks":1,"cell_size":1,
"cold_mean_ms":3643,"warm_mean_ms":1493,"speedup":2.44,
"hits":15,"misses":5,"evictions":0,
"bit_identical":true,"max_divergence_mm":0}`

func TestLoadObsInvariants(t *testing.T) {
	if _, viol := loadObs([]byte(goodObs), "x"); len(viol) != 0 {
		t.Fatalf("clean artifact flagged: %v", viol)
	}
	for _, tc := range []struct {
		name, json, want string
	}{
		{"malformed", "{", "malformed JSON"},
		{"no runs", `{"runs":0,"total_seconds":1,"stages":[{"stage":"s","count":1}]}`, "runs = 0"},
		{"no stages", `{"runs":1,"total_seconds":1,"stages":[]}`, "no stages"},
		{"nonconverged", `{"runs":1,"total_seconds":1,
			"stages":[{"stage":"s","count":1}],"solver_nonconverged_runs":2}`, "solver_nonconverged_runs = 2"},
	} {
		_, viol := loadObs([]byte(tc.json), "x")
		if len(viol) == 0 {
			t.Errorf("%s: no violation", tc.name)
			continue
		}
		found := false
		for _, v := range viol {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v missing %q", tc.name, viol, tc.want)
		}
	}
}

func TestLoadIncrInvariants(t *testing.T) {
	if _, viol := loadIncr([]byte(goodIncr), "x"); len(viol) != 0 {
		t.Fatalf("clean artifact flagged: %v", viol)
	}
	slow := strings.Replace(goodIncr, `"speedup":3.6`, `"speedup":0.8`, 1)
	if _, viol := loadIncr([]byte(slow), "x"); len(viol) == 0 {
		t.Error("speedup < 1 not flagged")
	}
	diverged := strings.Replace(goodIncr, `"max_divergence_mm":0.0002`, `"max_divergence_mm":0.5`, 1)
	if _, viol := loadIncr([]byte(diverged), "x"); len(viol) == 0 {
		t.Error("divergence beyond the equivalence bound not flagged")
	}
	cold := strings.Replace(goodIncr, `"warm_started":true,"iterations_saved":30`,
		`"warm_started":false,"iterations_saved":30`, 1)
	if _, viol := loadIncr([]byte(cold), "x"); len(viol) == 0 {
		t.Error("cold-started update step not flagged")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	obsCur, _ := loadObs([]byte(goodObs), "x")
	incrCur, _ := loadIncr([]byte(goodIncr), "x")

	// Identical baseline: everything ok.
	ms := compare(obsCur, obsCur, incrCur, incrCur, "o", "i", 0.5)
	for _, m := range ms {
		if m.Regression {
			t.Errorf("identical baseline flagged %s %s", m.File, m.Metric)
		}
		if !m.HasBase {
			t.Errorf("%s %s lost its baseline", m.File, m.Metric)
		}
	}

	// A doubled runtime and a halved-and-then-some speedup regress.
	obsBase := *obsCur
	obsBase.TotalSeconds = obsCur.TotalSeconds / 2.1
	incrBase := *incrCur
	incrBase.Speedup = incrCur.Speedup * 2.5
	ms = compare(obsCur, &obsBase, incrCur, &incrBase, "o", "i", 0.5)
	want := map[string]bool{"total_seconds": true, "speedup": true}
	got := map[string]bool{}
	for _, m := range ms {
		if m.Regression {
			got[m.Metric] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s not flagged as regression; deltas: %+v", k, ms)
		}
	}
	if got["max_divergence_mm"] {
		t.Error("unchanged divergence flagged")
	}

	// A baseline from a different configuration is not comparable.
	other := *obsCur
	other.Size = 16
	ms = compare(obsCur, &other, nil, nil, "o", "i", 0.5)
	for _, m := range ms {
		if m.HasBase {
			t.Errorf("%s compared against a different-size baseline", m.Metric)
		}
	}
}

func TestRenderMarkdownShape(t *testing.T) {
	obsCur, _ := loadObs([]byte(goodObs), "x")
	incrCur, _ := loadIncr([]byte(goodIncr), "x")
	cacheCur, _ := loadCache([]byte(goodCache), "x")
	rep := trajectoryReport{
		BaselineRef: "HEAD",
		Metrics:     compare(obsCur, obsCur, incrCur, incrCur, "o", "i", 0.5),
		Violations:  []string{"x: example violation"},
	}
	rep.Metrics = append(rep.Metrics, compareCache(cacheCur, cacheCur, "c", 0.5)...)
	md := renderMarkdown(&rep, obsCur, incrCur, cacheCur)
	for _, want := range []string{
		"# Perf trajectory", "## Tracked metrics", "total_seconds",
		"## Pipeline stages", "resampling",
		"## Incremental path", "3.60x",
		"## Artifact cache", "2.44x", "15 hits / 5 misses",
		"## Violations", "example violation",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
}

// A missing previous-commit artifact must degrade to "no comparison",
// never to an error: gitShow returns nil for unknown refs and paths,
// the lenient loaders pass nil through, and compare marks every metric
// as having no baseline instead of fabricating one.

func TestGitShowUnknownRefReturnsNil(t *testing.T) {
	if b := gitShow("no-such-ref-benchreport-test", "BENCH_obs.json"); b != nil {
		t.Fatalf("gitShow(bogus ref) = %d bytes, want nil", len(b))
	}
	if b := gitShow("HEAD", "no/such/file.json"); b != nil {
		t.Fatalf("gitShow(bogus path) = %d bytes, want nil", len(b))
	}
	if b := baselineBytes("no-such-ref-benchreport-test", "BENCH_obs.json"); b != nil {
		t.Fatalf("baselineBytes(bogus ref) = %d bytes, want nil", len(b))
	}
}

func TestLenientLoadersPassNilThrough(t *testing.T) {
	if r, viol := loadObsLenient(nil); r != nil || viol != nil {
		t.Errorf("loadObsLenient(nil) = (%v, %v), want (nil, nil)", r, viol)
	}
	if r, viol := loadIncrLenient(nil); r != nil || viol != nil {
		t.Errorf("loadIncrLenient(nil) = (%v, %v), want (nil, nil)", r, viol)
	}
	if r, viol := loadCacheLenient(nil); r != nil || viol != nil {
		t.Errorf("loadCacheLenient(nil) = (%v, %v), want (nil, nil)", r, viol)
	}
}

func TestCompareWithoutBaselineIsNotRegression(t *testing.T) {
	obsCur, _ := loadObs([]byte(goodObs), "x")
	incrCur, _ := loadIncr([]byte(goodIncr), "x")
	cacheCur, _ := loadCache([]byte(goodCache), "x")
	deltas := compare(obsCur, nil, incrCur, nil, "o", "i", 0.5)
	deltas = append(deltas, compareCache(cacheCur, nil, "c", 0.5)...)
	if len(deltas) == 0 {
		t.Fatal("compare produced no metrics")
	}
	for _, d := range deltas {
		if d.HasBase {
			t.Errorf("%s %s: HasBase = true with nil baseline", d.File, d.Metric)
		}
		if d.Regression {
			t.Errorf("%s %s: regression flagged with no baseline", d.File, d.Metric)
		}
	}
}

func TestLoadCacheInvariants(t *testing.T) {
	if r, viol := loadCache([]byte(goodCache), "x"); r == nil || len(viol) != 0 {
		t.Fatalf("clean artifact flagged: %v", viol)
	}
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"no rounds", `"rounds":3`, `"rounds":0`, "rounds = 0"},
		{"no hits", `"hits":15`, `"hits":0`, "never hit the store"},
		{"slower than cold", `"speedup":2.44`, `"speedup":0.8`, "slower than cold"},
		{"not bit-identical", `"bit_identical":true`, `"bit_identical":false`, "bit_identical"},
		{"diverged", `"max_divergence_mm":0`, `"max_divergence_mm":0.001`, "max_divergence_mm"},
	} {
		_, viol := loadCache([]byte(strings.Replace(goodCache, tc.from, tc.to, 1)), "x")
		found := false
		for _, v := range viol {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v missing %q", tc.name, viol, tc.want)
		}
	}
	if _, viol := loadCache([]byte("{"), "x"); len(viol) == 0 {
		t.Error("malformed JSON not flagged")
	}
}

func TestCompareCacheFlagsRegressions(t *testing.T) {
	cur, _ := loadCache([]byte(goodCache), "x")

	ms := compareCache(cur, cur, "c", 0.5)
	for _, m := range ms {
		if m.Regression {
			t.Errorf("identical baseline flagged %s", m.Metric)
		}
		if !m.HasBase {
			t.Errorf("%s lost its baseline", m.Metric)
		}
	}

	// A collapsed speedup and a ballooned warm latency regress.
	base := *cur
	base.Speedup = cur.Speedup * 2.5
	base.WarmMeanMS = cur.WarmMeanMS / 2.1
	got := map[string]bool{}
	for _, m := range compareCache(cur, &base, "c", 0.5) {
		got[m.Metric] = m.Regression
	}
	if !got["speedup"] {
		t.Error("collapsed cache speedup not flagged as regression")
	}
	if !got["warm_mean_ms"] {
		t.Error("ballooned warm_mean_ms not flagged as regression")
	}

	// A different workload shape is a fresh data point, not a baseline.
	other := *cur
	other.CellSize = 2
	for _, m := range compareCache(cur, &other, "c", 0.5) {
		if m.HasBase {
			t.Errorf("%s compared against a different-workload baseline", m.Metric)
		}
	}
}
