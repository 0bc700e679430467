package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"strings"
)

// Shape fixes everything a workload's numbers depend on besides the
// host. Records compare only when their shapes are equal.
type Shape struct {
	Size     int `json:"size"`
	CellSize int `json:"cell_size"`
	Ranks    int `json:"ranks"`
	Runs     int `json:"runs,omitempty"`
	Updates  int `json:"updates,omitempty"`
	Rounds   int `json:"rounds,omitempty"`
}

// Value is one named number of a record.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// StageMS is the mean wall-clock of one pipeline stage over the ops of
// one kind ("register", "update", "cold", "warm", ...).
type StageMS struct {
	Op    string  `json:"op"`
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// Record is one measured workload. BENCH.json is a list of them, one
// per table row.
type Record struct {
	Workload   string    `json:"workload"`
	Shape      Shape     `json:"shape"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Metrics    []Value   `json:"metrics"`
	StagesMS   []StageMS `json:"stages_ms"`
}

func (r *Record) metric(name string) (float64, bool) {
	for _, v := range r.Metrics {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// find returns the record of the named workload, or nil.
func find(recs []Record, name string) *Record {
	for i := range recs {
		if recs[i].Workload == name {
			return &recs[i]
		}
	}
	return nil
}

func parseRecords(data []byte) ([]Record, error) {
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("malformed JSON: %w", err)
	}
	return recs, nil
}

// loadBaseline reads the records committed at ref. An unavailable or
// unparseable baseline (a shallow clone, the file's first landing)
// degrades to no comparison, noted on stderr so a skipped comparison
// is visible in CI logs rather than silently passing.
func loadBaseline(ref string) []Record {
	data, err := exec.Command("git", "show", ref+":"+benchFile).Output()
	var recs []Record
	if err == nil {
		recs, err = parseRecords(data)
	}
	if err != nil {
		logf("no baseline %s at %s (%v); comparison skipped", benchFile, ref, err)
	}
	return recs
}

// holds maps an Invariant's Op to its comparison.
var holds = map[string]func(x, bound float64) bool{
	"<":  func(x, b float64) bool { return x < b },
	"<=": func(x, b float64) bool { return x <= b },
	"==": func(x, b float64) bool { return x == b },
	">=": func(x, b float64) bool { return x >= b },
	">":  func(x, b float64) bool { return x > b },
}

// validate returns every way rec breaks its table row: another shape,
// no stages, a missing or non-finite metric, a violated invariant.
func (w *Workload) validate(rec *Record) []string {
	var viol []string
	bad := func(format string, args ...any) {
		viol = append(viol, w.Name+": "+fmt.Sprintf(format, args...))
	}
	if rec.Shape != w.Shape {
		bad("shape %+v, table says %+v", rec.Shape, w.Shape)
	}
	if len(rec.StagesMS) == 0 {
		bad("no stages recorded")
	}
	for _, st := range rec.StagesMS {
		if !(st.MS >= 0) || math.IsInf(st.MS, 0) {
			bad("stage %s/%q: ms = %g", st.Op, st.Stage, st.MS)
		}
	}
	for _, v := range rec.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad("%s = %g", v.Name, v.Value)
		}
	}
	for _, m := range w.Tracked {
		if _, ok := rec.metric(m.Name); !ok {
			bad("tracked metric %s missing", m.Name)
		}
	}
	for _, in := range w.Invariants {
		if x, ok := rec.metric(in.Metric); !ok {
			bad("%s missing, want %s %g", in.Metric, in.Op, in.Bound)
		} else if !holds[in.Op](x, in.Bound) {
			bad("%s = %g, want %s %g", in.Metric, x, in.Op, in.Bound)
		}
	}
	return viol
}

// Delta is one tracked metric of a record against its baseline.
// RelChange is positive when the metric moved in its bad direction.
type Delta struct {
	Metric
	Workload            string
	Current, Baseline   float64
	RelChange           float64
	HasBase, Regression bool
}

// compare returns rec's tracked metrics against base.
// A nil base, or one of another shape, is no baseline: another shape
// measures another thing, so it never reads as a regression.
func (w *Workload) compare(rec, base *Record) []Delta {
	var out []Delta
	for _, m := range w.Tracked {
		cur, _ := rec.metric(m.Name)
		d := Delta{Metric: m, Workload: w.Name, Current: cur}
		b, ok := 0.0, false
		if base != nil && base.Shape == rec.Shape {
			b, ok = base.metric(m.Name)
		}
		if ok && b != 0 {
			d.HasBase, d.Baseline = true, b
			d.RelChange = (cur - b) / math.Abs(b)
			if m.Higher {
				d.RelChange = -d.RelChange
			}
			d.Regression = d.RelChange > m.Tol
		}
		out = append(out, d)
	}
	return out
}

// gate holds a fresh re-measure to the table's floors: its invariants,
// and every Gate metric within its tolerance of the committed record of
// the same shape (at tolerance 0.5, half the committed speedup).
func (w *Workload) gate(fresh Record, committed []Record) []string {
	viol := w.validate(&fresh)
	base := find(committed, w.Name)
	if base == nil || base.Shape != fresh.Shape {
		return append(viol, w.Name+": no committed record at the table shape; regenerate "+benchFile+" with go run ./cmd/bench")
	}
	for _, d := range w.compare(&fresh, base) {
		if d.Gate && d.Regression {
			viol = append(viol, fmt.Sprintf("%s: %s = %.4g, committed %.4g: worse by %.0f%%, floor %.0f%%",
				w.Name, d.Name, d.Current, d.Baseline, 100*d.RelChange, 100*d.Tol))
		}
	}
	return viol
}

// Report is a set of records checked against the table and a baseline.
type Report struct {
	BaselineRef string
	Records     []Record
	Deltas      []Delta
	Violations  []string
}

// check validates every record against its table row and compares it
// with the baseline record of the same workload.
func check(recs, base []Record, baseRef string) *Report {
	rep := &Report{BaselineRef: baseRef, Records: recs}
	seen := make(map[string]bool)
	for i := range recs {
		w := lookup(recs[i].Workload)
		switch {
		case w == nil:
			rep.Violations = append(rep.Violations, fmt.Sprintf("record of unknown workload %q", recs[i].Workload))
		case seen[w.Name]:
			rep.Violations = append(rep.Violations, w.Name+": recorded twice")
		default:
			seen[w.Name] = true
			rep.Violations = append(rep.Violations, w.validate(&recs[i])...)
			rep.Deltas = append(rep.Deltas, w.compare(&recs[i], find(base, w.Name))...)
		}
	}
	for _, w := range workloads {
		if !seen[w.Name] {
			rep.Violations = append(rep.Violations, w.Name+": no record")
		}
	}
	return rep
}

// failed prints every regression and violation to stderr and reports
// whether there were any.
func (r *Report) failed() bool {
	n := len(r.Violations)
	for _, d := range r.Deltas {
		if d.Regression {
			n++
			logf("REGRESSION %s %s: %.4g -> %.4g (%+.1f%%)", d.Workload, d.Name, d.Baseline, d.Current, 100*d.RelChange)
		}
	}
	for _, v := range r.Violations {
		logf("VIOLATION %s", v)
	}
	return n > 0
}

// markdown renders the report: tracked metrics against the baseline,
// then every record's metrics and stage timeline.
func (r *Report) markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Benchmark report\n\nRendered from `%s` by `go run ./cmd/bench`. Baseline: `%s`.\n\n", benchFile, r.BaselineRef)
	b.WriteString("## Tracked metrics\n\n| workload | metric | baseline | current | change | status |\n|---|---|---:|---:|---:|---|\n")
	for _, d := range r.Deltas {
		base, change, status := "—", "—", "no baseline"
		if d.HasBase {
			base, change, status = fmt.Sprintf("%.4g", d.Baseline), fmt.Sprintf("%+.1f%%", 100*d.RelChange), "ok"
		}
		if d.Regression {
			status = "REGRESSION"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.4g | %s | %s |\n", d.Workload, d.Name, base, d.Current, change, status)
	}
	for _, rec := range r.Records {
		shape, _ := json.Marshal(rec.Shape)
		fmt.Fprintf(&b, "\n## %s\n\nShape `%s`, GOMAXPROCS %d.\n\n| metric | value |\n|---|---:|\n", rec.Workload, shape, rec.GoMaxProcs)
		for _, v := range rec.Metrics {
			fmt.Fprintf(&b, "| %s | %.4g |\n", v.Name, v.Value)
		}
		b.WriteString("\n| op | stage | mean ms |\n|---|---|---:|\n")
		for _, st := range rec.StagesMS {
			fmt.Fprintf(&b, "| %s | %s | %.3f |\n", st.Op, st.Stage, st.MS)
		}
	}
	if len(r.Violations) > 0 {
		b.WriteString("\n## Violations\n\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "- %s\n", v)
		}
	}
	return b.String()
}
