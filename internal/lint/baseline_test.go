package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testBaseline(t *testing.T, content string) *Baseline {
	t.Helper()
	path := filepath.Join(t.TempDir(), ".simlint-baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBaselineCarriesFindings checks the filter direction: a finding
// matching a baseline entry (by file, analyzer, and message — not line)
// is dropped from the report; everything else survives.
func TestBaselineCarriesFindings(t *testing.T) {
	b := testBaseline(t, `{
		"findings": [
			{"file": "internal/fem/loads.go", "analyzer": "ctxflow",
			 "msg": "carried message", "reason": "accepted debt"}
		],
		"waivers": []
	}`)
	res := Result{Findings: []Finding{
		{Pos: token.Position{Filename: "/mod/internal/fem/loads.go", Line: 99},
			Analyzer: "ctxflow", Msg: "carried message"},
		{Pos: token.Position{Filename: "/mod/internal/fem/loads.go", Line: 12},
			Analyzer: "ctxflow", Msg: "a different message"},
	}}
	out := b.Apply("/mod", res, nil)
	if len(out) != 1 || out[0].Msg != "a different message" {
		t.Fatalf("Apply = %v, want only the uncarried finding", out)
	}
}

// TestBaselineFlagsUnregisteredWaiver checks the other direction: an
// in-source //lint:ignore with no baseline registration is itself a
// finding, so suppressions cannot bypass review.
func TestBaselineFlagsUnregisteredWaiver(t *testing.T) {
	b := testBaseline(t, `{
		"findings": [],
		"waivers": [
			{"file": "internal/service/admin.go", "analyzer": "errwrap", "reason": "registered"}
		]
	}`)
	res := Result{Waivers: []WaiverUse{
		{Pos: token.Position{Filename: "/mod/internal/service/admin.go", Line: 10},
			Analyzer: "errwrap", Reason: "registered"},
		{Pos: token.Position{Filename: "/mod/internal/par/pool.go", Line: 5},
			Analyzer: "hotpath", Reason: "sneaky"},
	}}
	out := b.Apply("/mod", res, nil)
	if len(out) != 1 || out[0].Analyzer != "baseline" ||
		!strings.Contains(out[0].Msg, "//lint:ignore hotpath is not registered") {
		t.Fatalf("Apply = %v, want one unregistered-waiver finding", out)
	}
	if out[0].Pos.Filename != "/mod/internal/par/pool.go" {
		t.Errorf("unregistered waiver reported at %s, want the waiver site", out[0].Pos.Filename)
	}
}

// TestBaselineFlagsStaleEntries: entries matching nothing in the tree
// are reported, so the baseline can only shrink honestly.
func TestBaselineFlagsStaleEntries(t *testing.T) {
	b := testBaseline(t, `{
		"findings": [
			{"file": "internal/gone.go", "analyzer": "ctxflow", "msg": "fixed long ago", "reason": "old"}
		],
		"waivers": [
			{"file": "internal/gone.go", "analyzer": "errwrap", "reason": "old"}
		]
	}`)
	out := b.Apply("/mod", Result{}, nil)
	if len(out) != 2 {
		t.Fatalf("Apply = %v, want two staleness findings", out)
	}
	for _, f := range out {
		if f.Analyzer != "baseline" || !strings.Contains(f.Msg, "stale baseline") {
			t.Errorf("finding %s is not a staleness diagnostic", f)
		}
	}
}

// TestBaselineMissingFileIsEmpty: no baseline file means nothing is
// carried and no waivers are allowed — the strictest configuration, not
// an error.
func TestBaselineMissingFileIsEmpty(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := Result{
		Findings: []Finding{{Pos: token.Position{Filename: "/mod/a.go"}, Analyzer: "ctxflow", Msg: "m"}},
		Waivers:  []WaiverUse{{Pos: token.Position{Filename: "/mod/a.go"}, Analyzer: "errwrap", Reason: "r"}},
	}
	out := b.Apply("/mod", res, nil)
	if len(out) != 2 {
		t.Fatalf("Apply = %v, want the finding plus the unregistered waiver", out)
	}
}

// TestCommittedBaselineRetired pins the debt register at zero: the
// last carried findings and waivers were burned down when the suite
// went interprocedural, and the file itself is gone. Anyone reviving
// it must consciously re-open the register.
func TestCommittedBaselineRetired(t *testing.T) {
	b, err := LoadBaseline(filepath.Join("..", "..", ".simlint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 0 || len(b.Waivers) != 0 {
		t.Fatalf("committed baseline carries %d findings, %d waivers; the register was retired at zero",
			len(b.Findings), len(b.Waivers))
	}
}
