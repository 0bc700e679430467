package perfgate

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildOutput is a faithful slice of `go build -gcflags='-m=1
// -d=ssa/check_bce/debug=1'` output: package banners, inlining chatter,
// param-leak annotations, the four diagnostic shapes the gate counts,
// and an inlining-duplicated bounds check.
const buildOutput = `# repro/internal/sparse
internal/sparse/csr.go:34:20: fmt.Sprintf("entry (%d,%d)", ... argument...) escapes to heap
internal/sparse/csr.go:83:7: &CSR{...} escapes to heap
internal/sparse/csr.go:141:7: m does not escape
internal/sparse/csr.go:141:22: x does not escape
internal/sparse/csr.go:141:25: leaking param: y
internal/sparse/csr.go:145:15: Found IsInBounds
internal/sparse/csr.go:146:13: Found IsSliceInBounds
internal/sparse/csr.go:146:13: Found IsSliceInBounds
# repro/internal/solver
internal/solver/gmres.go:139:14: func literal escapes to heap
internal/solver/gmres.go:303:2: moved to heap: stats
internal/solver/gmres.go:27:6: can inline norm2
internal/solver/precond.go:95:16: Found IsSliceInBounds
/usr/local/go/src/slices/sort.go:10:6: Found IsInBounds
not a diagnostic line
`

func TestParseDiagnostics(t *testing.T) {
	diags := ParseDiagnostics([]byte(buildOutput))
	want := []Diag{
		{File: "internal/solver/gmres.go", Line: 139, Col: 14, Kind: KindEscape, Text: "func literal escapes to heap"},
		{File: "internal/solver/gmres.go", Line: 303, Col: 2, Kind: KindEscape, Text: "moved to heap: stats"},
		{File: "internal/solver/precond.go", Line: 95, Col: 16, Kind: KindBounds, Text: "Found IsSliceInBounds"},
		{File: "internal/sparse/csr.go", Line: 34, Col: 20, Kind: KindEscape,
			Text: `fmt.Sprintf("entry (%d,%d)", ... argument...) escapes to heap`},
		{File: "internal/sparse/csr.go", Line: 83, Col: 7, Kind: KindEscape, Text: "&CSR{...} escapes to heap"},
		{File: "internal/sparse/csr.go", Line: 145, Col: 15, Kind: KindBounds, Text: "Found IsInBounds"},
		// The duplicated IsSliceInBounds at 146:13 collapses to one.
		{File: "internal/sparse/csr.go", Line: 146, Col: 13, Kind: KindBounds, Text: "Found IsSliceInBounds"},
	}
	if len(diags) != len(want) {
		t.Fatalf("ParseDiagnostics = %d diags, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if diags[i] != w {
			t.Errorf("diag %d = %+v, want %+v", i, diags[i], w)
		}
	}
}

func TestAttributeCountsAndContract(t *testing.T) {
	diags := ParseDiagnostics([]byte(buildOutput))
	extents := []lint.FuncExtent{
		{File: "internal/sparse/csr.go", Pkg: "internal/sparse", Name: "CSR.MulVec",
			StartLine: 141, EndLine: 158, NoEscape: true},
		{File: "internal/solver/gmres.go", Pkg: "internal/solver", Name: "gmresCycle",
			StartLine: 127, EndLine: 249, NoEscape: true},
		{File: "internal/solver/gmres.go", Pkg: "internal/solver", Name: "GMRESContext",
			StartLine: 258, EndLine: 380},
	}
	rep := Attribute(diags, extents)

	if got := rep.Counts["internal/sparse"]; got.Escapes != 2 || got.BoundsChecks != 2 {
		t.Errorf("internal/sparse counts = %+v, want 2 escapes, 2 deduped bounds checks", got)
	}
	if got := rep.Counts["internal/solver"]; got.Escapes != 2 || got.BoundsChecks != 1 {
		t.Errorf("internal/solver counts = %+v, want 2 escapes, 1 bounds check", got)
	}

	// The func-literal escape at gmres.go:139 lands inside the
	// //lint:noescape gmresCycle extent: a contract finding. The moved-to
	// -heap at 303 lands in GMRESContext, which is unannotated: no
	// finding. Bounds checks never violate the noescape contract.
	if len(rep.Contract) != 1 {
		t.Fatalf("Contract = %v, want exactly the gmresCycle escape", rep.Contract)
	}
	f := rep.Contract[0]
	if f.Pos != "internal/solver/gmres.go:139" ||
		!strings.Contains(f.Msg, "//lint:noescape kernel gmresCycle") ||
		!strings.Contains(f.Msg, "func literal escapes to heap") {
		t.Errorf("contract finding = %s, want the gmresCycle func-literal escape", f)
	}

	// Both annotated kernels appear in the status list, sorted by name,
	// with their escape totals.
	if len(rep.Kernels) != 2 ||
		rep.Kernels[0].Name != "CSR.MulVec" || rep.Kernels[0].Escapes != 0 ||
		rep.Kernels[1].Name != "gmresCycle" || rep.Kernels[1].Escapes != 1 {
		t.Errorf("Kernels = %+v, want [CSR.MulVec:0 gmresCycle:1]", rep.Kernels)
	}
}

func TestGateRatchet(t *testing.T) {
	rep := &Report{Counts: map[string]Counts{
		"internal/fem":    {Escapes: 5, BoundsChecks: 10}, // matches baseline
		"internal/sparse": {Escapes: 3, BoundsChecks: 10}, // escapes regressed
		"internal/edt":    {Escapes: 1, BoundsChecks: 4},  // bounds improved: stale
		"internal/render": {Escapes: 2, BoundsChecks: 0},  // unbaselined
	}}
	base := &Baseline{Packages: map[string]Counts{
		"internal/fem":    {Escapes: 5, BoundsChecks: 10},
		"internal/sparse": {Escapes: 2, BoundsChecks: 10},
		"internal/edt":    {Escapes: 1, BoundsChecks: 9},
		"internal/gone":   {Escapes: 7, BoundsChecks: 1}, // package vanished
	}}
	findings := Gate(rep, base)
	wants := []struct{ pos, substr string }{
		{"internal/edt", "stale baseline: register allows 9 bounds checks but the tree compiles with 4"},
		{"internal/render", "2 escapes, baseline allows 0"},
		{"internal/sparse", "3 escapes, baseline allows 2"},
		{"internal/gone", "package reports no diagnostics"},
	}
	if len(findings) != len(wants) {
		t.Fatalf("Gate = %d findings, want %d:\n%v", len(findings), len(wants), findings)
	}
	for i, w := range wants {
		if findings[i].Pos != w.pos || !strings.Contains(findings[i].Msg, w.substr) {
			t.Errorf("finding %d = %s, want %s matching %q", i, findings[i], w.pos, w.substr)
		}
	}
}

func TestGateContractBypassesBaseline(t *testing.T) {
	// A contract finding survives even a baseline generous enough to
	// absorb every count.
	rep := &Report{
		Counts:   map[string]Counts{"internal/solver": {Escapes: 1}},
		Contract: []Finding{{Pos: "internal/solver/gmres.go:139", Msg: "heap escape inside //lint:noescape kernel gmresCycle"}},
	}
	base := &Baseline{Packages: map[string]Counts{"internal/solver": {Escapes: 1}}}
	findings := Gate(rep, base)
	if len(findings) != 1 || !strings.Contains(findings[0].Msg, "noescape kernel") {
		t.Fatalf("Gate = %v, want only the unbaselinable contract finding", findings)
	}
}

func TestFromReportRoundTrip(t *testing.T) {
	rep := &Report{Counts: map[string]Counts{
		"internal/fem": {Escapes: 5, BoundsChecks: 10},
		"internal/edt": {}, // zero-count entries are omitted
	}}
	b := FromReport(rep)
	if len(b.Packages) != 1 {
		t.Fatalf("FromReport kept %d packages, want 1", len(b.Packages))
	}
	if Gate(rep, b) != nil {
		t.Errorf("Gate against FromReport baseline = %v, want clean", Gate(rep, b))
	}
}

func TestWriteMarkdown(t *testing.T) {
	rep := &Report{
		Counts:  map[string]Counts{"internal/sparse": {Escapes: 3, BoundsChecks: 10}},
		Kernels: []KernelStatus{{Name: "CSR.MulVec", File: "internal/sparse/csr.go", Escapes: 0}},
	}
	base := &Baseline{Packages: map[string]Counts{"internal/sparse": {Escapes: 2, BoundsChecks: 10}}}
	var b strings.Builder
	if err := WriteMarkdown(&b, rep, base, Gate(rep, base)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"## perfgate: 1 finding(s)",
		"| `CSR.MulVec` | internal/sparse/csr.go | 0 ✓ |",
		"| internal/sparse | **3** (baseline 2) ✗ | 10 |",
		"3 escapes, baseline allows 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
