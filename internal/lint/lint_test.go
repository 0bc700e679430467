package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tests share one Module so the (expensive) source-importer
// type-checking of stdlib dependencies happens once per test binary.
var (
	modOnce sync.Once
	testMod *Module
	modErr  error
)

func testModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { testMod, modErr = NewModule("../..") })
	if modErr != nil {
		t.Fatalf("NewModule: %v", modErr)
	}
	return testMod
}

func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := testModule(t).LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// expectation is one `// want <analyzer> "<substring>"` comment parsed
// out of a fixture: a finding by that analyzer must land on that line
// with the substring in its message.
type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`want ([a-z]+) "([^"]+)"`)

// parseWants reads the fixture sources back and collects their want
// comments, keyed by position.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(line[idx:], -1) {
				out = append(out, &expectation{file: name, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return out
}

// TestAnalyzerFixtures runs the full suite over each fixture package
// and checks the findings line-for-line against the fixtures' want
// comments: every want must be found, and nothing else may fire.
func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range []struct {
		dir        string
		importPath string
	}{
		// The import paths masquerade the fixtures into each analyzer's
		// scope (ctxprop wants a pipeline package, floateq a kernel one).
		{"ctxprop", "repro/internal/fem/ctxfixture"},
		{"spanend", "repro/internal/spanfixture"},
		{"metricname", "repro/internal/metricfixture"},
		{"errwrap", "repro/internal/errfixture"},
		{"floateq", "repro/internal/solver/floatfixture"},
		{"hotpath", "repro/internal/hotpathfix"},
		{"hotpathcalls", "repro/internal/hotcallfix"},
		{"concsafe", "repro/internal/par/concfixture"},
		{"lockscope", "repro/internal/par/lockfixture"},
		{"phaseorder", "repro/internal/phasefixture"},
		{"coordspace", "repro/internal/mesh/coordfixture"},
		{"aliasguard", "repro/internal/aliasfixture"},
		{"nanguard", "repro/internal/solver/nanfixture"},
		{"detguard", "repro/internal/fem/detfixture"},
		{"shapecheck", "repro/internal/shapefixture"},
		{"stagedag", "repro/internal/dagfixture"},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", "src", tc.dir), tc.importPath)
			wants := parseWants(t, pkg)
			findings := Run([]*Package{pkg}, Analyzers())
		finding:
			for _, f := range findings {
				for _, w := range wants {
					if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line &&
						w.analyzer == f.Analyzer && strings.Contains(f.Msg, w.substr) {
						w.matched = true
						continue finding
					}
				}
				t.Errorf("unexpected finding: %s", f)
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: missing %s finding matching %q", w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}

// TestFindingPositions pins the exact file:line:col of findings on a
// source text small enough to count by hand.
func TestFindingPositions(t *testing.T) {
	const src = `package tmpfloat

func Eq(a, b float64) bool {
	return a == b
}

func Ne(r float64) bool {
	return r != 0
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tmpfloat.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/solver/tmpfloat")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line, col int
	}{
		{4, 11}, // the == in Eq
		{8, 11}, // the != in Ne
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != "floateq" || f.Pos.Line != w.line || f.Pos.Column != w.col {
			t.Errorf("finding %d = %s:%d:%d %s, want line %d col %d floateq",
				i, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, w.line, w.col)
		}
	}
}

// TestSuppressionCoverage verifies both accepted placements of a
// //lint:ignore comment: trailing on the offending line and on the
// line directly above it.
func TestSuppressionCoverage(t *testing.T) {
	const src = `package supfix

import "errors"

func fail() error { return errors.New("x") }

func SameLine() {
	_ = fail() //lint:ignore errwrap trailing waiver on the same line
}

func LineAbove() {
	//lint:ignore errwrap waiver on the line above
	_ = fail()
}

func TwoAbove() {
	//lint:ignore errwrap a waiver two lines up reaches nothing
	_ = 0
	_ = fail()
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "supfix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/supfix")
	findings := Run([]*Package{pkg}, Analyzers())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the out-of-range one:\n%s", len(findings), findingList(findings))
	}
	if f := findings[0]; f.Analyzer != "errwrap" || f.Pos.Line != 19 {
		t.Errorf("surviving finding = %s, want errwrap on line 19", f)
	}
}

// TestMalformedDirectives checks the lint pseudo-analyzer: broken
// //lint: directives are reported at their exact positions and fail to
// suppress the findings beneath them.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "badsup"), "repro/internal/badsup")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line, col int
		analyzer  string
		substr    string
	}{
		{12, 2, "lint", "malformed directive"},
		{13, 6, "errwrap", "error discarded with _ ="},
		{18, 2, "lint", `unknown analyzer "nosuchanalyzer"`},
		{19, 6, "errwrap", "error discarded with _ ="},
		{24, 2, "lint", "unknown directive //lint:ignroe"},
		{25, 6, "errwrap", "error discarded with _ ="},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Pos.Line != w.line || f.Pos.Column != w.col ||
			!strings.Contains(f.Msg, w.substr) {
			t.Errorf("finding %d = %s, want %s at %d:%d matching %q", i, f, w.analyzer, w.line, w.col, w.substr)
		}
	}
}

// TestDirectiveSyntax checks the lint pseudo-analyzer's validation of
// the contract directives: malformed //lint:noalias and //lint:shape
// arguments are reported at the directive itself, alongside the
// semantic diagnostics the analyzers anchor on the declaration. The
// cases live inline rather than in a fixture because a want comment
// appended to a directive line would become part of the directive's
// own argument.
func TestDirectiveSyntax(t *testing.T) {
	const src = `package dirsyntax

// One names a single parameter.
//
//lint:noalias x
func One(x []float64) {}

// Bad names a non-identifier.
//
//lint:noalias x,2y
func Bad(x, y []float64) {}

// Shapes has two unparseable relations.
//
//lint:shape len(a)=len(b) bogus
func Shapes(a, b []float64) {}

// Empty has no argument at all.
//
//lint:shape
func Empty(a []float64) {}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dirsyntax.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/dirsyntax")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{5, "lint", "malformed directive: want //lint:noalias <param>,<param>"},
		{6, "aliasguard", "needs at least two parameter names"},
		{10, "lint", `"2y" is not an identifier`},
		{11, "aliasguard", `"2y" which is not a parameter of Bad`},
		// Same position: ties sort by message, "bogus" before "len(".
		{15, "lint", `"bogus" does not parse`},
		{15, "lint", `"len(a)=len(b)" does not parse`},
		{20, "lint", "malformed directive: want //lint:shape validator | <relation>"},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Pos.Line != w.line || !strings.Contains(f.Msg, w.substr) {
			t.Errorf("finding %d = %s, want %s at line %d matching %q", i, f, w.analyzer, w.line, w.substr)
		}
	}
}

// TestStageDirectiveSyntax checks the lint pseudo-analyzer's
// validation of //lint:stage arguments. Like TestDirectiveSyntax, the
// cases live inline because a want comment appended to a directive
// line would become part of the directive's own argument.
func TestStageDirectiveSyntax(t *testing.T) {
	const src = `package stagesyntax

type st struct{ a int }

// Bare carries an empty directive.
//
//lint:stage
func Bare(s *st) error { return nil }

// Nameless omits the mandatory name field.
//
//lint:stage inputs=a pure
func Nameless(s *st) error {
	_ = s.a
	return nil
}

// Unknown uses a field outside the grammar.
//
//lint:stage name=unknown-field wibble=x
func Unknown(s *st) error { return nil }

// BadName is not lowercase kebab-case.
//
//lint:stage name=BadName
func BadName(s *st) error { return nil }

// EmptyList declares inputs with no names.
//
//lint:stage name=empty-list inputs=
func EmptyList(s *st) error { return nil }
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stagesyntax.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/stagesyntax")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{7, "lint", "malformed directive: want //lint:stage name=<stage>"},
		{12, "lint", "//lint:stage requires name=<stage>"},
		{20, "lint", `field "wibble=x": want name=, deps=, inputs=, outputs=, key=, or pure`},
		{25, "lint", `name "BadName" is not one lowercase kebab-case name`},
		{30, "lint", "//lint:stage inputs= lists no names"},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Pos.Line != w.line || !strings.Contains(f.Msg, w.substr) {
			t.Errorf("finding %d = %s, want %s at line %d matching %q", i, f, w.analyzer, w.line, w.substr)
		}
	}
}

// TestAnalyzerNamesStable pins the suite roster: the names appear in
// //lint:ignore directives across the tree, so removals or renames must
// be deliberate.
func TestAnalyzerNamesStable(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name())
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
	}
	if got, want := strings.Join(names, " "),
		"ctxprop spanend metricname errwrap floateq hotpath concsafe lockscope phaseorder coordspace"+
			" aliasguard nanguard detguard shapecheck stagedag"; got != want {
		t.Errorf("Analyzers() = %q, want %q", got, want)
	}
}

// TestModuleIsSimlintClean is the self-check: the suite, filtered
// through the committed baseline, must pass over the repository itself,
// exactly as cmd/simlint runs it in make check.
func TestModuleIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod := testModule(t)
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; the walk is likely broken", len(pkgs))
	}
	res := RunAll(pkgs, Analyzers())
	base, err := LoadBaseline(filepath.Join(mod.Root, ".simlint-baseline.json"))
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	for _, f := range base.Apply(mod.Root, res, nil) {
		t.Errorf("%s", f)
	}
}

// TestDeterministicOutput pins the fixed-output guarantee: two runs of
// the suite over the whole module render byte-identical text reports,
// even though RunAll analyzes packages concurrently.
func TestDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod := testModule(t)
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	// The module itself is clean, so fold two finding-rich fixtures into
	// the run: the determinism check needs a non-trivial report, and the
	// fixtures exercise the interprocedural analyzers' chain rendering.
	pkgs = append(pkgs,
		loadFixture(t, filepath.Join("testdata", "src", "ctxprop"), "repro/internal/fem/ctxfixture"),
		loadFixture(t, filepath.Join("testdata", "src", "lockscope"), "repro/internal/par/lockfixture"))
	render := func() string {
		var b strings.Builder
		if err := WriteText(&b, mod.Root, Run(pkgs, Analyzers())); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("raw run produced no findings; the determinism check needs a non-trivial report")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from run 0:\n--- run 0\n%s\n--- run %d\n%s", i+1, first, i+1, got)
		}
	}
}

func findingList(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
