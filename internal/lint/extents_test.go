package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScanFuncExtents pins the declaration geometry and directive
// pickup cmd/perfgate's attribution depends on: line ranges exclude
// the doc comment, method names render "Recv.Method" with pointer
// receivers stripped, and test files are skipped.
func TestScanFuncExtents(t *testing.T) {
	dir := t.TempDir()
	const src = `package extfix

type kern struct{}

// MulRow is the annotated kernel.
//
//lint:hotpath
//lint:noescape
func (k *kern) MulRow(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func plain() {}
`
	if err := os.WriteFile(filepath.Join(dir, "ext.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ext_test.go"), []byte("package extfix\n\nfunc ignored() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	exts, err := ScanFuncExtents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("ScanFuncExtents = %d extents, want 2 (test file skipped): %+v", len(exts), exts)
	}
	mul := exts[0]
	if mul.Name != "kern.MulRow" || mul.File != "ext.go" || mul.Pkg != "." ||
		mul.StartLine != 9 || mul.EndLine != 15 || !mul.NoEscape {
		t.Errorf("MulRow extent = %+v, want kern.MulRow ext.go:9-15 noescape", mul)
	}
	if p := exts[1]; p.Name != "plain" || p.NoEscape || p.StartLine != 17 {
		t.Errorf("plain extent = %+v, want undirected decl at line 17", p)
	}
}
