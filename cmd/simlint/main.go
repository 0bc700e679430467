// Command simlint runs the project-native static-analysis suite over
// the module: the analyzers in internal/lint that mechanically enforce
// the pipeline's concurrency, telemetry, error-handling, numerical-
// kernel, solver phase-order, and coordinate-frame invariants.
//
// Usage:
//
//	go run ./cmd/simlint [-list] [-format text|json|sarif] [-baseline file] [pattern ...]
//
// Patterns are module-relative package paths; "./..." (the default)
// covers the whole module, "./internal/..." a subtree, "./cmd/simlint"
// one package. Findings print as file:line:col: analyzer: message (or
// as JSON / SARIF 2.1.0 with -format) and any unsuppressed finding
// makes the exit status non-zero, so the command slots directly into
// scripts/check.sh and CI.
//
// The committed baseline (.simlint-baseline.json at the module root,
// overridable with -baseline) carries accepted findings and registers
// every //lint:ignore the tree is allowed to contain; see internal/lint
// for the matching rules. -baseline none disables it, reporting the raw
// suite output.
//
// Results are cached per package under .simlint-cache (overridable with
// -cache; "none" disables), keyed on the package's sources, its
// module-internal import closure, the analyzer roster, and the linter's
// own sources — so a warm run over an unchanged tree replays stored
// findings instead of re-analyzing, byte-identical to a cold run. The
// cache directory is disposable and gitignored; delete it to force a
// cold run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and the span/metric/event vocabularies they enforce, then exit")
	format := flag.String("format", "text", "report format: text, json, or sarif")
	baselinePath := flag.String("baseline", ".simlint-baseline.json",
		"baseline file relative to the module root (\"none\" disables baseline filtering)")
	cachePath := flag.String("cache", ".simlint-cache",
		"result cache directory relative to the module root (\"none\" disables caching)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [-format text|json|sarif] [-baseline file] [-cache dir] [pattern ...]\n\npatterns default to ./... (the whole module)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		printList(analyzers)
		return
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "simlint: unknown format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	mod, err := lint.NewModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []*lint.Package
	for _, pkg := range pkgs {
		if matchesAny(pkg.RelPath, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "simlint: no packages match %v\n", patterns)
		os.Exit(2)
	}

	var cache *lint.Cache
	if *cachePath != "none" {
		dir := *cachePath
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		cache, err = lint.NewCache(dir, root, analyzers)
		if err != nil {
			// The cache is an accelerator; a broken one must not fail
			// the lint run.
			fmt.Fprintln(os.Stderr, "simlint: cache disabled:", err)
			cache = nil
		}
	}

	res, stats := lint.RunAllCached(selected, analyzers, cache)
	if cache != nil {
		fmt.Fprintf(os.Stderr, "simlint: cache: %d hit(s), %d miss(es)\n", stats.Hits, stats.Misses)
	}
	findings := res.Findings
	if *baselinePath != "none" {
		path := *baselinePath
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, path)
		}
		base, err := lint.LoadBaseline(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		analyzed := make([]string, 0, len(selected))
		for _, pkg := range selected {
			analyzed = append(analyzed, pkg.RelPath)
		}
		findings = base.Apply(root, res, analyzed)
	}

	switch *format {
	case "text":
		err = lint.WriteText(os.Stdout, root, findings)
	case "json":
		err = lint.WriteJSON(os.Stdout, root, findings)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, root, findings, analyzers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// printList writes the analyzer inventory plus the telemetry
// vocabularies the spanend and metricname analyzers check literals
// against.
func printList(analyzers []lint.Analyzer) {
	fmt.Println("simlint analyzers:")
	for _, a := range analyzers {
		fmt.Printf("  %-10s %s\n", a.Name(), a.Doc())
	}
	vocab := func(title string, m map[string]string, width int) {
		fmt.Printf("\n%s:\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-*s %s\n", width, n, m[n])
		}
	}
	vocab("brainsim span vocabulary (obs.SpanNames)", obs.SpanNames, 16)
	vocab("brainsim metric vocabulary (obs.MetricNames)", obs.MetricNames, 40)
	vocab("brainsim event vocabulary (obs.EventNames)", obs.EventNames, 16)
	fmt.Println("\nsuppress a finding with:  //lint:ignore <analyzer> <reason> (must be registered in the baseline)")
	fmt.Println("annotate a kernel with:   //lint:hotpath (enables the hotpath checks)")
	fmt.Println("pin a kernel's escapes:   //lint:noescape (enforced by cmd/perfgate against compiler facts)")
	fmt.Println("declare phase contracts:  //lint:phase requires=... provides=... forbids=...")
	fmt.Println("mark frame conversions:   //lint:coordspace conversion")
	fmt.Println("declare aliasing rules:   //lint:noalias <param>,<param> (call sites checked by slice provenance)")
	fmt.Println("declare shape contracts:  //lint:shape len(A)==len(B) ... | //lint:shape validator")
	fmt.Println("declare stage contracts:  //lint:stage name=<stage> deps=<a,b> inputs=<x,y> outputs=<z> key=<Field,...> [pure]")
}

// matchesAny reports whether the module-relative package path matches
// one of the ./...-style patterns.
func matchesAny(relPath string, patterns []string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == "":
			return true
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			if relPath == base || strings.HasPrefix(relPath, base+"/") {
				return true
			}
		case relPath == p:
			return true
		}
	}
	return false
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
