package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload untraced and traced on a
// small phantom and checks the result line against BENCHMARK.json: the
// same workload names, exactly the listed metrics with their units, and
// every op passing the fail rules.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), []string{"--workload", w, "--seed", "3",
					"--seconds", "0", "--trace", trace, "-size", "32", "-out", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "1" {
					checkSpans(t, dir)
				}
				// The artifact round trip of a clinical-register trace
				// fills the store and then reads it back.
				if trace == "1" && w == clinicalRegister &&
					(res.Metrics["artifact.misses"].Value == 0 || res.Metrics["artifact.hits"].Value == 0) {
					t.Errorf("artifact round trip: misses %v, hits %v, want both > 0",
						res.Metrics["artifact.misses"].Value, res.Metrics["artifact.hits"].Value)
				}
			})
		}
	}
}

// checkSpans reads the run's span file: one run ID, parents opened
// before their children, and every span closed.
func checkSpans(t *testing.T, dir string) {
	files, err := filepath.Glob(filepath.Join(dir, "trace-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("span files %v (%v), want one", files, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs := map[string]bool{}
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		runs[s.RunID] = true
		names[s.Name] = true
		if s.ID != n || s.Parent >= s.ID || s.EndNS < s.StartNS {
			t.Errorf("span %+v: bad id, parent or interval", s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Errorf("run ids %v, want one", runs)
	}
	for _, n := range []string{"op", "replay", "op.1rank", "replay.biomech", "solver.gmres_ms", "stage.biomech"} {
		if !names[n] {
			t.Errorf("no %q span", n)
		}
	}
}
