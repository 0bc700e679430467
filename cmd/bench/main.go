// Command bench is the repository's one benchmark harness. It measures
// the named workloads of one table (pipeline, incremental, cache; see
// workloads.go), writes their records in one schema to BENCH.json,
// renders BENCH_REPORT.md, and gates them: each record is validated
// against the invariants its table row declares, and each tracked
// metric is compared with the baseline commit's record of the same
// shape.
//
//	go run ./cmd/bench                          # measure all; write BENCH.json and BENCH_REPORT.md
//	go run ./cmd/bench -check                   # check the committed BENCH.json; report on stdout
//	go run ./cmd/bench -check -baseline HEAD~1  # CI trajectory gate
//	go run ./cmd/bench -gate incremental        # re-measure one workload, hold it to the table's floors
//
// Every mode exits nonzero on a violated invariant or a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

const (
	benchFile  = "BENCH.json"
	reportFile = "BENCH_REPORT.md"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

func main() {
	checkOnly := flag.Bool("check", false, "check the committed "+benchFile+" instead of measuring; print the report")
	gate := flag.String("gate", "", "re-measure this workload and hold it to the table's floors and the committed record")
	baseline := flag.String("baseline", "HEAD", "git ref whose "+benchFile+" is the comparison baseline")
	flag.Parse()

	var recs []Record
	if *checkOnly || *gate != "" {
		data, err := os.ReadFile(benchFile)
		if err == nil {
			recs, err = parseRecords(data)
		}
		if err != nil {
			fatalf("%s: %v", benchFile, err)
		}
	}
	if *gate != "" {
		// Re-measure one workload at its table shape, print the fresh
		// record, and hold it to the table's floors and the committed
		// record.
		w := lookup(*gate)
		if w == nil {
			fatalf("unknown workload %q", *gate)
		}
		fresh, err := w.run()
		if err != nil {
			fatalf("%v", err)
		}
		if out, err := json.MarshalIndent(fresh, "", "  "); err == nil {
			fmt.Println(string(out))
		}
		if (&Report{Violations: w.gate(fresh, recs)}).failed() {
			os.Exit(1)
		}
		return
	}
	if !*checkOnly {
		for _, w := range workloads {
			rec, err := w.run()
			if err != nil {
				fatalf("%v", err)
			}
			recs = append(recs, rec)
		}
		buf, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(benchFile, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", benchFile, err)
		}
	}
	rep := check(recs, loadBaseline(*baseline), *baseline)
	if *checkOnly {
		fmt.Print(rep.markdown())
	} else if err := os.WriteFile(reportFile, []byte(rep.markdown()), 0o644); err != nil {
		fatalf("write %s: %v", reportFile, err)
	}
	if rep.failed() {
		os.Exit(1)
	}
}
