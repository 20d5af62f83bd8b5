// Command benchmark is the repository's one benchmark: four fixed
// workloads over the whole stack, run as closed loops from this process,
// every value read checked against a model, every run ended by a crash
// and a restart. It reports end-to-end metrics on both clocks (simulated
// flash time and host wall time) and both backends (emulated chips and a
// file), and, with -trace 1, per-layer metrics from spans recorded at the
// Method and Device seams. See README.md beside this file.
//
//	go run ./benchmark                                  # all workloads, end-to-end metrics
//	go run ./benchmark -workload ycsb_a -seed 7         # one workload
//	go run ./benchmark -workload page_file -trace 1     # per-layer metrics and a span file
//	go run ./benchmark -json a.json; go run ./benchmark -json b.json
//	go run ./benchmark -agree a.json b.json             # do two result sets agree?
//
// -json appends to its file, so repeated invocations build one result set.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// resultSet is what -json writes and -agree reads.
type resultSet struct {
	Results []result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], 1))
}

// run is the program. scale multiplies every workload's records and
// blocks; it is 1 except in the tests.
func run(args []string, scale float64) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same keys, values and pages")
		seconds = fs.Float64("seconds", 10, "length of the measured phase: each workload runs its fixed operation count times seconds/10")
		trace   = fs.Int("trace", 0, "1: report the per-layer metrics from a traced run and write trace_<workload>.json")
		dir     = fs.String("dir", "benchmark/out", "scratch directory for the page_file device and the span files")
		jsonOut = fs.String("json", "", "also append the results to this file, for -agree")
		agree   = fs.Bool("agree", false, "compare two result files: -agree a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree needs two result files")
			return 2
		}
		return agreeFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	o := options{seed: *seed, seconds: *seconds, scale: scale, trace: *trace == 1, dir: *dir}
	var set resultSet
	if *jsonOut != "" {
		var err error
		if set, err = loadResults(*jsonOut); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		set.Results = append(set.Results, res)
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printResult(res result) {
	fmt.Printf("# %s seed=%d trace=%d attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, set := range []map[string]metricValue{res.Metrics, res.Also} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-36s %16.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	line, _ := json.Marshal(struct { // a struct of numbers, bools and strings cannot fail to marshal
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Printf("%s\n", line)
}
