package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Verdicts of one workload x metric row.
const (
	within     = "within"
	outside    = "outside"
	unresolved = "unresolved"
)

// agreeRow is one workload x metric comparison of two result sets.
type agreeRow struct {
	workload, metric string
	a, b             float64 // medians over each set's runs
	rel              float64 // (b-a)/a
	bound            float64
	verdict          string
}

func loadResults(path string) (resultSet, error) {
	var set resultSet
	buf, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(buf, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// valuesOf collects metric's values over the set's runs of workload, and
// the inputs (seed and length) of those runs in ascending order.
func valuesOf(set resultSet, workload, metric string) (vals []float64, inputs []string) {
	for _, r := range set.Results {
		if r.Workload != workload {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			v, ok = r.Also[metric]
		}
		if ok {
			vals = append(vals, v.Value)
			inputs = append(inputs, fmt.Sprintf("%d/%g", r.Seed, r.Seconds))
		}
	}
	sort.Strings(inputs)
	return vals, inputs
}

// comparable refuses two sets that ran a workload for different lengths:
// the operation counts differ, and so does every count per operation.
func comparable(a, b resultSet) error {
	for _, ra := range a.Results {
		for _, rb := range b.Results {
			if ra.Workload == rb.Workload && ra.Seconds != rb.Seconds {
				return fmt.Errorf("%s ran with -seconds %g in one set and %g in the other", ra.Workload, ra.Seconds, rb.Seconds)
			}
		}
	}
	return nil
}

// spread is the distance between the first and third quartiles as a share
// of the median (Python's statistics.quantiles(values, n=4), exclusive
// method); 0 for fewer than two values.
func spread(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		i := int(pos)
		i = max(1, min(i, n-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}

// agreeRows compares two result sets of the same code. A row is within
// when the medians differ by no more than the metric's bound, unresolved
// when they differ by more but one side's own spread is wider than the
// bound, and outside otherwise. page_file's counts are a function of the
// seed, so when both sides ran the same seeds they must be bit-equal.
func agreeRows(a, b resultSet) []agreeRow {
	var rows []agreeRow
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if d.bound == 0 && !d.exact {
					continue
				}
				av, aIn := valuesOf(a, w.name, d.name)
				bv, bIn := valuesOf(b, w.name, d.name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				row := agreeRow{workload: w.name, metric: d.name, a: median(av), b: median(bv), bound: d.bound}
				if row.a != 0 {
					row.rel = (row.b - row.a) / row.a
				} else if row.b != 0 {
					row.rel = math.Inf(1)
				}
				switch {
				case d.exact && !w.kv && slices.Equal(aIn, bIn):
					row.bound = 0
					row.verdict = outside
					if row.a == row.b {
						row.verdict = within
					}
				case math.Abs(row.rel) <= d.bound:
					row.verdict = within
				case spread(av) > d.bound || spread(bv) > d.bound:
					row.verdict = unresolved
				default:
					row.verdict = outside
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// agreeFiles prints one row per workload x metric and returns 1 if any
// row is outside.
func agreeFiles(out io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b resultSet
		if b, err = loadResults(pathB); err == nil {
			if err = comparable(a, b); err == nil {
				return printAgree(out, agreeRows(a, b))
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func printAgree(out io.Writer, rows []agreeRow) int {
	code := 0
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "rel", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.rel, 100*r.bound, r.verdict)
		if r.verdict == outside {
			code = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload and metric")
		return 2
	}
	return code
}
