package bench

import (
	"fmt"
	"io"
	"sort"
)

// WriteExp1Table prints the Figure 12 decomposition: read, write (with the
// garbage-collection share), and overall time per update operation.
func WriteExp1Table(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"method", "read us/op", "write us/op", "gc us/op", "overall us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.1f %12.1f %12.1f %12.1f\n",
			r.Method, r.Read, r.Write, r.GC, r.Overall)
	}
}

// WriteSeriesTable prints an X-swept experiment (Figures 13-18) as one
// column per method, one row per X value, each cell value(row) with the
// given number of decimals.
func WriteSeriesTable(w io.Writer, rows []Row, xLabel string, decimals int, value func(Row) float64) {
	methods, xs := axes(rows)
	cell := map[string]map[float64]float64{}
	for _, r := range rows {
		if cell[r.Method] == nil {
			cell[r.Method] = map[float64]float64{}
		}
		cell[r.Method][r.X] = value(r)
	}
	fmt.Fprintf(w, "%-10s", xLabel)
	for _, m := range methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%-10.4g", x)
		for _, m := range methods {
			fmt.Fprintf(w, " %12.*f", decimals, cell[m][x])
		}
		fmt.Fprintln(w)
	}
}

// axes extracts the method order (first appearance) and sorted X values.
func axes(rows []Row) ([]string, []float64) {
	var methods []string
	var xs []float64
	seenM := map[string]bool{}
	seenX := map[float64]bool{}
	for _, r := range rows {
		if !seenM[r.Method] {
			seenM[r.Method] = true
			methods = append(methods, r.Method)
		}
		if !seenX[r.X] {
			seenX[r.X] = true
			xs = append(xs, r.X)
		}
	}
	sort.Float64s(xs)
	return methods, xs
}
