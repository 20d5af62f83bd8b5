package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
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

// WriteSeriesTable prints an X-swept experiment (Figures 13-15) as one
// column per method, one row per X value.
func WriteSeriesTable(w io.Writer, rows []Row, xLabel string, value func(Row) float64) {
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
			fmt.Fprintf(w, " %12.2f", cell[m][x])
		}
		fmt.Fprintln(w)
	}
}

// WriteExp5Table prints Figure 16: one table per Twrite, Tread rows,
// method columns.
func WriteExp5Table(w io.Writer, points []Exp5Point) {
	byTwrite := map[int64][]Exp5Point{}
	var twrites []int64
	for _, p := range points {
		if _, seen := byTwrite[p.Twrite]; !seen {
			twrites = append(twrites, p.Twrite)
		}
		byTwrite[p.Twrite] = append(byTwrite[p.Twrite], p)
	}
	sort.Slice(twrites, func(i, j int) bool { return twrites[i] < twrites[j] })
	for _, tw := range twrites {
		fmt.Fprintf(w, "Twrite = %d us\n", tw)
		group := byTwrite[tw]
		var methods []string
		var treads []int64
		seenM := map[string]bool{}
		seenT := map[int64]bool{}
		for _, p := range group {
			if !seenM[p.Method] {
				seenM[p.Method] = true
				methods = append(methods, p.Method)
			}
			if !seenT[p.Tread] {
				seenT[p.Tread] = true
				treads = append(treads, p.Tread)
			}
		}
		sort.Slice(treads, func(i, j int) bool { return treads[i] < treads[j] })
		cell := map[string]map[int64]float64{}
		for _, p := range group {
			if cell[p.Method] == nil {
				cell[p.Method] = map[int64]float64{}
			}
			cell[p.Method][p.Tread] = p.OverallPerOp
		}
		fmt.Fprintf(w, "%-10s", "Tread")
		for _, m := range methods {
			fmt.Fprintf(w, " %12s", m)
		}
		fmt.Fprintln(w)
		for _, tr := range treads {
			fmt.Fprintf(w, "%-10d", tr)
			for _, m := range methods {
				fmt.Fprintf(w, " %12.2f", cell[m][tr])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// WriteExp7Table prints Figure 18: I/O time per TPC-C transaction per
// buffer size.
func WriteExp7Table(w io.Writer, points []Exp7Point) {
	var methods []string
	var pcts []float64
	seenM := map[string]bool{}
	seenP := map[float64]bool{}
	cell := map[string]map[float64]float64{}
	for _, p := range points {
		if !seenM[p.Method] {
			seenM[p.Method] = true
			methods = append(methods, p.Method)
		}
		if !seenP[p.BufferPct] {
			seenP[p.BufferPct] = true
			pcts = append(pcts, p.BufferPct)
		}
		if cell[p.Method] == nil {
			cell[p.Method] = map[float64]float64{}
		}
		cell[p.Method][p.BufferPct] = p.MicrosPerTxn
	}
	sort.Float64s(pcts)
	fmt.Fprintf(w, "%-10s", "buf %")
	for _, m := range methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, pct := range pcts {
		fmt.Fprintf(w, "%-10.3g", pct)
		for _, m := range methods {
			fmt.Fprintf(w, " %12.1f", cell[m][pct])
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits rows in CSV form for external plotting.
func WriteCSV(w io.Writer, rows []Row, xLabel string) {
	fmt.Fprintf(w, "method,%s,read_us,write_us,gc_us,overall_us,erases_per_op\n",
		strings.ReplaceAll(xLabel, ",", "_"))
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%g,%.3f,%.3f,%.3f,%.3f,%.5f\n",
			r.Method, r.X, r.Read, r.Write, r.GC, r.Overall, r.ErasesPerOp)
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
