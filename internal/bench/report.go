package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pdl/internal/buffer"
	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/latency"
	"pdl/internal/ycsb"
)

// ReportSchemaVersion is the version stamped into every persisted
// BENCH_*.json report. Bump it on any incompatible schema change so
// downstream tooling can refuse files it does not understand.
//
// Version history:
//
//	1: initial schema (PR 7)
//	2: params.channels and the channel_gc per-channel GC counter section
//	3: the flash_ops section (flash programs+erases per logical write,
//	   with the adaptive PDL/OPU route split) and params.theta
//	4: integrity counters in the telemetry section (EccCorrectedBits,
//	   PagesHealed, UnrecoverablePages, HeaderChecksumFailures) and the
//	   fault experiment's heal/typed-error rates in extra
const ReportSchemaVersion = 4

// ReportParams records the knobs that produced a report, page-level and
// serving-level alike; unused fields stay zero and are omitted.
type ReportParams struct {
	NumBlocks     int `json:"num_blocks,omitempty"`
	PagesPerBlock int `json:"pages_per_block,omitempty"`
	PageSize      int `json:"page_size,omitempty"`
	// Channels is the striped device's channel count (0/1: plain chip).
	Channels int `json:"channels,omitempty"`
	// NumPages is the logical database size in pages.
	NumPages int `json:"num_pages,omitempty"`
	// Records..Theta describe a YCSB serving run.
	Records      int     `json:"records,omitempty"`
	Clients      int     `json:"clients,omitempty"`
	ValueSize    int     `json:"value_size,omitempty"`
	Distribution string  `json:"distribution,omitempty"`
	Theta        float64 `json:"theta,omitempty"`
	Buckets      int     `json:"buckets,omitempty"`
	// Workers is the page-level experiments' goroutine count.
	Workers int   `json:"workers,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// Report is the shared JSON document every experiment can serialize one
// measured point into: identification (experiment, method, backend),
// the producing parameters, and whichever measurement sections apply.
// Optional sections are pointers so absent ones vanish from the JSON
// rather than reading as measured zeroes.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Experiment names the run, including any qualifier that
	// distinguishes points of one experiment: "ycsb-A", "gctail-sync".
	Experiment string `json:"experiment"`
	// Method is the method label, e.g. "PDL(256B)".
	Method string `json:"method"`
	// Backend is "emu" or "file".
	Backend string       `json:"backend"`
	Params  ReportParams `json:"params"`

	Ops           int64   `json:"ops,omitempty"`
	ElapsedMicros int64   `json:"elapsed_us,omitempty"`
	OpsPerSec     float64 `json:"ops_per_sec,omitempty"`

	// Counts breaks serving-layer ops down by type (YCSB runs).
	Counts *ycsb.Counts `json:"op_counts,omitempty"`
	// Latency is the per-operation latency summary with its histogram.
	Latency *latency.Summary `json:"latency,omitempty"`
	// Flash is the device's operation counters over the measured phase.
	Flash *flash.Stats `json:"flash,omitempty"`
	// Telemetry is the PDL store's internal counters (PDL methods only).
	Telemetry *core.Telemetry `json:"telemetry,omitempty"`
	// FlashOps is the flash-operations-per-logical-write cost metric
	// (PDL-family stores only; the denominator is store-counted logical
	// reflections, the route split is the adaptive router's).
	FlashOps *core.FlashOpsPerLogicalWrite `json:"flash_ops,omitempty"`
	// Pool is the buffer-pool counters (serving-layer runs).
	Pool *buffer.Stats `json:"pool,omitempty"`
	// ChannelGC is the per-channel garbage-collection breakdown (runs,
	// pages moved, cold migrations, differential-stream pages), indexed by
	// channel; absent for methods without the channel-aware allocator.
	ChannelGC []ftl.ChannelGCStats `json:"channel_gc,omitempty"`
	// Extra carries experiment-specific scalars that have no dedicated
	// field (e.g. gc run counts, per-op microseconds).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// SanitizeLabel maps a human label ("PDL(256B)") onto the character set
// report file names use.
func SanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, label)
}

// ReportFileName returns the canonical name of a report:
// BENCH_<experiment>_<method>_<backend>.json.
func ReportFileName(experiment, method, backend string) string {
	return fmt.Sprintf("BENCH_%s_%s_%s.json",
		SanitizeLabel(experiment), SanitizeLabel(method), SanitizeLabel(backend))
}

// WriteReportFile serializes r into dir under its canonical name,
// creating dir if needed, and returns the written path.
func WriteReportFile(dir string, r Report) (string, error) {
	r.SchemaVersion = ReportSchemaVersion
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: report dir: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: encoding report: %w", err)
	}
	path := filepath.Join(dir, ReportFileName(r.Experiment, r.Method, r.Backend))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: writing report: %w", err)
	}
	return path, nil
}

// ReadReportFile parses a report written by WriteReportFile, rejecting
// unknown schema versions.
func ReadReportFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parsing report %s: %w", path, err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return Report{}, fmt.Errorf("bench: report %s has schema version %d, want %d",
			path, r.SchemaVersion, ReportSchemaVersion)
	}
	return r, nil
}

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
