// Command pdlbench reproduces the paper's evaluation (Experiments 1-7,
// Figures 12-18) and prints the measured tables.
//
// Usage:
//
//	pdlbench -exp 1                  # Figure 12 at the default geometry
//	pdlbench -exp 2 -blocks 1024     # Figure 13 on a 128-MB chip
//	pdlbench -exp all -gcrounds 10   # experiments 1-7, paper-grade conditioning
//	pdlbench -exp 1 -backend file    # same experiment on the persistent backend
//
// -exp all makes each distinct run once: Figure 16 is recomputed from
// Experiment 1's runs and Figure 17 is the erase count of Experiment 2's
// (bench.Suite). A flag no experiment can run with (an unknown -exp, -n or
// -warehouses under 1, a geometry bench.Geometry.Check refuses) is an
// error before anything runs.
//
// All reported times are simulated flash I/O times derived from the
// datasheet parameters (Table 1), so every run is deterministic for a seed
// and prints the same table on either backend. Host-side cost (throughput,
// latency, per-layer time) is measured by `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pdl/internal/bench"
	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/tpcc"
)

// sanitize turns a method label into a file-name-safe fragment.
func sanitize(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, label)
}

// main delegates to realMain so the file backend's deferred temp-dir
// removal runs even when an experiment fails; os.Exit would skip it.
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		exp       = flag.String("exp", "1", "experiment to run: 1..7, or all")
		blocks    = flag.Int("blocks", 512, "flash size in 132-KB blocks (512 = 64 MB)")
		dbfrac    = flag.Float64("dbfrac", 0.4, "database size as a fraction of flash capacity")
		gcrounds  = flag.Float64("gcrounds", 3, "steady-state criterion: mean GC rounds per block before measuring (paper: 10)")
		ops       = flag.Int("ops", 20000, "measured operations per data point")
		seed      = flag.Int64("seed", 1, "workload seed")
		pageSize  = flag.Int("pagesize", flash.DefaultDataSize, "logical/physical page size in bytes, a multiple of 256 (Figure 13(b) uses 8192)")
		nupdates  = flag.Int("n", 1, "N_updates_till_write for experiments 3 and 4")
		warehouse = flag.Int("warehouses", 1, "TPC-C warehouses for experiment 7")
		backend   = flag.String("backend", "emu", "flash backend: emu (in-memory) or file (persistent)")
		path      = flag.String("path", "", "directory for -backend file device files (default: a temp dir)")
	)
	flag.Parse()

	ids, err := bench.ExperimentIDs(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
		return 1
	}
	if *pageSize <= 0 || *pageSize%ecc.SectorSize != 0 {
		fmt.Fprintf(os.Stderr, "pdlbench: -pagesize %d is not a positive multiple of %d\n", *pageSize, ecc.SectorSize)
		return 1
	}
	if *pageSize > diff.MaxPageSize {
		fmt.Fprintf(os.Stderr, "pdlbench: -pagesize %d exceeds %d, the largest page a differential record addresses\n", *pageSize, diff.MaxPageSize)
		return 1
	}
	g := bench.DefaultGeometry()
	g.Params.NumBlocks = *blocks
	// The spare area scales with the page (64 bytes for 2 KB, as in
	// Table 1), but never below what the header and the integrity trailer
	// take: 30 bytes at 512, 36 at 1024.
	g.Params.DataSize = *pageSize
	g.Params.SpareSize = max(*pageSize/32, ftl.HeaderSpareBytes+ftl.IntegritySpareBytes(*pageSize))
	g.DBFrac = *dbfrac
	g.GCRounds = *gcrounds
	g.ConditionMaxOps = 20_000_000
	g.MeasureOps = *ops
	g.Seed = *seed
	suite := bench.Suite{
		Geometry: g,
		Specs:    bench.StandardMethods(g.Params),
		NUpdates: *nupdates,
		TPCC:     bench.DefaultExp7Config(),
	}
	suite.TPCC.Scale = tpcc.DefaultScale(*warehouse)
	suite.TPCC.Seed = *seed
	if err := suite.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
		return 1
	}
	switch *backend {
	case "emu":
		// Default: fresh emulated chips.
	case "file":
		dir := *path
		if dir == "" {
			d, err := os.MkdirTemp("", "pdlbench-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
				return 1
			}
			defer os.RemoveAll(d)
			dir = d
		}
		var runSeq int
		suite.Geometry.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
			runSeq++
			name := fmt.Sprintf("run%03d-%s.flash", runSeq, sanitize(label))
			return filedev.Open(filepath.Join(dir, name), filedev.Options{Params: p, Reset: true})
		}
		fmt.Printf("# backend: file-backed devices under %s\n", dir)
	default:
		fmt.Fprintf(os.Stderr, "pdlbench: unknown backend %q (want emu or file)\n", *backend)
		return 1
	}

	for _, id := range ids {
		start := time.Now()
		err := suite.Run(os.Stdout, id)
		fmt.Fprintf(os.Stderr, "# experiment %s finished in %s (wall clock)\n",
			id, time.Since(start).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
			return 1
		}
	}
	return 0
}
