// Command pdlbench reproduces the paper's evaluation (Experiments 1-7,
// Figures 12-18) and prints the measured tables.
//
// Usage:
//
//	pdlbench -exp 1                  # Figure 12 at the default geometry
//	pdlbench -exp 2 -blocks 1024     # Figure 13 on a 128-MB chip
//	pdlbench -exp all -gcrounds 10   # experiments 1-7, paper-grade conditioning
//	pdlbench -exp 3 -csv             # CSV for external plotting
//	pdlbench -exp 1 -backend file    # same experiment on the persistent backend
//	pdlbench -exp 7 -cpuprofile cpu.pprof -memprofile mem.pprof
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
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pdl/internal/bench"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
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

// main delegates to realMain so deferred cleanups — CPU/heap profile
// writers, the temp-dir removal of the file backend — run even when an
// experiment fails; os.Exit would skip them and leave truncated profiles.
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		exp       = flag.String("exp", "1", "experiment to run: 1..7, or all")
		blocks    = flag.Int("blocks", 512, "flash size in 132-KB blocks (512 = 64 MB)")
		dbfrac    = flag.Float64("dbfrac", 0.4, "database size as a fraction of flash capacity")
		gcrounds  = flag.Float64("gcrounds", 3, "steady-state criterion: mean GC rounds per block before measuring (paper: 10)")
		ops       = flag.Int("ops", 20000, "measured operations per data point")
		seed      = flag.Int64("seed", 1, "workload seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of tables")
		pageSize  = flag.Int("pagesize", flash.DefaultDataSize, "logical/physical page size in bytes (Figure 13(b) uses 8192)")
		nupdates  = flag.Int("n", 1, "N_updates_till_write for experiments 3 and 4")
		warehouse = flag.Int("warehouses", 1, "TPC-C warehouses for experiment 7")
		channels  = flag.Int("channels", 1, "stripe every run's device over N channels (block-granular, flash.Striped)")
		backend   = flag.String("backend", "emu", "flash backend: emu (in-memory) or file (persistent)")
		path      = flag.String("path", "", "directory for -backend file device files (default: a temp dir)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file (profile GC and lock behavior directly)")
		memprof   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: -memprofile: %v\n", err)
			}
		}()
	}

	g := bench.DefaultGeometry()
	g.Params.NumBlocks = *blocks
	if *pageSize != flash.DefaultDataSize {
		g.Params.DataSize = *pageSize
		g.Params.SpareSize = *pageSize / 32
	}
	g.DBFrac = *dbfrac
	g.GCRounds = *gcrounds
	g.ConditionMaxOps = 20_000_000
	g.MeasureOps = *ops
	g.Seed = *seed
	if *channels < 1 {
		*channels = 1
	}
	g.Channels = *channels
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
		g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
			runSeq++
			name := fmt.Sprintf("run%03d-%s.flash", runSeq, sanitize(label))
			return filedev.Open(filepath.Join(dir, name), filedev.Options{Params: p, Reset: true})
		}
		fmt.Printf("# backend: file-backed devices under %s\n", dir)
	default:
		fmt.Fprintf(os.Stderr, "pdlbench: unknown backend %q (want emu or file)\n", *backend)
		return 1
	}
	specs := bench.StandardMethods(g.Params)

	run := func(id string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "# experiment %s finished in %s (wall clock)\n",
				id, time.Since(start).Round(time.Millisecond))
		}()
		switch id {
		case "1":
			fmt.Println("Experiment 1 (Figure 12): time per update operation")
			fmt.Printf("# geometry: %s, DB = %.0f%%, conditioning %.1f GC rounds/block\n",
				g.Params, g.DBFrac*100, g.GCRounds)
			rows, err := bench.Exp1(g, specs)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "x")
			} else {
				bench.WriteExp1Table(os.Stdout, rows)
			}
		case "2":
			fmt.Println("Experiment 2 (Figure 13): overall time per update operation vs N_updates_till_write")
			rows, err := bench.Exp2(g, specs, nil)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "N")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "N",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "3":
			fmt.Printf("Experiment 3 (Figure 14): overall time per update operation vs %%ChangedByOneU_Op (N=%d)\n", *nupdates)
			rows, err := bench.Exp3(g, specs, nil, *nupdates)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "pct_changed")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "%changed",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "4":
			fmt.Printf("Experiment 4 (Figure 15): overall time per operation vs %%UpdateOps (N=%d)\n", *nupdates)
			rows, err := bench.Exp4(g, specs, nil, *nupdates)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "pct_updates")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "%updates",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "5":
			fmt.Println("Experiment 5 (Figure 16): overall time per update operation vs Tread, Twrite")
			points, err := bench.Exp5(g, specs, nil, nil)
			if err != nil {
				return err
			}
			bench.WriteExp5Table(os.Stdout, points)
		case "6":
			fmt.Println("Experiment 6 (Figure 17): erase operations per update operation vs N_updates_till_write")
			rows, err := bench.Exp6(g, specs, nil)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "N")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "N",
					func(r bench.Row) float64 { return r.ErasesPerOp })
			}
		case "7":
			fmt.Println("Experiment 7 (Figure 18): TPC-C I/O time per transaction vs DBMS buffer size")
			cfg := bench.DefaultExp7Config()
			cfg.Scale = tpcc.DefaultScale(*warehouse)
			cfg.Seed = *seed
			points, err := bench.Exp7(g, specs, cfg)
			if err != nil {
				return err
			}
			bench.WriteExp7Table(os.Stdout, points)
		default:
			return fmt.Errorf("unknown experiment %q (want 1..7, or all)", id)
		}
		fmt.Println()
		return nil
	}

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = []string{"1", "2", "3", "4", "5", "6", "7"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
			return 1
		}
	}
	return 0
}
