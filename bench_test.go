// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced geometry and reports the paper's metric (simulated I/O
// microseconds per operation, erases per operation, ...) via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the series the
// figures plot. cmd/pdlbench runs the same experiments at full scale and
// prints the complete tables.
package pdl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pdl"
	"pdl/internal/bench"
	"pdl/internal/flash"
	"pdl/internal/tpcc"
	"pdl/internal/workload"
)

// benchGeometry is the reduced geometry used by the Go benchmarks: a
// 16-Mbyte chip, steady-state conditioning, datasheet timings.
func benchGeometry() bench.Geometry {
	return bench.Geometry{
		Params:          flash.ScaledParams(128),
		DBFrac:          0.4,
		GCRounds:        1.5,
		ConditionMaxOps: 1_000_000,
		MeasureOps:      5_000,
		Seed:            1,
	}
}

// BenchmarkExp1_Fig12 regenerates Figure 12: read, write, and overall
// simulated I/O time per update operation for the six standard method
// configurations (N_updates_till_write=1, %ChangedByOneU_Op=2).
func BenchmarkExp1_Fig12(b *testing.B) {
	g := benchGeometry()
	for _, spec := range bench.StandardMethods(g.Params) {
		spec := spec
		b.Run(spec.Name(g.Params), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.Exp1(g, []bench.MethodSpec{spec})
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(r.Read, "read-us/op")
				b.ReportMetric(r.Write, "write-us/op")
				b.ReportMetric(r.GC, "gc-us/op")
				b.ReportMetric(r.Overall, "overall-us/op")
			}
		})
	}
}

// BenchmarkExp2_Fig13 regenerates Figure 13(a): overall time per update
// operation as N_updates_till_write varies (2-Kbyte logical pages).
func BenchmarkExp2_Fig13(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 3000
	specs := bench.StandardMethods(g.Params)
	for _, spec := range specs {
		spec := spec
		for _, n := range []int{1, 4, 8} {
			n := n
			b.Run(fmt.Sprintf("%s/N=%d", spec.Name(g.Params), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := bench.Exp2(g, []bench.MethodSpec{spec}, []int{n})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rows[0].Overall, "overall-us/op")
				}
			})
		}
	}
}

// BenchmarkExp2_Fig13b regenerates Figure 13(b): the same sweep with
// 8-Kbyte logical pages.
func BenchmarkExp2_Fig13b(b *testing.B) {
	g := benchGeometry()
	g.Params.DataSize = 8192
	g.Params.SpareSize = 256
	g.Params.NumBlocks = 64
	g.MeasureOps = 1500
	specs := []bench.MethodSpec{
		{Kind: bench.KindPDL, Param: g.Params.DataSize / 8},
		{Kind: bench.KindOPU},
		{Kind: bench.KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
	}
	for _, spec := range specs {
		spec := spec
		for _, n := range []int{1, 8} {
			n := n
			b.Run(fmt.Sprintf("%s/N=%d", spec.Name(g.Params), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := bench.Exp2(g, []bench.MethodSpec{spec}, []int{n})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rows[0].Overall, "overall-us/op")
				}
			})
		}
	}
}

// BenchmarkExp3_Fig14 regenerates Figure 14: overall time per update
// operation as %ChangedByOneU_Op varies (N_updates_till_write = 1).
func BenchmarkExp3_Fig14(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 3000
	specs := bench.StandardMethods(g.Params)
	for _, spec := range specs {
		spec := spec
		for _, pct := range []float64{0.5, 2, 10, 50, 100} {
			pct := pct
			b.Run(fmt.Sprintf("%s/pct=%g", spec.Name(g.Params), pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := bench.Exp3(g, []bench.MethodSpec{spec}, []float64{pct}, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rows[0].Overall, "overall-us/op")
				}
			})
		}
	}
}

// BenchmarkExp4_Fig15 regenerates Figure 15: overall time per operation
// for mixes of read-only and update operations as %UpdateOps varies.
func BenchmarkExp4_Fig15(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 4000
	specs := bench.StandardMethods(g.Params)
	for _, spec := range specs {
		spec := spec
		for _, pct := range []float64{0, 50, 100} {
			pct := pct
			b.Run(fmt.Sprintf("%s/upd=%g", spec.Name(g.Params), pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := bench.Exp4(g, []bench.MethodSpec{spec}, []float64{pct}, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rows[0].Overall, "overall-us/op")
				}
			})
		}
	}
}

// BenchmarkExp5_Fig16 regenerates Figure 16: overall time per update
// operation as the Tread and Twrite flash parameters vary. Each method
// runs once; the cost is recomputed from operation counts per timing
// point.
func BenchmarkExp5_Fig16(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 3000
	specs := []bench.MethodSpec{
		{Kind: bench.KindPDL, Param: g.Params.DataSize / 8},
		{Kind: bench.KindOPU},
		{Kind: bench.KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			points, err := bench.Exp5(g, specs,
				[]int64{10, 110, 500, 1500}, []int64{500, 1000})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range points {
				b.ReportMetric(p.OverallPerOp,
					fmt.Sprintf("%s-tr%d-tw%d-us/op", p.Method, p.Tread, p.Twrite))
			}
		}
	})
}

// BenchmarkExp6_Fig17 regenerates Figure 17: erase operations per update
// operation as N_updates_till_write varies (flash longevity).
func BenchmarkExp6_Fig17(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 4000
	specs := bench.StandardMethods(g.Params)
	for _, spec := range specs {
		spec := spec
		for _, n := range []int{1, 8} {
			n := n
			b.Run(fmt.Sprintf("%s/N=%d", spec.Name(g.Params), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := bench.Exp6(g, []bench.MethodSpec{spec}, []int{n})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rows[0].ErasesPerOp*1000, "erases/kop")
				}
			})
		}
	}
}

// BenchmarkExp7_Fig18 regenerates Figure 18: TPC-C simulated I/O time per
// transaction as the DBMS buffer size varies.
func BenchmarkExp7_Fig18(b *testing.B) {
	g := benchGeometry()
	cfg := bench.Exp7Config{
		Scale: tpcc.Scale{
			Warehouses:               1,
			ItemCount:                400,
			DistrictsPerWarehouse:    5,
			CustomersPerDistrict:     40,
			InitialOrdersPerDistrict: 40,
			MaxNewTransactions:       30000,
		},
		BufferPcts: []float64{0.5, 2, 10},
		WarmupTxns: 400,
		MeasureTxn: 1500,
		Seed:       1,
	}
	specs := []bench.MethodSpec{
		{Kind: bench.KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
		{Kind: bench.KindPDL, Param: g.Params.DataSize},
		{Kind: bench.KindPDL, Param: g.Params.DataSize / 8},
		{Kind: bench.KindOPU},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(spec.Name(g.Params), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := bench.Exp7(g, []bench.MethodSpec{spec}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range points {
					b.ReportMetric(p.MicrosPerTxn, fmt.Sprintf("buf%g-us/txn", p.BufferPct))
				}
			}
		})
	}
}

// BenchmarkPDLWritePage measures the host-side (not simulated) cost of the
// PDL write path: base-page read, differential computation, buffering.
func BenchmarkPDLWritePage(b *testing.B) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(256))
	store, err := pdl.Open(chip, 2048, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	size := chip.Params().DataSize
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, size)
	for pid := 0; pid < 2048; pid++ {
		rng.Read(page)
		if err := store.WritePage(uint32(pid), page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pid := uint32(i % 2048)
		if err := store.ReadPage(pid, page); err != nil {
			b.Fatal(err)
		}
		off := (i * 37) % (size - 41)
		rng.Read(page[off : off+41])
		if err := store.WritePage(pid, page); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelWorkerCounts are the goroutine counts the parallel benchmarks
// compare (the tentpole scaling claim is measured at 1 vs 16).
var parallelWorkerCounts = []int{1, 4, 16}

// benchmarkParallelUpdates measures aggregate host-side throughput of full
// update cycles (read, mutate, write) executed by a fixed number of worker
// goroutines, through the workload package's parallel driver — the same
// harness pdlbench's parallel experiment uses (disjoint pid partitions;
// non-concurrency-safe methods serialized behind a mutex). b.N is the
// total operation count, so ns/op is directly comparable across worker
// counts: scaling shows up as ns/op shrinking as workers grow. Speedups
// require GOMAXPROCS > 1; on a single-core host the numbers only measure
// locking overhead.
func benchmarkParallelUpdates(b *testing.B, open func(chip *pdl.Chip, numPages int) (pdl.Method, error), workers int) {
	const numPages = 2048
	chip := pdl.NewChip(pdl.ScaledFlashParams(256))
	method, err := open(chip, numPages)
	if err != nil {
		b.Fatal(err)
	}
	d, err := workload.NewDriver(method, workload.Config{
		NumPages:          numPages,
		PctChanged:        2,
		NUpdatesTillWrite: 1,
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Load(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := d.RunParallelUpdateOps(workers, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.OpsPerSecond(), "ops/s")
}

// BenchmarkParallelPDLWritePage measures PDL aggregate update throughput
// at 1, 4, and 16 worker goroutines. The store is opened with a fixed 16
// write-buffer shards for every worker count, so the three points differ
// only in parallelism, not in store configuration.
func BenchmarkParallelPDLWritePage(b *testing.B) {
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkParallelUpdates(b, func(chip *pdl.Chip, numPages int) (pdl.Method, error) {
				return pdl.Open(chip, numPages, pdl.Options{MaxDifferentialSize: 256, Shards: 16})
			}, workers)
		})
	}
}

// BenchmarkParallelOPUWritePage is the page-based baseline under the same
// parallel harness (serialized: OPU is not concurrency-safe).
func BenchmarkParallelOPUWritePage(b *testing.B) {
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkParallelUpdates(b, func(chip *pdl.Chip, numPages int) (pdl.Method, error) {
				return pdl.OpenOPU(chip, numPages)
			}, workers)
		})
	}
}

// BenchmarkParallelIPLWritePage is the log-based baseline under the same
// parallel harness (serialized).
func BenchmarkParallelIPLWritePage(b *testing.B) {
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkParallelUpdates(b, func(chip *pdl.Chip, numPages int) (pdl.Method, error) {
				return pdl.OpenIPL(chip, numPages, pdl.IPLOptions{LogPagesPerBlock: 9 * chip.Params().PagesPerBlock / 64})
			}, workers)
		})
	}
}

// BenchmarkParallelIPUWritePage is the in-place-update baseline under the
// same parallel harness (serialized). IPU rewrites a whole block per page
// write, so b.N iterations are expensive; the harness is identical.
func BenchmarkParallelIPUWritePage(b *testing.B) {
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkParallelUpdates(b, func(chip *pdl.Chip, numPages int) (pdl.Method, error) {
				return pdl.OpenIPU(chip, numPages)
			}, workers)
		})
	}
}

// BenchmarkAblationWearLeveling compares the greedy and wear-aware
// garbage-collection victim policies (paper footnote 4 calls wear-leveling
// orthogonal): same update workload, reported erase-count spread.
func BenchmarkAblationWearLeveling(b *testing.B) {
	run := func(wearAware bool) (spread int, mean float64, ios int64) {
		chip := pdl.NewChip(pdl.ScaledFlashParams(64))
		store, err := pdl.Open(chip, 1600, pdl.Options{
			MaxDifferentialSize: 256,
			WearAwareGC:         wearAware,
		})
		if err != nil {
			b.Fatal(err)
		}
		size := chip.Params().DataSize
		rng := rand.New(rand.NewSource(1))
		page := make([]byte, size)
		for pid := 0; pid < 1600; pid++ {
			rng.Read(page)
			if err := store.WritePage(uint32(pid), page); err != nil {
				b.Fatal(err)
			}
		}
		// Heavily skewed updates: a hot set hammers the same blocks.
		for i := 0; i < 60000; i++ {
			pid := uint32(rng.Intn(64)) // hot 4% of the database
			if err := store.ReadPage(pid, page); err != nil {
				b.Fatal(err)
			}
			rng.Read(page[:300])
			if err := store.WritePage(pid, page); err != nil {
				b.Fatal(err)
			}
		}
		w := chip.Wear()
		return w.MaxErase - w.MinErase, w.MeanErase, chip.Stats().TimeMicros
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spread, mean, ios := run(false)
			b.ReportMetric(float64(spread), "erase-spread")
			b.ReportMetric(mean, "erase-mean")
			b.ReportMetric(float64(ios)/1000, "io-ms")
		}
	})
	b.Run("wear-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spread, mean, ios := run(true)
			b.ReportMetric(float64(spread), "erase-spread")
			b.ReportMetric(mean, "erase-mean")
			b.ReportMetric(float64(ios)/1000, "io-ms")
		}
	})
}

// BenchmarkAblationMaxDifferentialSize sweeps Max_Differential_Size, the
// design knob the paper exposes ("in practice, we can adjust it according
// to the workload"), at the standard %Changed=2, N=1 workload.
func BenchmarkAblationMaxDifferentialSize(b *testing.B) {
	g := benchGeometry()
	g.MeasureOps = 3000
	for _, maxDiff := range []int{64, 128, 256, 512, 1024, 2048} {
		maxDiff := maxDiff
		b.Run(fmt.Sprintf("maxdiff=%d", maxDiff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.Exp1(g, []bench.MethodSpec{{Kind: bench.KindPDL, Param: maxDiff}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].Overall, "overall-us/op")
				b.ReportMetric(rows[0].ErasesPerOp*1000, "erases/kop")
			}
		})
	}
}

// BenchmarkPDLRecovery measures crash recovery: the full spare-area scan
// and table reconstruction.
func BenchmarkPDLRecovery(b *testing.B) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(64))
	store, err := pdl.Open(chip, 1024, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	size := chip.Params().DataSize
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, size)
	for pid := 0; pid < 1024; pid++ {
		rng.Read(page)
		if err := store.WritePage(uint32(pid), page); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdl.Recover(chip, 1024, pdl.Options{MaxDifferentialSize: 256}); err != nil {
			b.Fatal(err)
		}
	}
}
