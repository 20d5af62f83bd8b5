// Host-side micro-benchmarks of the PDL store and two ablations of its
// design knobs, reported through b.ReportMetric. The paper's tables and
// figures are reproduced by cmd/pdlbench (-exp 1..7) and asserted by the
// TestExp*Shapes tests of internal/bench; end-to-end and per-layer cost is
// measured by `go run ./benchmark`.
package pdl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pdl"
	"pdl/internal/bench"
	"pdl/internal/flash"
)

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
	// A 16-Mbyte chip conditioned to a GC steady state, datasheet timings.
	g := bench.Geometry{
		Params:          flash.ScaledParams(128),
		DBFrac:          0.4,
		GCRounds:        1.5,
		ConditionMaxOps: 1_000_000,
		MeasureOps:      3_000,
		Seed:            1,
	}
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
