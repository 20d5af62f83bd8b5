// Host-side micro-benchmarks of the PDL store and one ablation of its
// design knob, reported through b.ReportMetric. The paper's tables and
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
