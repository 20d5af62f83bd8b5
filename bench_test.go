// Host-side micro-benchmarks of the PDL store. The paper's tables and
// figures are reproduced by cmd/pdlbench (-exp 1..7) and asserted by the
// TestExp*Shapes tests of internal/bench; end-to-end and per-layer cost is
// measured by `go run ./benchmark`.
package pdl_test

import (
	"math/rand"
	"testing"

	"pdl"
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
