package core

// Steady state at a geometry where the allocator runs the differential stream
// (a channel of at least 16 blocks).

import (
	"math/rand"
	"testing"

	"pdl/internal/flash"
)

// TestDiffStreamSteadyStatePagesMoved is the paper's driver-level update
// (read a page, overwrite a random 2% of it, write it back) on a database
// half the size of the chip, measured after every block has been erased
// once on average. With differential pages in blocks of their own a victim
// is either a differential block that died wholesale or a base block that
// was left to age, so a collection moves a few pages; with spills and base
// pages sharing the hot block every victim dragged along about nineteen.
func TestDiffStreamSteadyStatePagesMoved(t *testing.T) {
	p := flash.DefaultParams()
	p.NumBlocks = 32
	numPages := p.NumBlocks * p.PagesPerBlock / 2
	s, err := New(flash.NewChip(p), numPages, Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	page := make([]byte, p.DataSize)
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			t.Fatal(err)
		}
	}
	run := p.DataSize / 50
	update := func() {
		pid := uint32(rng.Intn(numPages))
		if err := s.ReadPage(pid, page); err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(p.DataSize - run)
		rng.Read(page[off : off+run])
		if err := s.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
	}
	for s.alloc.MeanVictimRounds() < 1 {
		update()
	}
	s.alloc.ResetGCStats()
	for i := 0; i < 8*numPages; i++ {
		update()
	}
	st := s.ChannelGC(0)
	if st.Runs == 0 {
		t.Fatal("no collection in the measured phase")
	}
	const ceiling = 16.0
	if moved := float64(st.PagesMoved) / float64(st.Runs); moved > ceiling {
		t.Errorf("%.1f pages moved per collection (%+v), want at most %.0f", moved, st, ceiling)
	} else {
		t.Logf("%.1f pages moved per collection: %+v", moved, st)
	}
}
