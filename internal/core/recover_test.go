package core

import (
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// runWorkload drives a store through n random partial updates, returning
// the shadow (latest content) and the durable shadow (content as of the
// last completed Flush).
func runWorkload(t *testing.T, s *Store, shadow [][]byte, n int, seed int64, flushEvery int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	size := len(shadow[0])
	durable := make([][]byte, len(shadow))
	for i := range durable {
		durable[i] = append([]byte(nil), shadow[i]...)
	}
	for i := 0; i < n; i++ {
		pid := rng.Intn(len(shadow))
		off := rng.Intn(size - 16)
		rng.Read(shadow[pid][off : off+16])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for j := range durable {
				copy(durable[j], shadow[j])
			}
		}
	}
	return durable
}

func TestRecoverEmptyChip(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	r, err := Recover(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	if err := r.ReadPage(0, buf); err == nil {
		t.Error("read of never-written page succeeded after empty recovery")
	}
	// And it can be used as a fresh store.
	if err := r.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReclaimsForeignPages recovers an image that holds sealed pages
// of a type this method never writes, as a file image does that an earlier
// version left Checkpoint chunks (spare type 0xC0) in: every logical page
// comes back, and the blocks holding the foreign pages are garbage like any
// other, collected and erased once the store churns (they are planted full,
// so greedy victim selection has nothing better to pick first).
func TestRecoverReclaimsForeignPages(t *testing.T) {
	s, chip, shadow := loadStore(t, 16, 64, 128)
	runWorkload(t, s, shadow, 100, 21, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	p := chip.Params()
	var foreign []int
	for b := p.NumBlocks - 1; b >= 0 && len(foreign) < 2; b-- {
		if s.Allocator().BlockStats(b).Free {
			foreign = append(foreign, b)
		}
	}
	if len(foreign) < 2 {
		t.Fatal("no two erased blocks to plant foreign pages in")
	}
	chunk := make([]byte, p.DataSize)
	rng := rand.New(rand.NewSource(23))
	for _, b := range foreign {
		for pg := 0; pg < p.PagesPerBlock; pg++ {
			rng.Read(chunk)
			programRaw(t, chip, p.PPNOf(b, pg), chunk, ftl.Header{Type: 0xC0, PID: uint32(pg), TS: 1})
		}
	}

	r, err := Recover(chip, len(shadow), Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
	for _, b := range foreign {
		if bs := r.Allocator().BlockStats(b); bs.Obsolete != p.PagesPerBlock {
			t.Errorf("foreign block %d adopted with %d of %d pages obsolete", b, bs.Obsolete, bs.Written)
		}
	}
	runWorkload(t, r, shadow, 3000, 22, 25)
	if r.Allocator().GCRuns() == 0 {
		t.Fatal("GC never ran; churn insufficient")
	}
	for _, b := range foreign {
		if chip.EraseCount(b) == 0 {
			t.Errorf("block %d still holds its foreign pages after %d collections: leaked", b, r.Allocator().GCRuns())
		}
	}
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
}
