package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// refAllErased is the byte loop allErased replaced: the reference it must
// match.
func refAllErased(b []byte) bool {
	for _, x := range b {
		if x != 0xFF {
			return false
		}
	}
	return true
}

// TestAllErasedMatchesByteLoop checks the restart's free-page test against
// the byte loop on every length up to three words, a spare area and a data
// page, on slices that start off a word boundary: an erased image, one with a
// programmed byte anywhere, and one whose only programmed bit is in the last
// byte, which for most lengths is in the tail.
func TestAllErasedMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ns := []int{32, 64, 512, 2048}
	for n := 0; n <= 24; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for trial := 0; trial < 50; trial++ {
			off := rng.Intn(8)
			erased := bytes.Repeat([]byte{0xFF}, off+n)[off:]
			imgs := [][]byte{erased}
			if n > 0 {
				anywhere := bytes.Clone(erased)
				anywhere[rng.Intn(n)] = byte(rng.Intn(0xFF))
				last := bytes.Clone(erased)
				last[n-1] &^= 1 << (trial % 8)
				imgs = append(imgs, anywhere, last)
			}
			for k, img := range imgs {
				if got, ref := allErased(img), refAllErased(img); got != ref || got != (k == 0) {
					t.Fatalf("len %d trial %d image %d: allErased = %v, byte loop %v", n, trial, k, got, ref)
				}
			}
		}
	}
}

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

// readFailDev is a device whose every read fails.
type readFailDev struct{ flash.Device }

func (readFailDev) Read(flash.PPN, []byte, []byte) error { return errInjectedKill }

// TestFailedRecoverStopsCollectors recovers with background collection over a
// device whose reads fail: each Recover returns the scan's error, and the
// collector goroutine of the store it never returned does not outlive it.
func TestFailedRecoverStopsCollectors(t *testing.T) {
	dev, before := readFailDev{flash.NewChip(ftltest.SmallParams(8))}, runtime.NumGoroutine()
	for range 10 {
		if _, err := Recover(dev, 8, Options{BackgroundGC: true}); !errors.Is(err, errInjectedKill) {
			t.Fatalf("Recover over failing reads returned %v, want the read's error", err)
		}
	}
	// A stopped collector's goroutine returns just after it says so.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 10 failed recoveries, %d before", runtime.NumGoroutine(), before)
		}
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

// TestRecoverUnderSmallerBound recovers records a PDL(2KB) store wrote, of
// about 1 KB, under PDL(256B): the bound governs what a store writes and is
// not persisted, so the recovered store reads them, and garbage collection
// relocates them byte for byte, but the next write of such a page whose
// differential is over the new bound is Case 3.
func TestRecoverUnderSmallerBound(t *testing.T) {
	p := flash.ScaledParams(24)
	p.PagesPerBlock = 8
	chip := flash.NewChip(p)
	s, err := New(chip, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([][]byte, 16)
	rng := rand.New(rand.NewSource(5))
	for pid := range shadow {
		shadow[pid] = make([]byte, p.DataSize)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for i, pid := range []uint32{1, 2} {
		for j := 100; j < 1100-100*i; j++ {
			shadow[pid][j] ^= 0xFF
		}
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := entryOf(s, 1).dif
	before := recordsOn(t, chip, victim)
	if len(before[1]) <= 256 || len(before[2]) <= 256 || entryOf(s, 2).dif != victim {
		t.Fatalf("layout: differential page %d holds records of %d and %d bytes, want both over 256", victim, len(before[1]), len(before[2]))
	}
	s.Close()

	r, err := Recover(chip, len(shadow), Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}

	collectBlock(t, r, p.BlockOf(victim))
	moved := entryOf(r, 1).dif
	if moved == victim || entryOf(r, 2).dif != moved {
		t.Fatalf("pids 1 and 2 map to differential pages %d and %d, want one new page", moved, entryOf(r, 2).dif)
	}
	after := recordsOn(t, chip, moved)
	for _, pid := range []uint32{1, 2} {
		if !bytes.Equal(after[pid], before[pid]) {
			t.Errorf("pid %d: the relocated record differs:\n got %x\nwant %x", pid, after[pid], before[pid])
		}
		mustReadEqual(t, r, pid, shadow[pid])
	}

	bases := r.Telemetry().NewBasePages
	shadow[1][1500] ^= 0xFF
	if err := r.WritePage(1, shadow[1]); err != nil {
		t.Fatal(err)
	}
	if got := r.Telemetry().NewBasePages; got != bases+1 || r.WriteBufferLen() != 0 || entryOf(r, 1).dif != flash.NilPPN {
		t.Errorf("an over-bound write of pid 1: %d new base pages, %d buffered, differential page %d; want Case 3",
			got-bases, r.WriteBufferLen(), entryOf(r, 1).dif)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	again, err := Recover(chip, len(shadow), Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for pid := range shadow {
		mustReadEqual(t, again, uint32(pid), shadow[pid])
	}
}

// TestRecoverDropsPIDsPastTheStore recovers the image of a 16-page store as an
// 8-page one. The image holds the base pages of all 16 pids, a differential
// page mixing records of pids below and above 8, and one holding records of
// higher pids only. Pids 0 to 7 read back exactly; the pages holding only
// higher pids count obsolete; and the higher pids' records on the mixed page
// count as its dead bytes. Against the same image recovered whole, nothing
// else differs.
func TestRecoverDropsPIDsPastTheStore(t *testing.T) {
	p := ftltest.SmallParams(8)
	chip := flash.NewChip(p)
	opts := Options{DiffCachePages: DiffCacheOff}
	s, err := New(chip, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([][]byte, 16)
	rng := rand.New(rand.NewSource(7))
	for pid := range shadow {
		shadow[pid] = make([]byte, p.DataSize)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// touch changes 16 bytes of each pid, differentials small enough to
	// share one differential page, and flushes them.
	touch := func(pids ...uint32) {
		t.Helper()
		for _, pid := range pids {
			for i := range 16 {
				shadow[pid][i] ^= 0x5A
			}
			if err := s.WritePage(pid, shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	touch(6, 7, 8, 9)
	touch(10, 11)
	mixed, higher := entryOf(s, 6).dif, entryOf(s, 10).dif
	for pid, want := range map[uint32]flash.PPN{7: mixed, 8: mixed, 9: mixed, 11: higher} {
		if entryOf(s, pid).dif != want {
			t.Fatalf("layout: pid %d's differential on page %d, want %d", pid, entryOf(s, pid).dif, want)
		}
	}
	only := []flash.PPN{higher}
	for pid := uint32(8); pid < 16; pid++ {
		only = append(only, entryOf(s, pid).base)
	}
	recs := recordsOn(t, chip, mixed)
	dead := len(recs[8]) + len(recs[9])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := Recover(chip, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	r, err := Recover(chip, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pid := range 8 {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
	for b := range p.NumBlocks {
		want := whole.Allocator().BlockStats(b)
		for _, ppn := range only {
			if p.BlockOf(ppn) == b {
				want.Obsolete++
			}
		}
		if p.BlockOf(mixed) == b {
			want.DeadBytes += dead
		}
		if got := r.Allocator().BlockStats(b); got.Written != want.Written || got.Obsolete != want.Obsolete || got.DeadBytes != want.DeadBytes {
			t.Errorf("block %d: %d written, %d obsolete, %d dead bytes; want %d, %d and %d",
				b, got.Written, got.Obsolete, got.DeadBytes, want.Written, want.Obsolete, want.DeadBytes)
		}
	}
}
