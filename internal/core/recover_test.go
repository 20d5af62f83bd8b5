package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
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

func TestRecoverAfterCleanFlush(t *testing.T) {
	s, chip, shadow := loadStore(t, 16, 32, 0)
	runWorkload(t, s, shadow, 200, 3, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// "Crash": abandon s, rebuild from the chip alone.
	r, err := Recover(chip, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	for pid := 0; pid < 32; pid++ {
		if err := r.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d: recovered content differs from flushed state", pid)
		}
	}
}

func TestRecoverLosesUnflushedBuffer(t *testing.T) {
	// Differentials still in the write buffer are lost by a crash; the
	// recovered state equals the last durable state, exactly as the paper
	// specifies for data "retained in the write buffer only".
	s, chip, shadow := loadStore(t, 16, 8, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := make([][]byte, len(shadow))
	for i := range durable {
		durable[i] = append([]byte(nil), shadow[i]...)
	}
	// One small unflushed update.
	shadow[2][7] ^= 0xFF
	if err := s.WritePage(2, shadow[2]); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	if err := r.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, durable[2]) {
		t.Error("recovered page 2 is not the last durable version")
	}
	if bytes.Equal(buf, shadow[2]) {
		t.Error("unflushed differential unexpectedly survived the crash")
	}
}

func TestRecoverContinuesOperating(t *testing.T) {
	// After recovery the store must keep working: more updates, GC, reads.
	s, chip, shadow := loadStore(t, 12, 40, 128)
	runWorkload(t, s, shadow, 300, 5, 25)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, 40, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, r, shadow, 500, 6, 25)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	for pid := range shadow {
		if err := r.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d mismatch after post-recovery workload", pid)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	// Section 4.5: recovery "guarantees that recovery is normally performed
	// even when a system failure repeatedly occurs during the process of
	// restarting": running it twice yields the same mapping state.
	s, chip, shadow := loadStore(t, 16, 16, 0)
	runWorkload(t, s, shadow, 100, 7, 9)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r1, err := Recover(chip, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := snapshotMapping(r1)
	r2, err := Recover(chip, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := snapshotMapping(r2)
	if snap1 != snap2 {
		t.Error("two consecutive recoveries disagree")
	}
}

func snapshotMapping(s *Store) [32]byte {
	h := sha256.New()
	for pid := range s.mt.ppmt {
		var b [8]byte
		e := s.mt.ppmt[pid]
		b[0] = byte(e.base)
		b[1] = byte(e.base >> 8)
		b[2] = byte(e.base >> 16)
		b[3] = byte(e.base >> 24)
		b[4] = byte(e.dif)
		b[5] = byte(e.dif >> 8)
		b[6] = byte(e.dif >> 16)
		b[7] = byte(e.dif >> 24)
		h.Write(b[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestRecoverAfterTornFlush(t *testing.T) {
	// A power failure during the differential-page program leaves a torn
	// page; recovery must come back to a consistent state where every page
	// equals some version that was actually written.
	s, chip, shadow := loadStore(t, 16, 16, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	versions := recordVersions(shadow)
	// Buffer a few diffs, then have the flush program torn.
	rng := rand.New(rand.NewSource(13))
	for pid := 0; pid < 4; pid++ {
		off := rng.Intn(400)
		rng.Read(shadow[pid][off : off+16])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
		recordVersion(versions, pid, shadow[pid])
	}
	chip.SchedulePowerFailure(1)
	err := s.Flush()
	if !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("flush err = %v, want ErrPowerLoss", err)
	}
	r, rerr := Recover(chip, 16, Options{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	buf := make([]byte, chip.Params().DataSize)
	for pid := 0; pid < 16; pid++ {
		if err := r.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
		if !versions[pid][hash(buf)] {
			t.Fatalf("pid %d recovered to a version that was never written", pid)
		}
	}
}

func TestRecoverAfterRandomPowerLoss(t *testing.T) {
	// Property-style fault injection: run a workload with a power failure
	// scheduled at a random operation; recover; every page must read back
	// as some previously written version, and the store must keep working.
	for trial := 0; trial < 8; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		chip := flash.NewChip(ftltest.SmallParams(12))
		numPages := 30
		s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		size := chip.Params().DataSize
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		versions := recordVersions(shadow)
		chip.SchedulePowerFailure(int64(50 + rng.Intn(400)))
		var failed bool
		for i := 0; i < 1200 && !failed; i++ {
			pid := rng.Intn(numPages)
			off := rng.Intn(size - 16)
			rng.Read(shadow[pid][off : off+16])
			err := s.WritePage(uint32(pid), shadow[pid])
			switch {
			case err == nil:
				recordVersion(versions, pid, shadow[pid])
			case errors.Is(err, flash.ErrPowerLoss):
				// A nil error is the only promise that a write committed;
				// an error is no promise that it did not, so the in-flight
				// version stays an admissible recovery outcome.
				recordVersion(versions, pid, shadow[pid])
				failed = true
			default:
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			if !failed && i%37 == 0 {
				if err := s.Flush(); errors.Is(err, flash.ErrPowerLoss) {
					failed = true
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		if !failed {
			// The failure fired inside GC or never; both fine — recover anyway.
			chip.SchedulePowerFailure(-1)
		}
		r, err := Recover(chip, numPages, Options{MaxDifferentialSize: 128})
		if err != nil {
			t.Fatalf("trial %d recover: %v", trial, err)
		}
		buf := make([]byte, size)
		for pid := 0; pid < numPages; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatalf("trial %d pid %d: %v", trial, pid, err)
			}
			if !versions[pid][hash(buf)] {
				t.Fatalf("trial %d pid %d: recovered content was never written", trial, pid)
			}
		}
		// The recovered store remains usable.
		for pid := 0; pid < numPages; pid++ {
			copy(shadow[pid], buf)
			if err := r.ReadPage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
			shadow[pid][0] ^= 1
			if err := r.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatalf("trial %d post-recovery write pid %d: %v", trial, pid, err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < numPages; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, shadow[pid]) {
				t.Fatalf("trial %d pid %d: post-recovery write lost", trial, pid)
			}
		}
	}
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

func hash(b []byte) [32]byte { return sha256.Sum256(b) }

func recordVersions(shadow [][]byte) []map[[32]byte]bool {
	vs := make([]map[[32]byte]bool, len(shadow))
	for pid := range shadow {
		vs[pid] = map[[32]byte]bool{hash(shadow[pid]): true}
	}
	return vs
}

func recordVersion(vs []map[[32]byte]bool, pid int, content []byte) {
	vs[pid][hash(content)] = true
}
