package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// TestQuickPDLMatchesShadow: property — for any random operation sequence
// (partial updates, full rewrites, reads, flushes), PDL agrees with an
// in-memory shadow model.
func TestQuickPDLMatchesShadow(t *testing.T) {
	f := func(seed int64, maxDiffSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		chip := flash.NewChip(ftltest.SmallParams(16))
		// Max_Differential_Size drawn from a meaningful range.
		maxDiff := 32 + int(maxDiffSel)%(chip.Params().DataSize-32)
		const numPages = 24
		s, err := New(chip, numPages, Options{MaxDifferentialSize: maxDiff})
		if err != nil {
			return false
		}
		size := chip.Params().DataSize
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				return false
			}
		}
		buf := make([]byte, size)
		for i := 0; i < 250; i++ {
			pid := rng.Intn(numPages)
			switch rng.Intn(5) {
			case 0, 1: // partial update
				off := rng.Intn(size - 8)
				rng.Read(shadow[pid][off : off+8])
				if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
					return false
				}
			case 2: // full rewrite
				rng.Read(shadow[pid])
				if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
					return false
				}
			case 3: // read check
				if err := s.ReadPage(uint32(pid), buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, shadow[pid]) {
					return false
				}
			case 4: // flush
				if err := s.Flush(); err != nil {
					return false
				}
			}
		}
		if err := s.Flush(); err != nil {
			return false
		}
		for pid := 0; pid < numPages; pid++ {
			if err := s.ReadPage(uint32(pid), buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, shadow[pid]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecoverAlwaysConsistent: property — flush-then-recover always
// reproduces the flushed state, for arbitrary workloads and differential
// size limits.
func TestQuickRecoverAlwaysConsistent(t *testing.T) {
	f := func(seed int64, smallDiff bool) bool {
		rng := rand.New(rand.NewSource(seed))
		chip := flash.NewChip(ftltest.SmallParams(16))
		maxDiff := 0
		if smallDiff {
			maxDiff = 64
		}
		const numPages = 20
		opts := Options{MaxDifferentialSize: maxDiff}
		s, err := New(chip, numPages, opts)
		if err != nil {
			return false
		}
		size := chip.Params().DataSize
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				return false
			}
		}
		for i := 0; i < 150; i++ {
			pid := rng.Intn(numPages)
			off := rng.Intn(size - 12)
			rng.Read(shadow[pid][off : off+12])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				return false
			}
		}
		if err := s.Flush(); err != nil {
			return false
		}
		r, err := Recover(chip, numPages, opts)
		if err != nil {
			return false
		}
		buf := make([]byte, size)
		for pid := 0; pid < numPages; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, shadow[pid]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
