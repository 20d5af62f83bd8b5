package pdl_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pdl"
)

// eightKParams builds the Figure 13(b) geometry: 8-Kbyte logical pages
// (with a proportionally scaled spare area), as Lee and Moon also tested.
func eightKParams(blocks int) pdl.FlashParams {
	p := pdl.ScaledFlashParams(blocks)
	p.DataSize = 8192
	p.SpareSize = 256
	return p
}

// TestEightKBPagesAllMethods runs a shadow-checked workload on 8-Kbyte
// pages over every method family.
func TestEightKBPagesAllMethods(t *testing.T) {
	const numPages = 48
	builders := map[string]func(*pdl.Chip) (pdl.Method, error){
		"PDL(1KB)": func(c *pdl.Chip) (pdl.Method, error) {
			return pdl.Open(c, numPages, pdl.Options{MaxDifferentialSize: 1024})
		},
		"OPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenOPU(c, numPages) },
		"IPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenIPU(c, numPages) },
		"IPL": func(c *pdl.Chip) (pdl.Method, error) {
			return pdl.OpenIPL(c, numPages, pdl.IPLOptions{})
		},
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			chip := pdl.NewChip(eightKParams(12))
			m, err := build(chip)
			if err != nil {
				t.Fatal(err)
			}
			size := chip.Params().DataSize
			if size != 8192 {
				t.Fatalf("page size %d", size)
			}
			rng := rand.New(rand.NewSource(11))
			shadow := make([][]byte, numPages)
			for pid := 0; pid < numPages; pid++ {
				shadow[pid] = make([]byte, size)
				rng.Read(shadow[pid])
				if err := m.WritePage(uint32(pid), shadow[pid]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				pid := rng.Intn(numPages)
				off := rng.Intn(size - 160)
				rng.Read(shadow[pid][off : off+160]) // ~2% of 8 KB
				if err := m.WritePage(uint32(pid), shadow[pid]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, size)
			for pid := 0; pid < numPages; pid++ {
				if err := m.ReadPage(uint32(pid), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, shadow[pid]) {
					t.Fatalf("pid %d mismatch", pid)
				}
			}
		})
	}
}

// TestEightKBRecovery: crash recovery must be page-size independent.
func TestEightKBRecovery(t *testing.T) {
	chip := pdl.NewChip(eightKParams(12))
	opts := pdl.Options{MaxDifferentialSize: 1024}
	store, err := pdl.Open(chip, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	rng := rand.New(rand.NewSource(13))
	shadow := make([][]byte, 32)
	for pid := 0; pid < 32; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := pdl.Recover(chip, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for pid := 0; pid < 32; pid++ {
		if err := r.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d mismatch after recovery", pid)
		}
	}
}

// TestOpenRejectsSmallSpare: a 512-byte page with a 16-byte spare area (the
// N/32 scaling of Table 1) cannot hold the 23-byte page header, so every
// method refuses the chip at open instead of failing its first write.
func TestOpenRejectsSmallSpare(t *testing.T) {
	p := pdl.ScaledFlashParams(16)
	p.DataSize, p.SpareSize = 512, 16
	for name, open := range map[string]func(*pdl.Chip) (pdl.Method, error){
		"PDL": func(c *pdl.Chip) (pdl.Method, error) { return pdl.Open(c, 64, pdl.Options{}) },
		"OPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenOPU(c, 64) },
		"IPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenIPU(c, 64) },
		"IPL": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenIPL(c, 64, pdl.IPLOptions{}) },
	} {
		if _, err := open(pdl.NewChip(p)); err == nil || !strings.Contains(err.Error(), "spare") {
			t.Errorf("%s over a 512+16 chip: %v, want a spare-size error", name, err)
		}
	}
}

// bigPageParams builds a six-block chip of eight size-byte pages a block,
// with the N/32 spare area of Table 1.
func bigPageParams(size int) pdl.FlashParams {
	p := pdl.ScaledFlashParams(6)
	p.PagesPerBlock = 8
	p.DataSize, p.SpareSize = size, size/32
	return p
}

// TestOpenRejectsPagesOver64KB: a differential record and an IPL update-log
// record address a page with 16-bit offsets, and a record's 16-bit size
// field ends a differential page at 0xFFFF. Over 128-KB pages a change at
// byte 70,000 was read back at byte 4,464, so PDL and IPL refuse pages over
// 65,536 bytes, and PDL a MaxDifferentialSize over 65,534, at open.
func TestOpenRejectsPagesOver64KB(t *testing.T) {
	for _, tc := range []struct {
		size, maxDiff int
		want          string
	}{
		{131072, 256, "page data area 131072 exceeds 65536"},
		{65536, 0, "MaxDifferentialSize 65536 exceeds 65534"},
		{65536, 65535, "MaxDifferentialSize 65535 exceeds 65534"},
	} {
		opts := pdl.Options{MaxDifferentialSize: tc.maxDiff}
		for name, open := range map[string]func(*pdl.Chip) (pdl.Method, error){
			"Open":    func(c *pdl.Chip) (pdl.Method, error) { return pdl.Open(c, 4, opts) },
			"Recover": func(c *pdl.Chip) (pdl.Method, error) { return pdl.Recover(c, 4, opts) },
		} {
			if _, err := open(pdl.NewChip(bigPageParams(tc.size))); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s over %d-byte pages, bound %d: %v, want an error containing %q", name, tc.size, tc.maxDiff, err, tc.want)
			}
		}
	}
	_, err := pdl.OpenIPL(pdl.NewChip(bigPageParams(131072)), 4, pdl.IPLOptions{})
	if want := "page data area 131072 exceeds 65536"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenIPL over 131072-byte pages: %v, want an error containing %q", err, want)
	}
}

// TestLargestPageRoundTrips: the largest page PDL accepts, under the
// paper's 256-byte bound, carries a change to its last byte through a
// differential page and through recovery.
func TestLargestPageRoundTrips(t *testing.T) {
	chip := pdl.NewChip(bigPageParams(65536))
	opts := pdl.Options{MaxDifferentialSize: 256}
	s, err := pdl.Open(chip, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 65536)
	rand.New(rand.NewSource(17)).Read(page)
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	page[65535] ^= 0xA5
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if tel := s.Telemetry(); tel.NewBasePages != 1 || tel.DiffsWritten != 1 {
		t.Fatalf("%d base pages and %d differentials written, want the load and one differential", tel.NewBasePages, tel.DiffsWritten)
	}
	r, err := pdl.Recover(chip, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	for name, m := range map[string]pdl.Method{"store": s, "recovered": r} {
		if err := m.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page) {
			t.Fatalf("%s: page read back differs", name)
		}
	}
}
