package filedev_test

// The full ftltest conformance suite for all four page-update methods
// over the file-backed device, plus the durability tests the emulator
// cannot express: a PDL store is written, flushed, and its process "dies"
// (the device is abandoned or closed); reopening the same file and
// running Recover must reconstruct byte-identical
// logical pages.

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/opu"
)

// fileDevice is the ftltest.DeviceFactory for this backend.
func fileDevice(t *testing.T, p flash.Params) flash.Device {
	d, err := filedev.Open(filepath.Join(t.TempDir(), "flash.img"), filedev.Options{Params: p})
	if err != nil {
		t.Fatalf("filedev.Open: %v", err)
	}
	return d
}

func TestPDLConformanceOnFileDevice(t *testing.T) {
	ftltest.RunMethodSuiteOn(t, fileDevice, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return core.New(dev, numPages, core.Options{MaxDifferentialSize: 128})
	})
}

func TestPDLBackgroundGCConformanceOnFileDevice(t *testing.T) {
	ftltest.RunMethodSuiteOn(t, fileDevice, func(dev flash.Device, numPages int) (ftl.Method, error) {
		s, err := core.New(dev, numPages, core.Options{
			MaxDifferentialSize: 128,
			Shards:              4,
			BackgroundGC:        true,
		})
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { s.Close() })
		return s, nil
	})
}

func TestOPUConformanceOnFileDevice(t *testing.T) {
	ftltest.RunMethodSuiteOn(t, fileDevice, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return opu.New(dev, numPages, 2)
	})
}

func TestIPUConformanceOnFileDevice(t *testing.T) {
	ftltest.RunMethodSuiteOn(t, fileDevice, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return ipu.New(dev, numPages)
	})
}

func TestIPLConformanceOnFileDevice(t *testing.T) {
	ftltest.RunMethodSuiteOn(t, fileDevice, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return ipl.New(dev, numPages, ipl.Options{})
	})
}

// writeWorkload loads numPages pages and applies random small updates,
// flushing periodically; it returns the shadow of the last flushed state
// (what a crash-consistent recovery must reproduce).
func writeWorkload(t *testing.T, store *core.Store, numPages, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("loading pid %d: %v", pid, err)
		}
	}
	for i := 0; i < 400; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(size - 16)
		rng.Read(shadow[pid][off : off+16])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return shadow
}

func verifyPages(t *testing.T, m ftl.Method, shadow [][]byte, label string) {
	t.Helper()
	buf := make([]byte, len(shadow[0]))
	for pid := range shadow {
		if err := m.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("%s: reading pid %d: %v", label, pid, err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("%s: pid %d differs from pre-restart content", label, pid)
		}
	}
}

// TestPDLSurvivesProcessRestart is the acceptance test of the file
// backend: write, Flush, Close; a brand-new device on the same path plus
// Recover reconstructs every logical page byte-identically.
func TestPDLSurvivesProcessRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.img")
	p := ftltest.SmallParams(16)
	const numPages = 96
	opts := core.Options{MaxDifferentialSize: 128}

	dev, err := filedev.Open(path, filedev.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := writeWorkload(t, store, numPages, p.DataSize, 11)
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	dev2, err := filedev.Open(path, filedev.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dev2.Close()
	recovered, err := core.Recover(dev2, numPages, opts)
	if err != nil {
		t.Fatalf("Recover after restart: %v", err)
	}
	verifyPages(t, recovered, shadow, "full-scan recovery")

	// The recovered store is live: it keeps accepting writes on the same
	// file.
	next := make([]byte, p.DataSize)
	for i := range next {
		next[i] = 0x5A
	}
	if err := recovered.WritePage(0, next); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if err := recovered.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPDLKillAndReopen abandons the device without Close or Sync — the
// closest a test can get to SIGKILL — and checks that reopening the path
// recovers the last flushed state.
func TestPDLKillAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.img")
	p := ftltest.SmallParams(16)
	const numPages = 96
	opts := core.Options{MaxDifferentialSize: 128}

	dev, err := filedev.Open(path, filedev.Options{Params: p, Sync: filedev.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := writeWorkload(t, store, numPages, p.DataSize, 23)
	// A small update after the last Flush stays in the differential write
	// buffer (Case 1) and dies with the process, exactly like the paper's
	// write-buffer losses; recovery must surface the flushed state.
	lost := append([]byte(nil), shadow[3]...)
	lost[0] ^= 0x0F
	if err := store.WritePage(3, lost); err != nil {
		t.Fatal(err)
	}
	// Kill: no Flush, no Close, no Sync. The *os.File writes already hit
	// the OS, which is what survives a killed process.

	dev2, err := filedev.Open(path, filedev.Options{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer dev2.Close()
	recovered, err := core.Recover(dev2, numPages, opts)
	if err != nil {
		t.Fatalf("Recover after kill: %v", err)
	}
	verifyPages(t, recovered, shadow, "kill-and-reopen recovery")
}

// TestPDLRecoveryEquivalenceOnFile copies the device file after a restart
// and recovers both the original and the copy: recovery depends on the
// file's bytes alone, so both must reconstruct the written pages. (That the
// worker count of the scan changes nothing is core's TestSim oracle.)
func TestPDLRecoveryEquivalenceOnFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flash.img")
	p := ftltest.SmallParams(24)
	const numPages = 96
	opts := core.Options{MaxDifferentialSize: 128}

	dev, err := filedev.Open(path, filedev.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := writeWorkload(t, store, numPages, p.DataSize, 37)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 150; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(p.DataSize - 8)
		rng.Read(shadow[pid][off : off+8])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	copyPath := filepath.Join(dir, "copy.img")
	copyFile(t, path, copyPath)

	for _, p := range []string{path, copyPath} {
		dev, err := filedev.Open(p, filedev.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		r, err := core.Recover(dev, numPages, opts)
		if err != nil {
			t.Fatalf("recovering %s: %v", p, err)
		}
		verifyPages(t, r, shadow, p)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceBatchConformanceOnFileDevice(t *testing.T) {
	ftltest.RunDeviceBatchSuite(t, fileDevice)
}

func TestDeviceReadBatchConformanceOnFileDevice(t *testing.T) {
	ftltest.RunDeviceReadBatchSuite(t, fileDevice)
}

// TestProgramBatchCoalescesSyncs pins the durability win the batch
// contract promises: under SyncAlways a batch of N pages costs two fsyncs
// (data barrier + header pass) where N serial programs cost two each.
func TestProgramBatchCoalescesSyncs(t *testing.T) {
	p := ftltest.SmallParams(8)
	open := func(name string) *filedev.Device {
		d, err := filedev.Open(filepath.Join(t.TempDir(), name), filedev.Options{
			Params: p, Sync: filedev.SyncAlways,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	batched, serial := open("batched.img"), open("serial.img")

	const n = 8
	rng := rand.New(rand.NewSource(5))
	batch := make([]flash.PageProgram, n)
	for i := range batch {
		batch[i] = flash.PageProgram{PPN: flash.PPN(i), Data: make([]byte, p.DataSize), Spare: make([]byte, p.SpareSize)}
		rng.Read(batch[i].Data)
		for j := range batch[i].Spare {
			batch[i].Spare[j] = 0xFF
		}
		batch[i].Spare[0] = 0xB0
	}
	if err := batched.ProgramBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, pp := range batch {
		if err := serial.Program(pp.PPN, pp.Data, pp.Spare); err != nil {
			t.Fatal(err)
		}
	}
	bs, ss := batched.Stats(), serial.Stats()
	if bs.Writes != ss.Writes {
		t.Errorf("writes: batched %d, serial %d", bs.Writes, ss.Writes)
	}
	if bs.Syncs != 2 {
		t.Errorf("batched syncs = %d, want 2 (data barrier + header pass)", bs.Syncs)
	}
	if ss.Syncs != 2*n {
		t.Errorf("serial syncs = %d, want %d", ss.Syncs, 2*n)
	}
	// Same bytes on both devices regardless of the sync schedule.
	a, b := make([]byte, p.DataSize), make([]byte, p.DataSize)
	for _, pp := range batch {
		if err := batched.ReadData(pp.PPN, a); err != nil {
			t.Fatal(err)
		}
		if err := serial.ReadData(pp.PPN, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("ppn %d: batched and serial contents diverge", pp.PPN)
		}
	}
}
