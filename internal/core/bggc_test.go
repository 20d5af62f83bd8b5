package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// TestBackgroundGCHammer drives all shards from many goroutines while the
// background garbage collector runs, under the race detector: the
// foreground allocation (AllocBatchOn, which collects inline only at the
// reserve floor), the watermark kicks, the engine's per-victim channel-lock
// increments, and the lock-free read path all race here. Each worker owns a disjoint pid slice so it can verify exact
// content.
func TestBackgroundGCHammer(t *testing.T) {
	const (
		workers    = 8
		numBlocks  = 24
		numPages   = 128
		opsPerWkr  = 500
		changeSpan = 48
	)
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, Options{
		MaxDifferentialSize: 128,
		Shards:              workers,
		BackgroundGC:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := chip.Params().DataSize

	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(1))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			page := make([]byte, size)
			for i := 0; i < opsPerWkr; i++ {
				pid := uint32(w + workers*rng.Intn(numPages/workers))
				if err := s.ReadPage(pid, page); err != nil {
					errs <- fmt.Errorf("worker %d op %d: read pid %d: %w", w, i, pid, err)
					return
				}
				if !bytes.Equal(page, shadow[pid]) {
					errs <- fmt.Errorf("worker %d op %d: pid %d content diverged", w, i, pid)
					return
				}
				off := rng.Intn(size - changeSpan)
				rng.Read(shadow[pid][off : off+changeSpan])
				copy(page, shadow[pid])
				if err := s.WritePage(pid, page); err != nil {
					errs <- fmt.Errorf("worker %d op %d: write pid %d: %w", w, i, pid, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("final read pid %d: %v", pid, err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("final content mismatch on pid %d", pid)
		}
	}
	if s.Allocator().GCRuns() == 0 {
		t.Error("workload never triggered garbage collection; increase churn")
	}
	if got := s.BackgroundGCStats().Collected; got == 0 {
		t.Errorf("background engine collected 0 blocks (%d total GC runs, %d sync fallbacks); background mode never engaged",
			s.Allocator().GCRuns(), s.Telemetry().SyncGCFallbacks)
	}
	t.Logf("GC runs: %d total, %d in background, %d sync fallbacks",
		s.Allocator().GCRuns(), s.BackgroundGCStats().Collected, s.Telemetry().SyncGCFallbacks)
}

// TestBackgroundGCConformance runs the full single-threaded method
// conformance suite with the background collector on: moving collection
// off the write path must not change what any read observes.
func TestBackgroundGCConformance(t *testing.T) {
	ftltest.RunMethodSuite(t, func(dev flash.Device, numPages int) (ftl.Method, error) {
		s, err := New(dev, numPages, Options{
			MaxDifferentialSize: 64,
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

// TestBackgroundGCOptionValidation pins down the new option contracts.
func TestBackgroundGCOptionValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{BackgroundGC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.BackgroundGC() {
		t.Error("BackgroundGC() = false on a background-GC store")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The store stays usable after Close (synchronous collection).
	page := make([]byte, chip.Params().DataSize)
	if err := s.WritePage(0, page); err != nil {
		t.Fatalf("write after Close: %v", err)
	}

	chip2 := flash.NewChip(ftltest.SmallParams(8))
	s2, err := New(chip2, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.BackgroundGC() {
		t.Error("BackgroundGC() = true on a synchronous store")
	}
	if got := s2.BackgroundGCStats(); got.Collected != 0 || got.Wakeups != 0 {
		t.Errorf("BackgroundGCStats = %+v on a synchronous store", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close on a synchronous store: %v", err)
	}
}

// TestParallelRecoveryMatchesSerial recovers the same flash image with the
// fanned-out scan and with the serial one-worker scan; recovery is
// idempotent, so running both against one chip is legal, and they must
// produce identical mapping tables and identical logical pages (which also
// must equal the last flushed shadow).
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	const (
		numBlocks = 20
		numPages  = 64
	)
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	opts := Options{MaxDifferentialSize: 128}
	s, err := New(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(9))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(size - 32)
		rng.Read(shadow[pid][off : off+32])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	par := opts
	par.RecoveryWorkers = 7 // deliberately not a divisor of the block count
	rp, err := Recover(chip, numPages, par)
	if err != nil {
		t.Fatalf("parallel recovery: %v", err)
	}
	ser := opts
	ser.RecoveryWorkers = 1
	rs, err := Recover(chip, numPages, ser)
	if err != nil {
		t.Fatalf("serial recovery: %v", err)
	}

	if snapshotMapping(rp) != snapshotMapping(rs) {
		t.Fatal("parallel and serial recovery built different mapping tables")
	}
	bp := make([]byte, size)
	bs := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := rp.ReadPage(uint32(pid), bp); err != nil {
			t.Fatalf("parallel-recovery read pid %d: %v", pid, err)
		}
		if err := rs.ReadPage(uint32(pid), bs); err != nil {
			t.Fatalf("serial-recovery read pid %d: %v", pid, err)
		}
		if !bytes.Equal(bp, bs) {
			t.Fatalf("recovered states differ on pid %d", pid)
		}
		if !bytes.Equal(bp, shadow[pid]) {
			t.Fatalf("recovery lost flushed content of pid %d", pid)
		}
	}
	if rp.Allocator().FreeBlocks() != rs.Allocator().FreeBlocks() {
		t.Errorf("free blocks differ: parallel %d, serial %d",
			rp.Allocator().FreeBlocks(), rs.Allocator().FreeBlocks())
	}
}

// TestKillMidBackgroundGCRecovery schedules a power failure while writers
// and the background collector are both running, abandons the store at the
// failure point, and requires the fanned-out recovery scan and the serial
// scan to reconstruct identical state from the torn image.
func TestKillMidBackgroundGCRecovery(t *testing.T) {
	const (
		workers   = 4
		numBlocks = 16
		numPages  = 80
	)
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, Options{
		MaxDifferentialSize: 128,
		Shards:              workers,
		BackgroundGC:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	page := make([]byte, size)
	rng := rand.New(rand.NewSource(13))
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			t.Fatal(err)
		}
	}
	// Some churn so garbage collection is active, then schedule the
	// failure a few hundred flash programs ahead — it may land in a
	// foreground program, a relocation copy or an erase, on either the
	// writer goroutines or the collector goroutine.
	chip.SchedulePowerFailure(300)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			page := make([]byte, size)
			for i := 0; i < 600; i++ {
				pid := uint32(w + workers*rng.Intn(numPages/workers))
				if err := s.ReadPage(pid, page); err != nil {
					if chip.PowerFailed() {
						return // the crash point; stop like a dead process
					}
					t.Errorf("worker %d: read before failure: %v", w, err)
					return
				}
				off := rng.Intn(size - 24)
				rng.Read(page[off : off+24])
				if err := s.WritePage(pid, page); err != nil {
					if errors.Is(err, flash.ErrPowerLoss) || chip.PowerFailed() {
						return
					}
					t.Errorf("worker %d: write before failure: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close() // ignore the collector's sticky error: the "machine" died
	if !chip.PowerFailed() {
		t.Skip("workload finished before the scheduled failure; nothing to recover")
	}

	opts := Options{MaxDifferentialSize: 128}
	par := opts
	par.RecoveryWorkers = 5
	rp, err := Recover(chip, numPages, par)
	if err != nil {
		t.Fatalf("parallel recovery of torn image: %v", err)
	}
	ser := opts
	ser.RecoveryWorkers = 1
	rs, err := Recover(chip, numPages, ser)
	if err != nil {
		t.Fatalf("serial recovery of torn image: %v", err)
	}
	if snapshotMapping(rp) != snapshotMapping(rs) {
		t.Fatal("parallel and serial recovery of the torn image disagree")
	}
	bp := make([]byte, size)
	bs := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		errP := rp.ReadPage(uint32(pid), bp)
		errS := rs.ReadPage(uint32(pid), bs)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("pid %d readable in one recovery only (parallel: %v, serial: %v)", pid, errP, errS)
		}
		if errP == nil && !bytes.Equal(bp, bs) {
			t.Fatalf("recovered content differs on pid %d", pid)
		}
	}
	// The recovered store must keep working (writes, GC, flush). Only one
	// of the two may take over: both share the chip, and two live
	// allocators would hand out the same pages. The serial store existed
	// only for the comparison above and is abandoned here.
	for i := 0; i < 150; i++ {
		pid := uint32(rng.Intn(numPages))
		rng.Read(bp[:64])
		if err := rp.WritePage(pid, bp); err != nil {
			t.Fatalf("post-recovery write: %v", err)
		}
	}
	if err := rp.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestVDCTHoldsOnlyLivePages is the regression test for the
// zero-valued-key leak: after a GC-heavy workload, a recovery, and more
// churn, the valid differential count table must contain strictly
// positive counts only — a zero count means the page is obsolete and its
// key must be gone, or a long-running store grows the map unboundedly.
func TestVDCTHoldsOnlyLivePages(t *testing.T) {
	const (
		numBlocks = 12
		numPages  = 64
	)
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	page := make([]byte, size)
	rng := rand.New(rand.NewSource(21))
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			t.Fatal(err)
		}
	}
	checkVDCT := func(stage string, st *Store) {
		t.Helper()
		st.mt.mu.RLock()
		defer st.mt.mu.RUnlock()
		if len(st.mt.vdct) > numPages {
			t.Errorf("%s: vdct holds %d entries for a %d-page database", stage, len(st.mt.vdct), numPages)
		}
		for dp, n := range st.mt.vdct {
			if n <= 0 {
				t.Errorf("%s: vdct[%d] = %d; zero/negative counts must be deleted", stage, dp, n)
			}
		}
	}
	churn := func(st *Store, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			pid := uint32(rng.Intn(numPages))
			if err := st.ReadPage(pid, page); err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(size - 16)
			rng.Read(page[off : off+16])
			if err := st.WritePage(pid, page); err != nil {
				t.Fatal(err)
			}
			if i%97 == 0 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	churn(s, 31)
	if s.Allocator().GCRuns() == 0 {
		t.Fatal("workload never garbage-collected; the test proves nothing")
	}
	checkVDCT("after churn", s)

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, numPages, Options{MaxDifferentialSize: 128, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkVDCT("after recovery", r)
	churn(r, 33)
	checkVDCT("after post-recovery churn", r)
}
