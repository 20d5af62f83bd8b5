package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

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

	// The workers' foreground allocations may have reclaimed everything
	// through synchronous fallbacks before the scheduler ever ran the engine's
	// goroutine (most easily under -race on two cores). So from this goroutine
	// alone, rewrite pages until the channel sits at the engine's watermark,
	// where the allocation that reached it kicked the engine, and give the
	// engine 5 s to collect.
	for deadline := time.Now().Add(5 * time.Second); s.BackgroundGCStats().Collected == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the background engine collected nothing in 5 s at %d free blocks (watermark %d; %d GC runs, %d sync fallbacks)",
				s.Allocator().FreeBlocksOn(0), s.gcLow, s.Allocator().GCRuns(), s.Telemetry().SyncGCFallbacks)
		}
		if s.Allocator().FreeBlocksOn(0) <= s.gcLow {
			time.Sleep(time.Millisecond)
			continue
		}
		pid := rng.Intn(numPages)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
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
