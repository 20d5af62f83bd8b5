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

// TestConcurrentHammer drives WritePage/ReadPage/Flush from many goroutines
// under the race detector. Each worker owns a disjoint slice of the pid
// space (pid % workers == w), so it can verify the exact content of every
// page it wrote while other workers, and a dedicated flusher, churn the
// shared chip, allocator, and garbage collector.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers    = 8
		numBlocks  = 24
		numPages   = 128
		opsPerWkr  = 400
		changeSpan = 48
	)
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, Options{
		MaxDifferentialSize: 128,
		Shards:              workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize

	// Load single-threaded; concurrency starts on a fully based database.
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(1))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, workers+1)
	stop := make(chan struct{})

	// A background flusher exercises Flush concurrently with the writers.
	// It is throttled so it interleaves with the workers instead of
	// monopolizing the shard locks (the race detector serializes heavily
	// on single-CPU hosts).
	var flusherWg sync.WaitGroup
	flusherWg.Add(1)
	go func() {
		defer flusherWg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := s.Flush(); err != nil {
					errs <- fmt.Errorf("flusher: %w", err)
					return
				}
			}
		}
	}()

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
				// The first-dirty hint, as a pool gives it for its own page, and
				// for a page another worker is writing, which it must survive.
				if i%2 == 0 {
					s.RetainBase(pid)
				} else {
					s.RetainBase(uint32(i % numPages))
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
	close(stop)
	flusherWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final single-threaded verification of the whole database.
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
}

// TestConcurrentReaders verifies that many goroutines reading the same
// pages (buffered and flushed differentials alike) see consistent content.
func TestConcurrentReaders(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(16))
	s, err := New(chip, 32, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, 32)
	rng := rand.New(rand.NewSource(3))
	for pid := 0; pid < 32; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// Half the pages get a buffered differential, a quarter a flushed one.
	for pid := 0; pid < 16; pid++ {
		shadow[pid][pid] ^= 0xA5
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
		if pid < 8 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < 200; i++ {
				pid := uint32((w*31 + i*7) % 32)
				if err := s.ReadPage(pid, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, shadow[pid]) {
					errs <- fmt.Errorf("reader %d: pid %d mismatch", w, pid)
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
}

// TestMultiShardRecoveryMatchesSingleShard runs the same workload against a
// single-shard store and a multi-shard store, crashes both (recovery from
// the raw chip image), and requires the recovered logical states to agree
// page for page. Shard count changes how differentials are packed into
// differential pages, but never what recovery reconstructs.
func TestMultiShardRecoveryMatchesSingleShard(t *testing.T) {
	const (
		numBlocks = 20
		numPages  = 64
		ops       = 1200
	)
	run := func(shards int) (*flash.Chip, [][]byte) {
		chip := flash.NewChip(ftltest.SmallParams(numBlocks))
		s, err := New(chip, numPages, Options{
			MaxDifferentialSize: 128,
			Shards:              shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		size := chip.Params().DataSize
		shadow := make([][]byte, numPages)
		rng := rand.New(rand.NewSource(77))
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < ops; i++ {
			pid := rng.Intn(numPages)
			off := rng.Intn(size - 32)
			rng.Read(shadow[pid][off : off+32])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		// Flush so both stores have identical durable logical state (what
		// was still buffered differs per shard count and is legitimately
		// lost in a crash, per the paper).
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return chip, shadow
	}

	chip1, shadow := run(1)
	chip8, shadow8 := run(8)
	for pid := range shadow {
		if !bytes.Equal(shadow[pid], shadow8[pid]) {
			t.Fatal("workloads diverged; test bug")
		}
	}

	// "Crash": rebuild both stores from their chip images alone. The
	// multi-shard store recovers into a multi-shard configuration.
	r1, err := Recover(chip1, numPages, Options{MaxDifferentialSize: 128, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Recover(chip8, numPages, Options{MaxDifferentialSize: 128, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := r8.Shards(); got != 8 {
		t.Fatalf("recovered store has %d shards, want 8", got)
	}
	size := chip1.Params().DataSize
	b1 := make([]byte, size)
	b8 := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := r1.ReadPage(uint32(pid), b1); err != nil {
			t.Fatalf("single-shard recovery read pid %d: %v", pid, err)
		}
		if err := r8.ReadPage(uint32(pid), b8); err != nil {
			t.Fatalf("multi-shard recovery read pid %d: %v", pid, err)
		}
		if !bytes.Equal(b1, shadow[pid]) {
			t.Fatalf("single-shard recovery lost pid %d", pid)
		}
		if !bytes.Equal(b1, b8) {
			t.Fatalf("recovered states differ on pid %d", pid)
		}
	}
	// Both recovered stores must remain fully usable (writes + GC).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		pid := uint32(rng.Intn(numPages))
		rng.Read(b8[:64])
		copy(b1, b8)
		if err := r8.WritePage(pid, b8); err != nil {
			t.Fatalf("multi-shard post-recovery write: %v", err)
		}
		if err := r1.WritePage(pid, b1); err != nil {
			t.Fatalf("single-shard post-recovery write: %v", err)
		}
	}
}

// TestUnchangedWriteIsNoOp is the regression test for the empty-differential
// bug: writing a page byte-identical to its base page must not consume
// write-buffer space, and must not dirty the mapping tables on flush.
func TestUnchangedWriteIsNoOp(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	page := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(page)
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	// Rewriting the identical content buffers nothing.
	for i := 0; i < 5; i++ {
		if err := s.WritePage(0, page); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WriteBufferBytes(); got != 0 {
		t.Errorf("WriteBufferBytes = %d after unchanged writes, want 0", got)
	}
	if got := s.WriteBufferLen(); got != 0 {
		t.Errorf("WriteBufferLen = %d after unchanged writes, want 0", got)
	}
	// Flush must not create a differential page or dirty vdct.
	writesBefore := chip.Stats().Writes
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := chip.Stats().Writes - writesBefore; w != 0 {
		t.Errorf("Flush after unchanged writes performed %d flash writes, want 0", w)
	}
	if got := s.ValidDifferentialPages(); got != 0 {
		t.Errorf("ValidDifferentialPages = %d, want 0", got)
	}
	// An unchanged write also drops a pending buffered differential: the
	// base page already equals the logical page.
	page[0] ^= 1
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferLen() != 1 {
		t.Fatalf("WriteBufferLen = %d, want 1", s.WriteBufferLen())
	}
	page[0] ^= 1 // back to base content
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteBufferBytes(); got != 0 {
		t.Errorf("WriteBufferBytes = %d after revert-to-base write, want 0", got)
	}
	buf := make([]byte, size)
	if err := s.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Error("content mismatch after revert-to-base write")
	}
}

// TestUnchangedWriteSupersedesFlushedDifferential covers the corner the
// naive no-op would get wrong: when a stale differential already sits in a
// differential page on flash, a revert-to-base write must still be made
// durable (as an empty differential with a newer time stamp) so reads and
// crash recovery do not resurrect the stale differential.
func TestUnchangedWriteSupersedesFlushedDifferential(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	base := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(base)
	if err := s.WritePage(3, base); err != nil {
		t.Fatal(err)
	}
	// Change, flush: a differential page now holds the change durably.
	changed := make([]byte, size)
	copy(changed, base)
	changed[100] ^= 0xFF
	if err := s.WritePage(3, changed); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Revert to the exact base content and flush again.
	if err := s.WritePage(3, base); err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferLen() != 1 {
		t.Fatalf("revert write with flushed differential must buffer an empty differential, have %d", s.WriteBufferLen())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if err := s.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base) {
		t.Error("read after revert returned stale differential content")
	}
	// Crash recovery must agree.
	r, err := Recover(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base) {
		t.Error("recovery resurrected the superseded differential")
	}
}

// TestShardOptionValidation pins down the Options.Shards contract.
func TestShardOptionValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	if _, err := New(chip, 8, Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 1 {
		t.Errorf("default Shards = %d, want 1", got)
	}
	chip2 := flash.NewChip(ftltest.SmallParams(8))
	s2, err := New(chip2, 8, Options{Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Shards(); got != 6 {
		t.Errorf("Shards = %d, want 6", got)
	}
}

// TestShardedConformance runs the full method conformance suite over a
// multi-shard store: sharding must not change single-threaded semantics.
func TestShardedConformance(t *testing.T) {
	ftltest.RunMethodSuite(t, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return New(dev, numPages, Options{MaxDifferentialSize: 64, Shards: 4})
	})
}
