package core

// Crash-recovery equivalence on the striped device. Two failure shapes
// exist there: a strict global prefix (the batch truncated as a whole,
// modeled by prefixFailDev around the striped device) and a per-channel
// power loss (one sub-chip dies mid-leg — the union-of-per-channel-
// prefixes shape flash.Striped documents). Recovery arbitrates per page
// by time stamp, so both must reconstruct serially-explainable contents,
// and the parallel recovery scan must land on the identical state for
// every worker count.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// newStripedChips builds a striped device of nchan emulator chips,
// splitting the given total geometry, and returns the sub-chips for
// power control.
func newStripedChips(t *testing.T, p flash.Params, nchan int) (*flash.Striped, []*flash.Chip) {
	t.Helper()
	if p.NumBlocks%nchan != 0 {
		t.Fatalf("%d blocks not divisible by %d channels", p.NumBlocks, nchan)
	}
	sp := p
	sp.NumBlocks = p.NumBlocks / nchan
	chips := make([]*flash.Chip, nchan)
	subs := make([]flash.Device, nchan)
	for i := range subs {
		chips[i] = flash.NewChip(sp)
		subs[i] = chips[i]
	}
	dev, err := flash.NewStriped(subs...)
	if err != nil {
		t.Fatal(err)
	}
	return dev, chips
}

// TestWriteBatchKillMidBatchStriped truncates the batch as a whole after
// k pages (the device-contract crash shape) on a 4-channel striped
// device: because commit programs in time-stamp order, the
// truncated global batch is a TS prefix no matter how the striped device
// fans the surviving pages out, and recovery must land on a serial
// prefix of the batch — the single-chip ground truth.
func TestWriteBatchKillMidBatchStriped(t *testing.T) {
	batch := buildTestBatch(batchParams().DataSize)
	states := serialPrefixStates(t, batch)
	for _, bg := range []bool{false, true} {
		name := "SyncGC"
		if bg {
			name = "BackgroundGC"
		}
		t.Run(name, func(t *testing.T) {
			for killAt := 0; ; killAt++ {
				sdev, _ := newStripedChips(t, batchParams(), 4)
				dev := &prefixFailDev{Device: sdev, failAfter: killAt}
				s, err := New(dev, batchNumPages, batchOptions(bg))
				if err != nil {
					t.Fatal(err)
				}
				loadBatchPages(t, s)
				batchErr := s.WriteBatch(batch)
				s.Close()
				if !dev.fired {
					if batchErr != nil {
						t.Fatalf("killAt %d: %v", killAt, batchErr)
					}
					break
				}
				if !errors.Is(batchErr, errInjectedKill) {
					t.Fatalf("killAt %d: err = %v, want injected kill", killAt, batchErr)
				}
				// Recover over the striped device directly — the same chips,
				// reassembled as after a process restart.
				r, err := Recover(sdev, batchNumPages, batchOptions(false))
				if err != nil {
					t.Fatalf("killAt %d: recover: %v", killAt, err)
				}
				assertSomePrefix(t, fmt.Sprintf("killAt %d", killAt), readAllRecovered(t, r), states)
			}
		})
	}
}

// TestStripedChannelPowerLossRecovers kills ONE channel's chip at a
// random operation while the others stay up — the union-of-per-channel-
// prefixes crash shape — under a GC-heavy workload, so the loss lands in
// foreground programs, collection relocations and erases alike.
// Every recovered page must read back as some previously written
// version, and recovery must not depend on the scan's parallelism.
func TestStripedChannelPowerLossRecovers(t *testing.T) {
	const nchan = 4
	const numPages = 30
	opts := Options{MaxDifferentialSize: 128}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		sdev, chips := newStripedChips(t, ftltest.SmallParams(12), nchan)
		s, err := New(sdev, numPages, opts)
		if err != nil {
			t.Fatal(err)
		}
		size := sdev.Params().DataSize
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		versions := recordVersions(shadow)
		victim := rng.Intn(nchan)
		chips[victim].SchedulePowerFailure(int64(20 + rng.Intn(200)))
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
			chips[victim].SchedulePowerFailure(-1)
		}
		chips[victim].SchedulePowerFailure(-1) // disarm: the recovered store programs again

		// Parallel recovery invariance: every worker count must produce
		// the identical logical state (recovery is idempotent, so the
		// repeated scans over the same chips are admissible).
		var first [][]byte
		for _, workers := range []int{1, 2, 4, 7} {
			o := opts
			o.RecoveryWorkers = workers
			r, err := Recover(sdev, numPages, o)
			if err != nil {
				t.Fatalf("trial %d workers %d: recover: %v", trial, workers, err)
			}
			got := readAllPages(t, r, numPages)
			if first == nil {
				first = got
				for pid, content := range got {
					if !versions[pid][hash(content)] {
						t.Fatalf("trial %d pid %d: recovered content was never written", trial, pid)
					}
				}
				continue
			}
			for pid := range got {
				if !bytes.Equal(got[pid], first[pid]) {
					t.Fatalf("trial %d pid %d: %d-worker recovery differs from 1-worker recovery",
						trial, pid, workers)
				}
			}
		}
	}
}

// TestStripedKillMidGCRecovers arms the power failure on one channel
// with background collectors running on a reserve-tight geometry, so the
// loss regularly lands inside a collection increment (relocation program
// or victim erase) on that channel. The collector's sticky error IS the
// crash; recovery over the reassembled device must reconstruct written
// versions only.
func TestStripedKillMidGCRecovers(t *testing.T) {
	const nchan = 4
	const numPages = 40
	opts := Options{MaxDifferentialSize: 128, Shards: 4, BackgroundGC: true}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		sdev, chips := newStripedChips(t, ftltest.SmallParams(16), nchan)
		s, err := New(sdev, numPages, opts)
		if err != nil {
			t.Fatal(err)
		}
		size := sdev.Params().DataSize
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		versions := recordVersions(shadow)
		victim := rng.Intn(nchan)
		chips[victim].SchedulePowerFailure(int64(100 + rng.Intn(300)))
		for i := 0; i < 2000; i++ {
			pid := rng.Intn(numPages)
			rng.Read(shadow[pid])
			err := s.WritePage(uint32(pid), shadow[pid])
			if err == nil {
				recordVersion(versions, pid, shadow[pid])
				continue
			}
			if errors.Is(err, flash.ErrPowerLoss) {
				recordVersion(versions, pid, shadow[pid])
				break
			}
			t.Fatalf("trial %d op %d: %v", trial, i, err)
		}
		s.Close() // joins the collectors; a sticky power-loss error is the crash itself
		chips[victim].SchedulePowerFailure(-1)

		r, err := Recover(sdev, numPages, Options{MaxDifferentialSize: 128})
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		for pid, content := range readAllPages(t, r, numPages) {
			if !versions[pid][hash(content)] {
				t.Fatalf("trial %d pid %d: recovered content was never written", trial, pid)
			}
		}
	}
}

// readAllPages reads every logical page of a store (readAllRecovered is
// pinned to the batch scenario's page count).
func readAllPages(t *testing.T, s *Store, numPages int) [][]byte {
	t.Helper()
	out := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		out[pid] = make([]byte, s.PageSize())
		if err := s.ReadPage(uint32(pid), out[pid]); err != nil {
			t.Fatalf("reading pid %d: %v", pid, err)
		}
	}
	return out
}
