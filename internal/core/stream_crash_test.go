package core

// Crash recovery and steady state at geometries where the allocator runs
// the differential stream (channels of at least 16 blocks): the older
// kill-point families mostly run on chips too small for it.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// streamNumPages is the database per channel: 24 of a channel's 64 pages.
func streamNumPages(nchan int) int { return 24 * nchan }

// streamParams is 16 blocks of 4 pages per channel: small enough that a
// hundred updates roll the hot and the differential stream over several
// times and collect both kinds of block.
func streamParams(nchan int) flash.Params {
	p := ftltest.SmallParams(16 * nchan)
	p.PagesPerBlock = 4
	return p
}

func streamOptions(nchan int) Options {
	return Options{MaxDifferentialSize: 128, Shards: nchan}
}

// streamStep is one logical step of the update loop: a page write, or a
// flush of the write buffers.
type streamStep struct {
	pid   uint32
	data  []byte
	flush bool
}

// streamGroup is the steps[lo:hi] one store call performs: WritePage or
// Flush for one step, WriteBatch (of distinct pids) for several.
type streamGroup struct{ lo, hi int }

// streamImages returns version 0 of every page.
func streamImages(nchan int) [][]byte {
	imgs := make([][]byte, streamNumPages(nchan))
	for pid := range imgs {
		imgs[pid] = batchPage(uint32(pid), 0, streamParams(nchan).DataSize)
	}
	return imgs
}

// streamLoop builds the deterministic update loop over the loaded images:
// single small updates (Case 1 and, every few, the Case 2 spill), full
// rewrites (Case 3), batches mixing both, and flushes.
func streamLoop(initial [][]byte) (steps []streamStep, groups []streamGroup) {
	rng := rand.New(rand.NewSource(41))
	numPages, size := len(initial), len(initial[0])
	nchan := numPages / streamNumPages(1)
	cur := append([][]byte(nil), initial...)
	write := func(pid int, full bool) {
		if full {
			cur[pid] = batchPage(uint32(pid), len(steps)+1, size)
		} else {
			cur[pid] = append([]byte(nil), cur[pid]...)
			off := rng.Intn(size - 96)
			rng.Read(cur[pid][off : off+96])
		}
		steps = append(steps, streamStep{pid: uint32(pid), data: cur[pid]})
	}
	for g := 0; g < 40*nchan; g++ {
		lo := len(steps)
		switch {
		case g%9 == 8:
			steps = append(steps, streamStep{flush: true})
		case g%5 == 4:
			for i, pid := range rng.Perm(numPages)[:6] {
				write(pid, i%3 == 2)
			}
		default:
			write(rng.Intn(numPages), g%4 == 3)
		}
		groups = append(groups, streamGroup{lo, len(steps)})
	}
	return steps, groups
}

// streamStore opens a store over fresh chips (one per channel) and loads
// the initial images.
func streamStore(t *testing.T, initial [][]byte) (*Store, flash.Device, []*flash.Chip) {
	t.Helper()
	nchan := len(initial) / streamNumPages(1)
	var dev flash.Device
	var chips []*flash.Chip
	if nchan == 1 {
		chips = []*flash.Chip{flash.NewChip(streamParams(1))}
		dev = chips[0]
	} else {
		dev, chips = newStripedChips(t, streamParams(nchan), nchan)
	}
	s, err := New(dev, len(initial), streamOptions(nchan))
	if err != nil {
		t.Fatal(err)
	}
	for pid, img := range initial {
		if err := s.WritePage(uint32(pid), img); err != nil {
			t.Fatalf("loading pid %d: %v", pid, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, dev, chips
}

// runGroup performs one group's store call.
func runGroup(s *Store, steps []streamStep) error {
	switch {
	case len(steps) > 1:
		batch := make([]ftl.PageWrite, len(steps))
		for i, st := range steps {
			batch[i] = ftl.PageWrite{PID: st.pid, Data: st.data}
		}
		return s.WriteBatch(batch)
	case steps[0].flush:
		return s.Flush()
	default:
		return s.WritePage(steps[0].pid, steps[0].data)
	}
}

// streamPrefixStates returns, for every j, what recovery reconstructs
// after the first j steps ran one by one and the store was abandoned: the
// serial ground truth a killed run must land on.
func streamPrefixStates(t *testing.T, initial [][]byte, steps []streamStep) [][][]byte {
	t.Helper()
	nchan := len(initial) / streamNumPages(1)
	states := make([][][]byte, len(steps)+1)
	for j := range states {
		s, dev, _ := streamStore(t, initial)
		for i := 0; i < j; i++ {
			if err := runGroup(s, steps[i:i+1]); err != nil {
				t.Fatalf("serial prefix %d, step %d: %v", j, i, err)
			}
		}
		r, err := Recover(dev, streamNumPages(nchan), streamOptions(nchan))
		if err != nil {
			t.Fatalf("recovering serial prefix %d: %v", j, err)
		}
		states[j] = readAllPages(t, r, streamNumPages(nchan))
	}
	return states
}

// TestDiffStreamKillPointSweep kills the update loop at every program and
// every erase it issues, on one channel and on each chip of a 2-channel
// striped device, with the hot and the differential stream both open and
// both collected. A single channel must recover to the state of a serial
// prefix of the loop that ends inside the interrupted call; with one of
// two chips dead mid-call each channel keeps a prefix of its own leg, so
// every page must hold its content of one such prefix. Either way the
// recovered bytes must not depend on the recovery scan's worker count.
func TestDiffStreamKillPointSweep(t *testing.T) {
	for _, nchan := range []int{1, 2} {
		t.Run(fmt.Sprintf("channels=%d", nchan), func(t *testing.T) {
			initial := streamImages(nchan)
			steps, groups := streamLoop(initial)
			states := streamPrefixStates(t, initial, steps)
			for dead := 0; dead < nchan; dead++ {
				for killAt := int64(1); ; killAt++ {
					s, dev, chips := streamStore(t, initial)
					chips[dead].SchedulePowerFailure(killAt)
					hit := streamGroup{len(steps), len(steps)}
					for _, g := range groups {
						err := runGroup(s, steps[g.lo:g.hi])
						if errors.Is(err, flash.ErrPowerLoss) {
							hit = g
							break
						}
						if err != nil {
							t.Fatalf("chip %d killAt %d, steps %d-%d: %v", dead, killAt, g.lo, g.hi, err)
						}
					}
					if !chips[dead].PowerFailed() {
						// The whole loop ran: check it did what the sweep is for.
						for ch := 0; ch < nchan; ch++ {
							st := s.ChannelGC(ch)
							if !s.alloc.StreamsOn(ch) || st.Runs < 3 || st.DiffStreamPages <= 2*int64(s.params.PagesPerBlock) {
								t.Fatalf("channel %d: %+v: the loop did not roll the differential stream over under collection", ch, st)
							}
							t.Logf("chip %d: %d kill points; channel %d: %+v", dead, killAt-1, ch, st)
						}
						break
					}
					chips[dead].SchedulePowerFailure(-1) // disarm: the recovered store programs again
					var first [][]byte
					for _, workers := range []int{1, 2, 4} {
						o := streamOptions(nchan)
						o.RecoveryWorkers = workers
						r, err := Recover(dev, streamNumPages(nchan), o)
						if err != nil {
							t.Fatalf("chip %d killAt %d workers %d: recover: %v", dead, killAt, workers, err)
						}
						got := readAllPages(t, r, streamNumPages(nchan))
						if first != nil {
							if !statesEqual(got, first) {
								t.Fatalf("chip %d killAt %d: %d-worker recovery differs from 1-worker recovery", dead, killAt, workers)
							}
							continue
						}
						first = got
						if nchan == 1 {
							assertSomePrefix(t, fmt.Sprintf("killAt %d (steps %d-%d)", killAt, hit.lo, hit.hi),
								got, states[hit.lo:hit.hi+1])
							continue
						}
						for pid := range got {
							ok := false
							for j := hit.lo; j <= hit.hi && !ok; j++ {
								ok = bytes.Equal(got[pid], states[j][pid])
							}
							if !ok {
								t.Fatalf("chip %d killAt %d: pid %d holds the content of no serial prefix ending in steps %d-%d",
									dead, killAt, pid, hit.lo, hit.hi)
							}
						}
					}
				}
			}
		})
	}
}

// TestRecoverAdoptsPartialDiffStreamBlock abandons a store whose open
// differential block is partly filled. Recovery adopts the block as full
// (its unwritten tail is given up, like any partly filled block's), the
// next spill opens a fresh block of the stream, and collection later
// reclaims the adopted block without losing a differential.
func TestRecoverAdoptsPartialDiffStreamBlock(t *testing.T) {
	shadow := streamImages(1)
	s, dev, _ := streamStore(t, shadow)
	size := s.PageSize()
	touch := func(s *Store, pid int) {
		t.Helper()
		shadow[pid][pid%size] ^= 0xFF
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for pid := 0; pid < 3; pid++ {
		touch(s, pid)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	blk := s.params.BlockOf(entryOf(s, 0).dif)
	if bs := s.alloc.BlockStats(blk); !bs.Active || bs.Stream != ftl.StreamDiff || bs.Written != 3 {
		t.Fatalf("before the crash: differential block %d = %+v, want 3 pages of the open differential stream", blk, bs)
	}

	r, err := Recover(dev, streamNumPages(1), streamOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if bs := r.alloc.BlockStats(blk); bs.Free || bs.Active || bs.Written != 3 {
		t.Fatalf("after recovery: block %d = %+v, want adopted as full with 3 pages", blk, bs)
	}
	touch(r, 3)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := r.params.BlockOf(entryOf(r, 3).dif)
	if bs := r.alloc.BlockStats(fresh); fresh == blk || bs.Stream != ftl.StreamDiff {
		t.Fatalf("first spill after recovery went to block %d (%+v), want a fresh block of the differential stream", fresh, bs)
	}
	// Supersede pid 0's differential and collect until the adopted block is
	// erased: the differentials of pids 1 and 2 must be compacted out of it.
	touch(r, 0)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for r.dev.EraseCount(blk) == 0 {
		if collected, err := r.alloc.CollectOnceOn(0); err != nil || !collected {
			t.Fatalf("adopted block %d not collected (%v): %+v", blk, err, r.alloc.BlockStats(blk))
		}
	}
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
}

// TestDiffStreamSteadyStatePagesMoved is the paper's driver-level update
// (read a page, overwrite a random 2% of it, write it back) on a database
// half the size of the chip, measured after every block has been erased
// once on average. With differential pages in blocks of their own a victim
// is either a differential block that died wholesale or a base block that
// was left to age, so a collection moves a few pages; with spills and base
// pages sharing the hot block every victim dragged along about nineteen.
func TestDiffStreamSteadyStatePagesMoved(t *testing.T) {
	p := flash.DefaultParams()
	p.NumBlocks = 32
	numPages := p.NumBlocks * p.PagesPerBlock / 2
	s, err := New(flash.NewChip(p), numPages, Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	page := make([]byte, p.DataSize)
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			t.Fatal(err)
		}
	}
	run := p.DataSize / 50
	update := func() {
		pid := uint32(rng.Intn(numPages))
		if err := s.ReadPage(pid, page); err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(p.DataSize - run)
		rng.Read(page[off : off+run])
		if err := s.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
	}
	for s.alloc.MeanVictimRounds() < 1 {
		update()
	}
	s.alloc.ResetGCStats()
	for i := 0; i < 8*numPages; i++ {
		update()
	}
	st := s.ChannelGC(0)
	if st.Runs == 0 {
		t.Fatal("no collection in the measured phase")
	}
	const ceiling = 16.0
	if moved := float64(st.PagesMoved) / float64(st.Runs); moved > ceiling {
		t.Errorf("%.1f pages moved per collection (%+v), want at most %.0f", moved, st, ceiling)
	} else {
		t.Logf("%.1f pages moved per collection: %+v", moved, st)
	}
}
