package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/faultdev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// The batch tests share one deterministic scenario: batchNumPages logical
// pages loaded with full random images (full-page loads are Case 3 base
// programs for any shard count, so the pre-batch flash layout is identical
// across every configuration), then one batch mixing Case-3 rewrites,
// small Case-1/2 updates (sized to spill the write buffer several times),
// repeated pids (the staged-base and staged-diff intra-batch paths), and a
// no-op rewrite.
const (
	batchNumPages = 40
	batchMaxDiff  = 128
	batchShards   = 4
)

func batchParams() flash.Params { return ftltest.SmallParams(16) }

func batchOptions(bg bool) Options {
	return Options{
		MaxDifferentialSize: batchMaxDiff,
		Shards:              batchShards,
		BackgroundGC:        bg,
	}
}

// batchPage returns the deterministic version v image of pid.
func batchPage(pid uint32, v int, size int) []byte {
	rng := rand.New(rand.NewSource(int64(pid)<<16 | int64(v)))
	data := make([]byte, size)
	rng.Read(data)
	return data
}

// loadBatchPages writes the version-0 image of every page and flushes.
func loadBatchPages(t *testing.T, s *Store) [][]byte {
	t.Helper()
	size := s.PageSize()
	shadow := make([][]byte, batchNumPages)
	for pid := 0; pid < batchNumPages; pid++ {
		shadow[pid] = batchPage(uint32(pid), 0, size)
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("loading pid %d: %v", pid, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return shadow
}

// buildTestBatch constructs the scenario batch over the loaded state.
func buildTestBatch(size int) []ftl.PageWrite {
	rng := rand.New(rand.NewSource(99))
	smallUpdate := func(pid uint32, base []byte, n int) []byte {
		data := append([]byte(nil), base...)
		off := rng.Intn(size - n)
		rng.Read(data[off : off+n])
		return data
	}
	var batch []ftl.PageWrite
	for i := 0; i < 20; i++ {
		pid := uint32((i * 7) % batchNumPages)
		if i%2 == 0 { // Case 3: full rewrite
			batch = append(batch, ftl.PageWrite{PID: pid, Data: batchPage(pid, i+1, size)})
		} else { // Case 1/2: ~100 changed bytes, spilling every few writes
			batch = append(batch, ftl.PageWrite{PID: pid, Data: smallUpdate(pid, batchPage(pid, 0, size), 100)})
		}
	}
	// Same pid twice: a staged base page followed by a small update that
	// must diff against the staged (still unprogrammed) image.
	reb := batchPage(3, 77, size)
	batch = append(batch, ftl.PageWrite{PID: 3, Data: reb})
	batch = append(batch, ftl.PageWrite{PID: 3, Data: smallUpdate(3, reb, 60)})
	// A rewrite byte-identical to the current base: a no-op reflection.
	batch = append(batch, ftl.PageWrite{PID: 5, Data: batchPage(5, 0, size)})
	return batch
}

// failDev wraps a real device and, until it has fired once, fails the
// next ProgramBatch, applying nothing. With failProgram set the next single
// Program fails the same way; with failRead set the next single page read
// after skipReads more fails instead. All other operations pass through.
type failDev struct {
	flash.Device
	fired       bool
	failProgram bool
	failRead    bool
	skipReads   int
}

var errInjectedKill = errors.New("injected device failure")

func (d *failDev) ProgramBatch(batch []flash.PageProgram) error {
	if !d.fired {
		d.fired = true
		return errInjectedKill
	}
	return d.Device.ProgramBatch(batch)
}

func (d *failDev) Program(ppn flash.PPN, data, spare []byte) error {
	if d.failProgram && !d.fired {
		d.fired = true
		return errInjectedKill
	}
	return d.Device.Program(ppn, data, spare)
}

func (d *failDev) Read(ppn flash.PPN, data, spare []byte) error {
	if d.failRead && !d.fired {
		if d.skipReads > 0 {
			d.skipReads--
			return d.Device.Read(ppn, data, spare)
		}
		d.fired = true
		return errInjectedKill
	}
	return d.Device.Read(ppn, data, spare)
}

// TestFlushBatchesShards pins the batched Flush: dirtying several shards
// and flushing issues exactly one device batch carrying one differential
// page per non-empty shard.
func TestFlushBatchesShards(t *testing.T) {
	chip := flash.NewChip(batchParams())
	s, err := New(chip, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	loadBatchPages(t, s)
	telBefore := s.Telemetry()
	// Small updates across enough pids to touch several shards.
	touched := make(map[int]bool)
	for pid := uint32(0); pid < 12; pid++ {
		data := batchPage(pid, 0, size)
		data[17] ^= 0xFF
		if err := s.WritePage(pid, data); err != nil {
			t.Fatal(err)
		}
		touched[s.shardIndex(pid)] = true
	}
	if len(touched) < 2 {
		t.Fatalf("scenario touched %d shards; want >= 2", len(touched))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tel := s.Telemetry()
	if got := tel.BatchWrites - telBefore.BatchWrites; got != 1 {
		t.Errorf("Flush issued %d device batches, want 1", got)
	}
	if got := tel.BatchedPages - telBefore.BatchedPages; got != int64(len(touched)) {
		t.Errorf("Flush batched %d pages, want %d (one differential page per dirty shard)", got, len(touched))
	}
	if got := tel.BufferFlushes - telBefore.BufferFlushes; got != int64(len(touched)) {
		t.Errorf("BufferFlushes grew by %d, want %d", got, len(touched))
	}
}

// TestWriteBatchContendedPidRecoversLikeLive guards the time-stamp
// reservation order: WriteBatch must reserve its TS range only after the
// involved shard locks are held, so a concurrent WritePage to the same
// pid that commits first also stamps first. If reservation happened
// early, the live store (last commit wins) and crash recovery (highest
// TS wins) could disagree about which writer owns a page. The race is
// scheduling-dependent, so many rounds run; live contents read after the
// dust settles must always equal the recovered contents after a flush.
func TestWriteBatchContendedPidRecoversLikeLive(t *testing.T) {
	const rounds = 40
	size := batchParams().DataSize
	pids := []uint32{2, 9, 11, 23}
	for r := 0; r < rounds; r++ {
		chip := flash.NewChip(batchParams())
		s, err := New(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		loadBatchPages(t, s)
		var wg sync.WaitGroup
		var errB, errW error
		wg.Add(2)
		go func() {
			defer wg.Done()
			batch := make([]ftl.PageWrite, len(pids))
			for i, pid := range pids {
				batch[i] = ftl.PageWrite{PID: pid, Data: batchPage(pid, 1000+r, size)}
			}
			errB = s.WriteBatch(batch)
		}()
		go func() {
			defer wg.Done()
			for _, pid := range pids {
				if errW = s.WritePage(pid, batchPage(pid, 2000+r, size)); errW != nil {
					return
				}
			}
		}()
		wg.Wait()
		if errB != nil || errW != nil {
			t.Fatalf("round %d: batch err %v, write err %v", r, errB, errW)
		}
		live, _ := pagesOf(s)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := pagesOf(rec); !slices.EqualFunc(live, got, bytes.Equal) {
			t.Fatalf("round %d: recovery disagrees with the live store about a contended pid", r)
		}
	}
}

// TestFailedWriteBatchAppliesNothing guards the failure contract every
// write entry shares: a failed call applies nothing. WriteBatch, which a
// single WritePage is one of, puts the saved bytes of each shard buffer it
// staged on back when its commit lands nothing, and Flush clears a buffer
// only after its spill lands, so no call loses the pids' pre-call buffered
// differentials — every slab is byte-equal to its pre-image, every page still
// reads its pre-call state, and the call can simply be retried.
func TestFailedWriteBatchAppliesNothing(t *testing.T) {
	size := batchParams().DataSize
	rewrite7 := batchPage(7, 9, size)
	// smallUpdate writes pid with one more byte flipped.
	smallUpdate := func(s *Store, shadow [][]byte, pid uint32) error {
		data := append([]byte(nil), shadow[pid]...)
		data[40] ^= 0xFF
		if err := s.WritePage(pid, data); err != nil {
			return err
		}
		shadow[pid] = data
		return nil
	}
	type slabs [][]byte
	slabsOf := func(s *Store) slabs {
		out := make(slabs, len(s.shards))
		for i := range s.shards {
			out[i] = bytes.Clone(s.shards[i].dwb.slab)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		// call makes the write under test; shadow is the expected content,
		// which call extends by the writes it got acknowledged on the way. A
		// call of several writes takes *pre anew before each.
		call func(s *Store, shadow [][]byte, pre *slabs) error
		// failRead: the injected failure is the next page read, not the next
		// program (a Case 1 write programs nothing: its base page read is all
		// that can fail).
		failRead bool
		// rotBase7: pid 7's base page has an uncorrectable sector, which the
		// write heals by overwrite and no read can serve until it has.
		rotBase7 bool
	}{
		{name: "WritePage/Case1", failRead: true, call: func(s *Store, shadow [][]byte, _ *slabs) error {
			// A write to the shard buffer that holds pid 7's differential.
			pid := uint32(8)
			for s.shardIndex(pid) != s.shardIndex(7) {
				pid++
			}
			return smallUpdate(s, shadow, pid)
		}},
		{name: "WritePage/Case3", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.WritePage(7, rewrite7) }},
		{name: "WritePage/Case2", call: func(s *Store, shadow [][]byte, pre *slabs) error {
			// Small updates are buffered (no program), each pass growing
			// every page's buffered differential, until one no longer fits
			// its shard's buffer and spills it: that write fails.
			for pass := 0; pass < 4; pass++ {
				for pid := range shadow {
					if pid == 7 {
						continue
					}
					data := append([]byte(nil), shadow[pid]...)
					for i := 0; i < 16; i++ {
						data[32+64*pass+i] ^= 0xFF
					}
					*pre = slabsOf(s)
					if err := s.WritePage(uint32(pid), data); err != nil {
						return err
					}
					shadow[pid] = data
				}
			}
			return nil
		}},
		{name: "WritePage/HealByOverwrite", rotBase7: true, call: func(s *Store, shadow [][]byte, _ *slabs) error {
			return smallUpdate(s, shadow, 7)
		}},
		{name: "WriteBatch/1", call: func(s *Store, _ [][]byte, _ *slabs) error {
			return s.WriteBatch([]ftl.PageWrite{{PID: 7, Data: rewrite7}})
		}},
		{name: "WriteBatch/n", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.WriteBatch(buildTestBatch(size)) }},
		{name: "Flush", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := faultdev.Wrap(flash.NewChip(batchParams()))
			dev := &failDev{Device: fd, fired: true, failProgram: !tc.failRead, failRead: tc.failRead} // disarmed
			s, err := New(dev, batchNumPages, batchOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			pre := loadBatchPages(t, s)

			// A pre-call buffered differential that the call removes,
			// replaces or sweeps to flash.
			pre[7] = append([]byte(nil), pre[7]...)
			pre[7][3] ^= 0xFF
			if err := s.WritePage(7, pre[7]); err != nil {
				t.Fatal(err)
			}
			if tc.rotBase7 {
				fd.Inject(faultdev.Fault{PPN: entryOf(s, 7).base, Kind: faultdev.SectorCorrupt, Off: 256})
			}
			want := slabsOf(s)
			dev.fired = false // arm
			if err := tc.call(s, pre, &want); !errors.Is(err, errInjectedKill) {
				t.Fatalf("err = %v, want the injected device failure", err)
			}
			for i, got := range slabsOf(s) {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("shard %d: the failed call left its write buffer changed:\n got %x\nwant %x", i, got, want[i])
				}
				if n := len(diff.DecodeAll(got)); n != len(s.shards[i].dwb.index) {
					t.Errorf("shard %d: %d records in the slab, %d in the index", i, n, len(s.shards[i].dwb.index))
				}
			}
			buf := make([]byte, size)
			for pid := 0; pid < batchNumPages; pid++ {
				if tc.rotBase7 && pid == 7 {
					continue // unreadable until the retry heals it
				}
				if err := s.ReadPage(uint32(pid), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, pre[pid]) {
					t.Fatalf("pid %d: failed call left a visible change", pid)
				}
			}
			// The retry applies the whole call.
			if err := tc.call(s, pre, &want); err != nil {
				t.Fatalf("retry: %v", err)
			}
			for pid := 0; pid < batchNumPages; pid++ {
				if err := s.ReadPage(uint32(pid), buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWriteBatchStagingErrorCommitsShardPrefix guards the other half of the
// failure contract: a staging error — here the base page read of a shard's
// third write — stops that shard at the failing write, while its earlier
// writes and every write of the other shard still commit. The other shard's
// writes are initial loads, which read nothing, so the one failing read is
// the failing shard's whatever order the shards are staged in.
func TestWriteBatchStagingErrorCommitsShardPrefix(t *testing.T) {
	const numPages = batchNumPages + 16
	opts := batchOptions(false)
	// Cache off: every Case 1 write reads its base page.
	opts.DiffCachePages = DiffCacheOff
	dev := &failDev{Device: flash.NewChip(batchParams()), fired: true, failRead: true} // disarmed
	s, err := New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	shadow := loadBatchPages(t, s)

	// Four loaded pids of the failing shard, two never-written pids of another.
	failing, other := s.shardIndex(0), -1
	var fpids, opids []uint32
	for pid := uint32(0); pid < numPages; pid++ {
		switch si := s.shardIndex(pid); {
		case si == failing && pid < batchNumPages && len(fpids) < 4:
			fpids = append(fpids, pid)
		case si != failing && pid >= batchNumPages && len(opids) < 2 && (other < 0 || si == other):
			other = si
			opids = append(opids, pid)
		}
	}
	if len(fpids) < 4 || len(opids) < 2 {
		t.Fatalf("scenario needs 4 loaded pids of shard %d and 2 free pids of another: %v %v", failing, fpids, opids)
	}
	want := make(map[uint32][]byte)
	update := func(pid uint32) ftl.PageWrite {
		data := batchPage(pid, 0, size)
		data[40] ^= 0xFF // a Case 1 differential: buffered, no program
		want[pid] = data
		return ftl.PageWrite{PID: pid, Data: data}
	}
	load := func(pid uint32) ftl.PageWrite {
		want[pid] = batchPage(pid, 1, size)
		return ftl.PageWrite{PID: pid, Data: want[pid]}
	}
	batch := []ftl.PageWrite{update(fpids[0]), load(opids[0]), update(fpids[1]), load(opids[1]), update(fpids[2]), update(fpids[3])}

	dev.skipReads, dev.fired = 2, false // the failing shard's third base page read
	if err := s.WriteBatch(batch); !errors.Is(err, errInjectedKill) {
		t.Fatalf("err = %v, want the injected read failure", err)
	}
	buf := make([]byte, size)
	check := func(pid uint32, exp []byte, what string) {
		t.Helper()
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, exp) {
			t.Errorf("pid %d (%s) does not read back its expected image", pid, what)
		}
	}
	for _, pid := range opids {
		check(pid, want[pid], "other shard, written")
	}
	for _, pid := range fpids[:2] {
		check(pid, want[pid], "failing shard, before the failure")
	}
	for _, pid := range fpids[2:] {
		check(pid, shadow[pid], "failing shard, from the failure on")
	}
}

// TestCommitFallsOverToNeighbourChannel drives the ErrNoSpace retry of
// commit directly: on a small 2-channel device whose one shard is homed on
// channel 0, loading fresh pages fills channel 0 with fully live blocks —
// nothing to reclaim, although channel 1 still has room. A single
// WritePage and then a WriteBatch must both land on the neighbour, each
// counted once in Telemetry.ChannelFallOvers. While the channels hold as
// many erased blocks as each other no write is diverted before it is
// tried, so a rise in the counter there is the retry.
func TestCommitFallsOverToNeighbourChannel(t *testing.T) {
	p := ftltest.SmallParams(3)
	p.PagesPerBlock = 4
	dev, err := flash.NewStriped(flash.NewChip(p), flash.NewChip(p))
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 16 // what 2 x 3 blocks of 4 pages hold above the reserve
	s, err := New(dev, numPages, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	alloc := s.Allocator()
	pid := uint32(0)
	for fellOver := false; !fellOver; pid++ {
		if pid == numPages-2 {
			t.Fatal("loaded every page without a channel fall-over")
		}
		level := alloc.FreeBlocksOn(0) == alloc.FreeBlocksOn(1)
		before := s.Telemetry().ChannelFallOvers
		if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
			t.Fatalf("WritePage(%d): %v", pid, err)
		}
		fellOver = level && s.Telemetry().ChannelFallOvers == before+1
	}
	if free0, free1 := alloc.FreeBlocksOn(0), alloc.FreeBlocksOn(1); free0 != free1 {
		t.Fatalf("free blocks %d vs %d: the batch would be diverted before it could fall over", free0, free1)
	}
	batch := []ftl.PageWrite{
		{PID: pid, Data: batchPage(pid, 0, size)},
		{PID: pid + 1, Data: batchPage(pid+1, 0, size)},
	}
	before := s.Telemetry().ChannelFallOvers
	if err := s.WriteBatch(batch); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if got := s.Telemetry().ChannelFallOvers - before; got != 1 {
		t.Fatalf("the WriteBatch added %d to ChannelFallOvers, want 1", got)
	}
	buf := make([]byte, size)
	for q := uint32(0); q < pid+2; q++ {
		if err := s.ReadPage(q, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, batchPage(q, 0, size)) {
			t.Fatalf("pid %d: wrong content after the fall-over", q)
		}
	}
}

// TestChannelFallOversCountDiversions: on a 2-channel device whose one
// shard is homed on channel 0, loading fresh pages brings channel 0 down to
// its reserve of erased blocks while channel 1 has more. From then on commit
// sends each write to channel 1 before trying channel 0, and each such
// write, placed off its home channel, is counted in
// Telemetry.ChannelFallOvers.
func TestChannelFallOversCountDiversions(t *testing.T) {
	p := ftltest.SmallParams(4)
	p.PagesPerBlock = 4
	dev, err := flash.NewStriped(flash.NewChip(p), flash.NewChip(p))
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 16
	s, err := New(dev, numPages, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	alloc := s.Allocator()
	pid := uint32(0)
	for ; alloc.FreeBlocksOn(0) > alloc.ChanReserve(); pid++ {
		if pid == numPages {
			t.Fatal("loaded every page without bringing channel 0 to its reserve")
		}
		if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
			t.Fatalf("WritePage(%d): %v", pid, err)
		}
	}
	if got := s.Telemetry().ChannelFallOvers; got != 0 {
		t.Fatalf("ChannelFallOvers = %d before channel 0 reached its reserve, want 0", got)
	}
	if free1 := alloc.FreeBlocksOn(1); free1 <= alloc.ChanReserve() {
		t.Fatalf("channel 1 has %d erased blocks, at or under the reserve of %d", free1, alloc.ChanReserve())
	}
	if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
		t.Fatalf("WritePage(%d): %v", pid, err)
	}
	if got := s.Telemetry().ChannelFallOvers; got != 1 {
		t.Fatalf("ChannelFallOvers = %d after one write diverted off its home channel, want 1", got)
	}
	if ch := alloc.ChannelOf(entryOf(s, pid).base); ch != 1 {
		t.Fatalf("the diverted write landed on channel %d, want 1", ch)
	}
	mustReadEqual(t, s, pid, batchPage(pid, 0, size))
}

// TestRefusedCommitRetiresPagesOfLowerChannels: a commit across two channels
// allocates channel 0's page first; when channel 1 then has no space and
// nothing to reclaim, the attempt is refused with that page allocated and
// never programmed. It must be counted obsolete, or victim selection would
// see a live page in its block until the block is erased for other reasons.
func TestRefusedCommitRetiresPagesOfLowerChannels(t *testing.T) {
	p := ftltest.SmallParams(3)
	p.PagesPerBlock = 4
	dev, err := flash.NewStriped(flash.NewChip(p), flash.NewChip(p))
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 20
	s, err := New(dev, numPages, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	var byShard [2][]uint32
	for pid := uint32(0); pid < numPages; pid++ {
		si := s.shardIndex(pid)
		byShard[si] = append(byShard[si], pid)
	}
	// Shard 0 is homed on channel 0, shard 1 on channel 1. Channel 1 gets two
	// full blocks of live pages: at its reserve, nothing to reclaim. Channel 0
	// opens its second block, so it sits at its reserve too (no diversion
	// before the locks are taken) with room in the open block.
	const on0, on1 = 5, 8
	if len(byShard[0]) < on0+1 || len(byShard[1]) < on1+1 {
		t.Fatalf("shards hold %d and %d pids, need %d and %d", len(byShard[0]), len(byShard[1]), on0+1, on1+1)
	}
	written := 0
	load := func(pids []uint32) {
		t.Helper()
		for _, pid := range pids {
			if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
				t.Fatalf("WritePage(%d): %v", pid, err)
			}
			written++
		}
	}
	load(byShard[0][:on0])
	load(byShard[1][:on1])
	alloc := s.Allocator()
	if got := s.Telemetry().ChannelFallOvers; got != 0 || alloc.FreeBlocksOn(0) != alloc.FreeBlocksOn(1) {
		t.Fatalf("set-up: %d fall-overs, free blocks %d and %d", got, alloc.FreeBlocksOn(0), alloc.FreeBlocksOn(1))
	}
	a, b := byShard[0][on0], byShard[1][on1]
	if err := s.WriteBatch([]ftl.PageWrite{{PID: a, Data: batchPage(a, 0, size)}, {PID: b, Data: batchPage(b, 0, size)}}); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	written += 2
	if got := s.Telemetry().ChannelFallOvers; got != 1 {
		t.Fatalf("ChannelFallOvers = %d, want 1", got)
	}
	if ca, cb := alloc.ChannelOf(entryOf(s, a).base), alloc.ChannelOf(entryOf(s, b).base); ca != 0 || cb != 0 {
		t.Fatalf("the batch landed on channels %d and %d, want both on 0", ca, cb)
	}
	// Every page handed out is either one of the store's base pages or
	// counted obsolete: the refused attempt's page is the one obsolete page.
	var handedOut, obsolete int
	for blk := 0; blk < dev.Params().NumBlocks; blk++ {
		bs := alloc.BlockStats(blk)
		handedOut += bs.Written
		obsolete += bs.Obsolete
	}
	if handedOut != written+1 || obsolete != 1 {
		t.Errorf("allocator handed out %d pages and counts %d obsolete; want %d and 1 (%d base pages and the refused attempt's)",
			handedOut, obsolete, written+1, written)
	}
	buf := make([]byte, size)
	for _, pid := range append(append([]uint32{a, b}, byShard[0][:on0]...), byShard[1][:on1]...) {
		if err := s.ReadPage(pid, buf); err != nil || !bytes.Equal(buf, batchPage(pid, 0, size)) {
			t.Fatalf("pid %d after the fall-over: err=%v", pid, err)
		}
	}
}
