package ftl

import (
	"errors"
	"testing"

	"pdl/internal/flash"
)

// stripedChip builds a striped device of nchan emulator chips with
// blocksPerChan blocks each, plus a channel-aware allocator over it.
func stripedChip(t *testing.T, nchan, blocksPerChan, reserve int) (*flash.Striped, *Allocator) {
	t.Helper()
	p := flash.DefaultParams()
	p.NumBlocks = blocksPerChan
	p.PagesPerBlock = 8
	p.DataSize = 64
	p.SpareSize = 32
	subs := make([]flash.Device, nchan)
	for i := range subs {
		subs[i] = flash.NewChip(p)
	}
	dev, err := flash.NewStriped(subs...)
	if err != nil {
		t.Fatal(err)
	}
	return dev, NewChannelAllocator(dev, reserve)
}

func TestChannelAllocatorDetectsChannels(t *testing.T) {
	_, a := stripedChip(t, 4, 4, 2)
	if a.Channels() != 4 {
		t.Fatalf("Channels = %d, want 4", a.Channels())
	}
	// Global reserve 2 split across 4 channels floors at 1 per channel.
	if a.ChanReserve() != 1 {
		t.Errorf("ChanReserve = %d, want 1", a.ChanReserve())
	}
	// Plain chip: one channel, reserve untouched.
	b := NewChannelAllocator(smallChip(8), 2)
	if b.Channels() != 1 || b.ChanReserve() != 2 {
		t.Errorf("plain chip: Channels=%d ChanReserve=%d, want 1 and 2", b.Channels(), b.ChanReserve())
	}
}

func TestChannelAllocatorStreamsStayOnChannel(t *testing.T) {
	dev, a := stripedChip(t, 4, 4, 2)
	p := dev.Params()
	// Each channel's allocations must come from that channel's blocks
	// (global block % 4 == channel).
	for ch := 0; ch < 4; ch++ {
		for i := 0; i < 2*p.PagesPerBlock; i++ {
			ppn, err := a.AllocOn(ch)
			if err != nil {
				t.Fatalf("channel %d alloc %d: %v", ch, i, err)
			}
			if got := a.ChannelOf(ppn); got != ch {
				t.Fatalf("channel %d alloc %d: ppn %d lives on channel %d", ch, i, ppn, got)
			}
		}
	}
}

func TestDeferredObsoleteCrossChannel(t *testing.T) {
	dev, a := stripedChip(t, 2, 4, 2)
	p := dev.Params()
	// Allocate and program a page on channel 0.
	ppn, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Program(ppn, make([]byte, p.DataSize), EncodeHeader(Header{Type: TypeData, PID: 1, TS: 1}, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	blk := p.BlockOf(ppn)

	// Mark it obsolete while holding CHANNEL 1's serialization: the mark
	// must be deferred (queued), not applied.
	a.NoteObsoleteFrom(ppn, 1)
	if got := a.PendingObsolete(0); got != 1 {
		t.Fatalf("PendingObsolete(0) = %d, want 1", got)
	}
	if bs := a.BlockStats(blk); bs.Obsolete != 0 {
		t.Fatalf("obsolete count applied eagerly: %+v", bs)
	}

	// Any allocator entry on channel 0 drains the queue.
	if _, err := a.AllocOn(0); err != nil {
		t.Fatal(err)
	}
	if got := a.PendingObsolete(0); got != 0 {
		t.Fatalf("PendingObsolete(0) after drain = %d, want 0", got)
	}
	if bs := a.BlockStats(blk); bs.Obsolete != 1 {
		t.Fatalf("obsolete count not applied at drain: %+v", bs)
	}

	// A mark from the OWNING channel's serialization applies directly.
	ppn2, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Program(ppn2, make([]byte, p.DataSize), EncodeHeader(Header{Type: TypeData, PID: 2, TS: 2}, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	a.NoteObsoleteFrom(ppn2, 0)
	if got := a.PendingObsolete(0); got != 0 {
		t.Fatalf("same-channel mark queued: PendingObsolete(0) = %d", got)
	}
}

// TestDeferredObsoleteDroppedAfterErase queues cross-channel notes, an
// obsolete page and dead bytes, against a block between the entry drain of the
// AllocOn that collects it and its erase, and lets that same AllocOn
// reactivate the block: the next drain finds the block active again, so only
// its activation sequence tells the notes' page from the reborn block's.
func TestDeferredObsoleteDroppedAfterErase(t *testing.T) {
	dev, a := stripedChip(t, 2, 4, 2)
	p := dev.Params()

	// Fill three of channel 0's four blocks: the free list is then at the
	// reserve floor, and the next AllocOn collects before it takes a page.
	var pages []flash.PPN
	for i := 0; i < 3*p.PagesPerBlock; i++ {
		ppn, err := a.AllocOn(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Program(ppn, make([]byte, p.DataSize), EncodeHeader(Header{Type: TypeData, PID: uint32(i), TS: uint64(i + 1)}, p.SpareSize)); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, ppn)
	}
	victim, live := p.BlockOf(pages[0]), pages[3]
	for _, ppn := range pages[:p.PagesPerBlock] {
		if ppn != live {
			a.NoteObsoleteFrom(ppn, 0)
		}
	}
	// The relocator moves nothing; while it runs, a writer holding channel 1
	// supersedes the victim's live page and queues the note.
	a.SetRelocator(func(blk int) error {
		if blk == victim {
			a.NoteDeadFrom(live, 40, 1)
			a.NoteObsoleteFrom(live, 1)
		}
		return nil
	})
	ppn, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOf(ppn) != victim || a.PendingObsolete(0) != 2 {
		t.Fatalf("AllocOn took block %d with %d notes queued, want the reborn victim %d and 2", p.BlockOf(ppn), a.PendingObsolete(0), victim)
	}
	if _, err := a.AllocOn(0); err != nil {
		t.Fatal(err)
	}
	if bs := a.BlockStats(victim); a.PendingObsolete(0) != 0 || bs.Obsolete != 0 || bs.DeadBytes != 0 {
		t.Fatalf("a note from block %d's erased life was charged to the reborn block: %+v", victim, bs)
	}
}

func TestPickChannelFallsOverUnderPressure(t *testing.T) {
	_, a := stripedChip(t, 4, 4, 4) // chanReserve = 1
	// Unpressured: home wins.
	if got := a.PickChannel(2); got != 2 {
		t.Fatalf("PickChannel(2) = %d, want 2 (no pressure)", got)
	}
	// Drain channel 2 to its reserve floor: 4 blocks, reserve 1 — consume
	// blocks until the free list is at the floor.
	for a.FreeBlocksOn(2) > a.ChanReserve() {
		for i := 0; i < 8; i++ {
			if _, err := a.AllocOn(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := a.PickChannel(2); got == 2 {
		t.Errorf("PickChannel(2) stayed home despite pressure (free=%d, reserve=%d)",
			a.FreeBlocksOn(2), a.ChanReserve())
	}
	// Other homes unaffected.
	if got := a.PickChannel(0); got != 0 {
		t.Errorf("PickChannel(0) = %d, want 0", got)
	}
}

func TestAllocGCUsesColdStreamMultiChannel(t *testing.T) {
	dev, a := stripedChip(t, 2, 6, 2)
	p := dev.Params()
	// With free blocks above the reserve, AllocGC must open a dedicated
	// cold block, distinct from the hot active block.
	hot, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := a.AllocGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOf(hot) == p.BlockOf(cold) {
		t.Errorf("cold allocation rode the hot block %d despite spare free blocks", p.BlockOf(hot))
	}
	st := a.ChannelGC(0)
	if st.PagesMoved != 1 || st.ColdMigrations != 1 {
		t.Errorf("ChannelGC(0) = %+v, want PagesMoved=1 ColdMigrations=1", st)
	}

	// Single channel: the same cold stream, for every channel count.
	b := NewChannelAllocator(smallChip(6), 2)
	h2, err := b.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := b.AllocGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.params.BlockOf(h2) == b.params.BlockOf(c2) {
		t.Errorf("single-channel cold allocation rode the hot block %d despite spare free blocks",
			b.params.BlockOf(h2))
	}
	if st := b.ChannelGC(0); st.ColdMigrations != 1 {
		t.Errorf("single-channel cold migrations = %d, want 1", st.ColdMigrations)
	}
	// At the reserve floor nothing is spare: a full cold block is not
	// replaced, and relocation rides the hot stream.
	ppb := b.params.PagesPerBlock
	for b.FreeBlocksOn(0) > b.ChanReserve() {
		if h2, err = b.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < ppb; i++ {
		if _, err := b.AllocGC(0); err != nil {
			t.Fatal(err)
		}
	}
	c3, err := b.AllocGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.params.BlockOf(c3) != b.params.BlockOf(h2) {
		t.Errorf("at the reserve floor relocation went to block %d, want the hot block %d",
			b.params.BlockOf(c3), b.params.BlockOf(h2))
	}
	if st := b.ChannelGC(0); st.ColdMigrations != int64(ppb) || st.PagesMoved != int64(ppb)+1 {
		t.Errorf("ChannelGC(0) = %+v, want ColdMigrations=%d PagesMoved=%d", st, ppb, ppb+1)
	}
}

func TestChannelExhaustionIsPerChannel(t *testing.T) {
	_, a := stripedChip(t, 2, 3, 2) // chanReserve = 1
	a.SetRelocator(func(victim int) error { return nil })
	// Exhaust channel 0 (all pages valid, nothing reclaimable).
	var err error
	for i := 0; i < 3*8+1; i++ {
		if _, err = a.AllocOn(0); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("channel 0: err = %v, want ErrNoSpace", err)
	}
	// Channel 1 is unaffected.
	if _, err := a.AllocOn(1); err != nil {
		t.Errorf("channel 1 alloc failed after channel 0 exhaustion: %v", err)
	}
}

func TestResetGCStatsClearsChannelCounters(t *testing.T) {
	_, a := stripedChip(t, 2, 6, 2)
	if _, err := a.AllocGC(0); err != nil {
		t.Fatal(err)
	}
	if st := a.ChannelGC(0); st.PagesMoved == 0 {
		t.Fatal("no pages moved recorded")
	}
	a.ResetGCStats()
	if st := a.ChannelGC(0); st != (ChannelGCStats{}) {
		t.Errorf("ChannelGC(0) after reset = %+v, want zero", st)
	}
}
