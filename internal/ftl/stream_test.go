package ftl

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pdl/internal/flash"
)

// streamModel drives an allocator the way a page-differential store does:
// foreground batches of base and differential pages, pages dying at
// random, and a relocator that moves the victim's live pages through
// AllocGC. It remembers the kind of every live page and checks each page
// the allocator hands out.
type streamModel struct {
	t    *testing.T
	a    *Allocator
	p    flash.Params
	kind map[flash.PPN]Stream // live pages: StreamDiff a differential page, else a base page (StreamCold: asked for the cold stream)
}

func newStreamModel(t *testing.T, a *Allocator) *streamModel {
	m := &streamModel{t: t, a: a, p: a.params, kind: map[flash.PPN]Stream{}}
	a.SetRelocator(func(victim int) error {
		ch := a.ChannelOfBlock(victim)
		for i := 0; i < m.p.PagesPerBlock; i++ {
			src := m.p.PPNOf(victim, i)
			k, live := m.kind[src]
			if !live {
				continue
			}
			dst, err := a.AllocGC(ch)
			if err != nil {
				return err
			}
			delete(m.kind, src)
			m.note(dst, k)
		}
		return nil
	})
	return m
}

// note records a handed-out page and checks the block it landed in: a
// block of the differential stream holds differential pages only.
func (m *streamModel) note(ppn flash.PPN, k Stream) {
	m.t.Helper()
	if _, dup := m.kind[ppn]; dup {
		m.t.Fatalf("ppn %d handed out while live", ppn)
	}
	if bs := m.a.BlockStats(m.p.BlockOf(ppn)); bs.Stream == StreamDiff && k != StreamDiff {
		m.t.Fatalf("base page %d landed in block %d of the differential stream", ppn, m.p.BlockOf(ppn))
	}
	m.kind[ppn] = k
}

func (m *streamModel) kill(ppn flash.PPN) {
	delete(m.kind, ppn)
	m.a.NoteObsolete(ppn)
}

func TestDiffStreamBlocksHoldOnlyDifferentialPages(t *testing.T) {
	for _, nchan := range []int{1, 2} {
		var a *Allocator
		if nchan == 1 {
			a = NewChannelAllocator(smallChip(32), 2)
		} else {
			_, a = stripedChip(t, nchan, 32, 2*nchan)
		}
		m := newStreamModel(t, a)
		rng := rand.New(rand.NewSource(int64(nchan)))
		live := 0
		for round := 0; round < 4000; round++ {
			ch := rng.Intn(nchan)
			if !a.StreamsOn(ch) {
				t.Fatalf("channel %d of 32 blocks does not run the streams", ch)
			}
			kinds := make([]Stream, 1+rng.Intn(12))
			for i := range kinds {
				switch rng.Intn(6) {
				case 0, 1:
					kinds[i] = StreamDiff
				case 2:
					kinds[i] = StreamCold // a base page expected to live long
				}
			}
			ppns, _, err := a.AllocBatchOn(ch, kinds)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if got := a.FreeBlocksOn(ch); got < a.ChanReserve() {
				t.Fatalf("round %d: %d erased blocks on channel %d, reserve %d", round, got, ch, a.ChanReserve())
			}
			for i, ppn := range ppns {
				if want := a.BlockStats(m.p.BlockOf(ppn)).Stream; want != kinds[i] {
					t.Fatalf("round %d: page of stream %d came from a block of stream %d", round, kinds[i], want)
				}
				m.note(ppn, kinds[i])
			}
			live += len(ppns)
			// Keep the chip about half valid; differential pages die young.
			for ppn, k := range m.kind {
				if live <= nchan*32*m.p.PagesPerBlock/2 {
					break
				}
				if k == StreamDiff || rng.Intn(4) == 0 {
					m.kill(ppn)
					live--
				}
			}
		}
		for ch := 0; ch < nchan; ch++ {
			// Foreground cold pages are not migrations: the cold stream's
			// count stays within the relocations.
			if st := a.ChannelGC(ch); st.Runs == 0 || st.DiffStreamPages == 0 || st.ColdMigrations > st.PagesMoved {
				t.Errorf("channel %d: %+v, want collections, differential-stream pages, cold migrations <= pages moved", ch, st)
			}
		}
	}
}

func TestBatchRollingBothStreamsKeepsReserve(t *testing.T) {
	a := NewChannelAllocator(smallChip(16), 2)
	m := newStreamModel(t, a)
	ppb := m.p.PagesPerBlock
	batch := func(hot, dif int) ([]flash.PPN, int) {
		t.Helper()
		kinds := slices.Repeat([]Stream{StreamHot}, hot)
		kinds = append(kinds, slices.Repeat([]Stream{StreamDiff}, dif)...)
		ppns, collected, err := a.AllocBatchOn(0, kinds)
		if err != nil {
			t.Fatal(err)
		}
		for i, ppn := range ppns {
			m.note(ppn, kinds[i])
		}
		return ppns, collected
	}
	// Leave one page in the hot and in the differential block, then fill
	// hot blocks, every page dead, down to the reserve floor.
	batch(ppb-1, ppb-1)
	for a.FreeBlocksOn(0) > a.ChanReserve() {
		ppns, collected := batch(ppb, 0)
		if collected != 0 {
			t.Fatal("collected above the reserve floor")
		}
		for _, ppn := range ppns {
			m.kill(ppn)
		}
	}
	// Two pages of each kind roll both streams over: the allocator must
	// free two blocks first, not one, and not find out at the second roll.
	ppns, collected := batch(2, 2)
	if collected != 2 {
		t.Errorf("collected %d blocks before the batch, want 2", collected)
	}
	if got := a.FreeBlocksOn(0); got != a.ChanReserve() {
		t.Errorf("%d erased blocks after the batch, want the reserve %d", got, a.ChanReserve())
	}
	hotBlk, difBlk := m.p.BlockOf(ppns[1]), m.p.BlockOf(ppns[3])
	if hotBlk == difBlk || a.BlockStats(hotBlk).Stream != StreamHot || a.BlockStats(difBlk).Stream != StreamDiff {
		t.Errorf("rolled into blocks %d (stream %d) and %d (stream %d)", hotBlk,
			a.BlockStats(hotBlk).Stream, difBlk, a.BlockStats(difBlk).Stream)
	}
}

// TestSmallChannelsAllocateAsOneStream: on a channel too small to run the
// streams the kinds change nothing. Every page comes from the
// hot append point in request order, collections included, exactly as
// when all of them are base pages.
func TestSmallChannelsAllocateAsOneStream(t *testing.T) {
	build := func() []*Allocator {
		_, striped := stripedChip(t, 2, 3, 2)
		return []*Allocator{NewChannelAllocator(smallChip(3), 1), striped, NewChannelAllocator(smallChip(minStreamBlocks-1), 2)}
	}
	mixed, plain := build(), build()
	for i := range mixed {
		a, b := mixed[i], plain[i]
		a.SetRelocator(func(int) error { return nil })
		b.SetRelocator(func(int) error { return nil })
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 200; round++ {
			ch := rng.Intn(a.Channels())
			if a.StreamsOn(ch) {
				t.Fatalf("allocator %d runs the streams on a channel of %d blocks", i, len(a.chans[ch].blocks))
			}
			kinds := make([]Stream, 1+rng.Intn(5))
			for k := range kinds {
				kinds[k] = Stream(rng.Intn(int(numStreams)))
			}
			got, gotGC, err := a.AllocBatchOn(ch, kinds)
			if err != nil {
				t.Fatalf("allocator %d round %d: %v", i, round, err)
			}
			want, wantGC, err := b.AllocBatchOn(ch, make([]Stream, len(kinds)))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || gotGC != wantGC {
				t.Fatalf("allocator %d round %d: pages %v after %d collections, want %v after %d",
					i, round, got, gotGC, want, wantGC)
			}
			for _, ppn := range got { // everything dies: the next rollover finds a victim
				a.NoteObsolete(ppn)
				b.NoteObsolete(ppn)
			}
		}
		if st := a.ChannelGC(0); st.DiffStreamPages != 0 {
			t.Errorf("allocator %d: %d differential-stream pages on a channel without the stream", i, st.DiffStreamPages)
		}
	}
}

func TestFreePagesCountsEveryOpenTail(t *testing.T) {
	a := NewChannelAllocator(smallChip(16), 2)
	total := a.FreePages()
	if _, _, err := a.AllocBatchOn(0, []Stream{StreamHot, StreamDiff, StreamDiff}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocGC(0); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBlocksOn(0); got != 13 {
		t.Fatalf("%d erased blocks, want 13 (three open)", got)
	}
	if got := a.FreePages(); got != total-4 {
		t.Errorf("FreePages = %d with three open blocks, want %d", got, total-4)
	}
}

func TestNoVictimRetiresOpenSecondaryBlocks(t *testing.T) {
	a := NewChannelAllocator(smallChip(16), 1)
	a.SetRelocator(func(int) error { return nil })
	// An open differential block with one dead page and an open cold block
	// with none; every hot page stays valid.
	dif, _, err := a.AllocBatchOn(0, []Stream{StreamDiff, StreamDiff})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := a.AllocGC(0)
	if err != nil {
		t.Fatal(err)
	}
	a.NoteObsolete(dif[0])
	difBlk, coldBlk := a.params.BlockOf(dif[0]), a.params.BlockOf(cold)
	// 13 blocks of valid hot pages bring the free list to the reserve; the
	// next rollover finds no full block with garbage.
	for i := 0; i < 13*a.params.PagesPerBlock; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if a.GCRuns() != 0 || !a.BlockStats(difBlk).Active {
		t.Fatalf("before the floor: %d collections, differential block %+v", a.GCRuns(), a.BlockStats(difBlk))
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatalf("alloc at the floor = %v, want the open differential block collected", err)
	}
	if a.GCRuns() != 1 || a.dev.EraseCount(difBlk) != 1 {
		t.Errorf("collections = %d, erases of block %d = %d, want 1 and 1", a.GCRuns(), difBlk, a.dev.EraseCount(difBlk))
	}
	// The cold block holds no garbage: closing it would strand its tail for
	// nothing, so it stays open and the chip is simply full.
	for err == nil {
		_, err = a.Alloc()
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if !a.BlockStats(coldBlk).Active {
		t.Errorf("cold block %d without garbage was closed: %+v", coldBlk, a.BlockStats(coldBlk))
	}
}

// TestBackgroundScanLeavesOpenSecondaryBlocks: the background engine's
// CollectOnceOn, which nothing waits on, reports an empty victim scan as
// "nothing to collect" and does not close the partly filled differential
// block for its garbage; only an allocation at the floor does
// (TestNoVictimRetiresOpenSecondaryBlocks).
func TestBackgroundScanLeavesOpenSecondaryBlocks(t *testing.T) {
	a := NewChannelAllocator(smallChip(16), 1)
	a.SetRelocator(func(int) error { return nil })
	dif, _, err := a.AllocBatchOn(0, []Stream{StreamDiff, StreamDiff, StreamHot})
	if err != nil {
		t.Fatal(err)
	}
	a.NoteObsolete(dif[0])
	difBlk := a.params.BlockOf(dif[0])
	free := a.FreePages()
	collected, err := a.CollectOnceOn(0)
	if collected || err != nil {
		t.Fatalf("CollectOnceOn = %v, %v with no full block, want false, nil", collected, err)
	}
	if !a.BlockStats(difBlk).Active || a.FreePages() != free {
		t.Errorf("empty background scan closed the open differential block: %+v, FreePages %d -> %d",
			a.BlockStats(difBlk), free, a.FreePages())
	}
	next, _, err := a.AllocBatchOn(0, []Stream{StreamDiff})
	if err != nil || a.params.BlockOf(next[0]) != difBlk {
		t.Errorf("next differential page = %v, %v, want one of block %d", next, err, difBlk)
	}
}

// TestForegroundColdPagesAreReservedFor: a foreground page asked of the cold
// stream is first-class like a differential page: at the reserve floor the
// batch collects for the cold block's rollover first and the page lands in a
// cold block, where a relocation nobody reserved for rides the hot stream.
func TestForegroundColdPagesAreReservedFor(t *testing.T) {
	a := NewChannelAllocator(smallChip(16), 2)
	m := newStreamModel(t, a)
	for a.FreeBlocksOn(0) > a.ChanReserve() {
		ppns, _, err := a.AllocBatchOn(0, make([]Stream, m.p.PagesPerBlock))
		if err != nil {
			t.Fatal(err)
		}
		for _, ppn := range ppns {
			m.a.NoteObsolete(ppn)
		}
	}
	// Roll the hot block over first (one collection), so the relocation
	// below has a hot tail to ride.
	if _, _, err := a.AllocBatchOn(0, []Stream{StreamHot}); err != nil {
		t.Fatal(err)
	}
	reloc, err := a.AllocGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.BlockStats(m.p.BlockOf(reloc)).Stream; got != StreamHot {
		t.Fatalf("relocation at the reserve floor landed in a block of stream %d, want the hot stream", got)
	}
	ppns, collected, err := a.AllocBatchOn(0, []Stream{StreamCold})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.BlockStats(m.p.BlockOf(ppns[0])).Stream; collected != 1 || got != StreamCold {
		t.Errorf("cold page after %d collections in a block of stream %d, want 1 collection and the cold stream", collected, got)
	}
	if got := a.FreeBlocksOn(0); got != a.ChanReserve() {
		t.Errorf("%d erased blocks after the batch, want the reserve %d", got, a.ChanReserve())
	}
	if st := a.ChannelGC(0); st.ColdMigrations != 0 {
		t.Errorf("ColdMigrations = %d, want 0: no relocation reached a cold block", st.ColdMigrations)
	}
}
