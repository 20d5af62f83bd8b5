package ftl

import (
	"testing"

	"pdl/internal/flash"
)

func TestSeqAssignmentMonotone(t *testing.T) {
	c := smallChip(4)
	a := NewAllocator(c, 1)
	data := make([]byte, c.Params().DataSize)
	var lastSeq uint64
	seen := map[int]bool{}
	for i := 0; i < 3*8; i++ {
		ppn, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Program(ppn, data, nil)
		blk := c.BlockOf(ppn)
		if !seen[blk] {
			seen[blk] = true
			seq := a.seq[blk].Load()
			if seq <= lastSeq {
				t.Errorf("block %d seq %d not greater than previous %d", blk, seq, lastSeq)
			}
			lastSeq = seq
		}
	}
}

func TestAdoptFullBlock(t *testing.T) {
	c := smallChip(4)
	a := NewAllocator(c, 1)
	a.AdoptFullBlock(1)
	for pg := 0; pg < 8; pg++ {
		a.NoteWritten(flash.PPN(8 + pg))
		if pg < 3 {
			a.NoteObsolete(flash.PPN(8 + pg))
		}
	}
	bs := a.BlockStats(1)
	if bs.Free || bs.Written != 8 || bs.Obsolete != 3 {
		t.Errorf("adopted block stats = %+v", bs)
	}
	if a.FreeBlocks() != 3 {
		t.Errorf("FreeBlocks = %d, want 3", a.FreeBlocks())
	}
	// Adopting an already-non-free block is a no-op.
	a.AdoptFullBlock(1)
	if a.FreeBlocks() != 3 {
		t.Errorf("double adopt changed free list")
	}
}

func TestPickVictimPrefersMostObsolete(t *testing.T) {
	c := smallChip(4)
	a := NewAllocator(c, 1)
	data := make([]byte, c.Params().DataSize)
	var pages []flash.PPN
	for i := 0; i < 16; i++ { // fill two blocks
		ppn, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Program(ppn, data, nil); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, ppn)
	}
	// First block: 3 obsolete. Second block: 6 obsolete.
	for _, ppn := range pages[:3] {
		_ = a.MarkObsolete(ppn)
	}
	for _, ppn := range pages[8:14] {
		_ = a.MarkObsolete(ppn)
	}
	// Force both blocks into the full state.
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	want := c.BlockOf(pages[8])
	if got := a.pickVictim(); got != want {
		t.Errorf("pickVictim = %d, want %d (6 obsoletes)", got, want)
	}

	// A block a recovery adopts gives back its erased tail as well as its
	// obsolete pages.
	p := c.Params()
	b := NewAllocator(c, 1)
	adopt := func(blk, written, obsolete int) {
		b.AdoptFullBlock(blk)
		for pg := range written {
			b.NoteWritten(p.PPNOf(blk, pg))
			if pg < obsolete {
				b.NoteObsolete(p.PPNOf(blk, pg))
			}
		}
	}
	adopt(0, 8, 0)
	adopt(1, 5, 0)
	if got := b.pickVictim(); got != 1 {
		t.Errorf("pickVictim = %d, want 1: its 3 erased pages are the only reclaimable ones", got)
	}
	adopt(2, 8, 2)
	if got := b.pickVictim(); got != 1 {
		t.Errorf("pickVictim = %d, want 1: its 3 erased pages beat block 2's 2 obsolete", got)
	}
}

// TestPickVictimCountsDeadBytes holds the victim rule to the dead records of
// live differential pages: every DataSize of a block's dead bytes counts as
// one more reclaimable page, a remainder counts for nothing, a page that goes
// obsolete takes its dead bytes out again, and an erase resets the count.
func TestPickVictimCountsDeadBytes(t *testing.T) {
	c := smallChip(4)
	p := c.Params()
	a := NewAllocator(c, 1)
	adopt := func(blk, obsolete int) {
		a.AdoptFullBlock(blk)
		for pg := range p.PagesPerBlock {
			a.NoteWritten(p.PPNOf(blk, pg))
			if pg < obsolete {
				a.NoteObsolete(p.PPNOf(blk, pg))
			}
		}
	}
	adopt(0, 2)
	adopt(1, 1)
	a.NoteDead(p.PPNOf(1, 3), p.DataSize-1)
	if bs := a.BlockStats(1); bs.DeadBytes != p.DataSize-1 || bs.Reclaimable != 1 {
		t.Fatalf("block 1 with %d dead bytes: %+v, want Reclaimable 1", p.DataSize-1, bs)
	}
	if got := a.pickVictim(); got != 0 {
		t.Errorf("pickVictim = %d, want 0: under a page of dead bytes adds nothing to block 1's one obsolete page", got)
	}
	a.NoteDeadFrom(p.PPNOf(1, 5), 1+p.DataSize, 0)
	if bs := a.BlockStats(1); bs.Reclaimable != 3 {
		t.Fatalf("block 1 with %d dead bytes: %+v, want Reclaimable 3", 2*p.DataSize, bs)
	}
	if got := a.pickVictim(); got != 1 {
		t.Errorf("pickVictim = %d, want 1: two pages of dead bytes beat block 0's two obsolete pages", got)
	}
	// Page 5 goes obsolete and takes its dead bytes with it.
	a.NoteObsoleteFrom(p.PPNOf(1, 5), 0)
	a.NoteDeadFrom(p.PPNOf(1, 5), -(1 + p.DataSize), 0)
	if bs := a.BlockStats(1); bs.DeadBytes != p.DataSize-1 || bs.Reclaimable != 2 {
		t.Fatalf("block 1 after a page went obsolete: %+v, want %d dead bytes and Reclaimable 2", bs, p.DataSize-1)
	}
	if got := a.pickVictim(); got != 0 {
		t.Errorf("pickVictim = %d, want 0, the lower id among two blocks of 2 reclaimable pages", got)
	}
	a.SetRelocator(func(int) error { return nil })
	if err := a.collectOn(0, true); err != nil {
		t.Fatal(err)
	}
	if err := a.collectOn(0, true); err != nil {
		t.Fatal(err)
	}
	if bs := a.BlockStats(1); !bs.Free || bs.DeadBytes != 0 {
		t.Errorf("block 1 after its collection: %+v, want free with no dead bytes", bs)
	}
}

func TestNoteWritten(t *testing.T) {
	c := smallChip(4)
	a := NewAllocator(c, 1)
	a.NoteWritten(flash.PPN(8)) // block 1, page 0
	if a.BlockStats(1).Written != 1 {
		t.Errorf("Written = %d", a.BlockStats(1).Written)
	}
	a.NoteObsolete(flash.PPN(8))
	if a.BlockStats(1).Obsolete != 1 {
		t.Errorf("Obsolete = %d", a.BlockStats(1).Obsolete)
	}
}
