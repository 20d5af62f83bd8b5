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
			seq := a.SeqOf(blk)
			if seq <= lastSeq {
				t.Errorf("block %d seq %d not greater than previous %d", blk, seq, lastSeq)
			}
			lastSeq = seq
		}
	}
}

func TestAdoptSeqRaisesCounter(t *testing.T) {
	c := smallChip(4)
	a := NewAllocator(c, 1)
	a.AdoptSeq(2, 100)
	if a.SeqOf(2) != 100 {
		t.Errorf("SeqOf(2) = %d", a.SeqOf(2))
	}
	// The next activation must exceed the adopted counter.
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	active := -1
	for b := 0; b < 4; b++ {
		if a.BlockStats(b).Active {
			active = b
		}
	}
	if active < 0 {
		t.Fatal("no active block")
	}
	if a.SeqOf(active) <= 100 {
		t.Errorf("new activation seq %d not above adopted 100", a.SeqOf(active))
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

func TestMinVictimRounds(t *testing.T) {
	c := smallChip(3)
	a := NewAllocator(c, 1)
	a.SetRelocator(func(int) error { return nil })
	if a.MinVictimRounds() != 0 {
		t.Errorf("MinVictimRounds on fresh allocator = %d", a.MinVictimRounds())
	}
	data := make([]byte, c.Params().DataSize)
	for i := 0; i < 600; i++ {
		ppn, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Program(ppn, data, nil)
		_ = a.MarkObsolete(ppn)
	}
	// After heavy uniform churn every block should have been collected at
	// least once... except blocks never leaving reserve; assert only the
	// non-negative invariant and that it does not exceed the mean.
	min := a.MinVictimRounds()
	if float64(min) > a.MeanVictimRounds() {
		t.Errorf("min %d exceeds mean %.2f", min, a.MeanVictimRounds())
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
