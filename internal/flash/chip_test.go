package flash

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testParams() Params {
	p := DefaultParams()
	p.NumBlocks = 8
	return p
}

func filled(n int, b byte) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{},
		{NumBlocks: -1, PagesPerBlock: 64, DataSize: 2048, SpareSize: 64},
		{NumBlocks: 8, PagesPerBlock: 0, DataSize: 2048, SpareSize: 64},
		{NumBlocks: 8, PagesPerBlock: 64, DataSize: 0, SpareSize: 64},
		{NumBlocks: 8, PagesPerBlock: 64, DataSize: 2048, SpareSize: 0},
		{NumBlocks: 8, PagesPerBlock: 64, DataSize: 2048, SpareSize: 64, ReadMicros: -1},
		{NumBlocks: 8, PagesPerBlock: 64, DataSize: 2048, SpareSize: 64, MaxSparePrograms: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected invalid, got nil", i)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	p := DefaultParams()
	if got := p.PageSize(); got != 2112 {
		t.Errorf("PageSize = %d, want 2112 (Table 1)", got)
	}
	if got := p.BlockSize(); got != 135168 {
		t.Errorf("BlockSize = %d, want 135168 (Table 1)", got)
	}
	if got := p.DataCapacity(); got != int64(32768)*64*2048 {
		t.Errorf("DataCapacity = %d", got)
	}
	if got := ScaledParams(16).NumBlocks; got != 16 {
		t.Errorf("ScaledParams NumBlocks = %d, want 16", got)
	}
}

// residentBytes sums the slab bytes the chip holds.
func (c *Chip) residentBytes() int {
	n := 0
	for i := range c.blocks {
		n += len(c.blocks[i].data) + len(c.blocks[i].spare)
	}
	return n
}

// TestNewChipErased: a fresh chip holds no block storage, and a page of a
// block without storage reads erased data and spare at the cost of Tread.
func TestNewChipErased(t *testing.T) {
	c := NewChip(testParams())
	if n := c.residentBytes(); n != 0 {
		t.Fatalf("fresh chip holds %d slab bytes", n)
	}
	data := make([]byte, c.Params().DataSize)
	spare := make([]byte, c.Params().SpareSize)
	if err := c.Read(0, data, spare); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, filled(len(data), 0xFF)) {
		t.Error("fresh chip data not all-FF")
	}
	if !bytes.Equal(spare, filled(len(spare), 0xFF)) {
		t.Error("fresh chip spare not all-FF")
	}
	if got, want := c.Stats(), (Stats{Reads: 1, TimeMicros: c.Params().ReadMicros}); got != want {
		t.Errorf("stats after one read = %+v, want %+v", got, want)
	}
	if n := c.residentBytes(); n != 0 {
		t.Errorf("a read gave the chip %d slab bytes", n)
	}
}

// TestNewChipAllocsDoNotGrowWithBlocks: NewChip allocates no page storage,
// so its allocation count is one constant at any geometry.
func TestNewChipAllocsDoNotGrowWithBlocks(t *testing.T) {
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(5, func() { NewChip(ScaledParams(blocks)) })
	}
	small, large := allocs(4), allocs(512)
	if small != large || large > 4 {
		t.Fatalf("NewChip allocates %v times at 4 blocks and %v at 512, want one constant of at most 4", small, large)
	}
}

// TestChipHoldsOnlyProgrammedBlocks: the first program of any kind — full,
// torn by a power loss, partial or of the spare, whole or torn — gives its
// own block storage and no other block; a refused program gives none.
func TestChipHoldsOnlyProgrammedBlocks(t *testing.T) {
	p := Params{NumBlocks: 8, PagesPerBlock: 4, DataSize: 512, SpareSize: 16, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1}
	blockBytes := p.PagesPerBlock * (p.DataSize + p.SpareSize)
	zeros, zeroSpare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	c := NewChip(p)
	for blk, tc := range []struct {
		name    string
		torn    bool
		program func(ppn PPN) error
	}{
		{"program", false, func(ppn PPN) error { return c.Program(ppn, zeros, zeroSpare) }},
		{"torn program", true, func(ppn PPN) error { return c.Program(ppn, zeros, zeroSpare) }},
		{"partial program", false, func(ppn PPN) error { return c.ProgramPartial(ppn, 8, zeros[:8]) }},
		{"torn partial program", true, func(ppn PPN) error { return c.ProgramPartial(ppn, 8, zeros[:8]) }},
		{"spare program", false, func(ppn PPN) error { return c.ProgramSpare(ppn, zeroSpare) }},
		{"torn spare program", true, func(ppn PPN) error { return c.ProgramSpare(ppn, zeroSpare) }},
		{"batch program", false, func(ppn PPN) error {
			return c.ProgramBatch([]PageProgram{{PPN: ppn, Data: zeros, Spare: zeroSpare}})
		}},
	} {
		want := error(nil)
		if tc.torn {
			c.SchedulePowerFailure(1)
			want = ErrPowerLoss
		}
		if err := tc.program(c.PPNOf(blk, 2)); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, want)
		}
		for b := range c.blocks {
			if has := c.blocks[b].data != nil; has != (b <= blk) {
				t.Fatalf("after the %s of block %d: block %d has storage %v", tc.name, blk, b, has)
			}
		}
		if n := c.residentBytes(); n != (blk+1)*blockBytes {
			t.Fatalf("after the %s of block %d: %d slab bytes, want %d", tc.name, blk, n, (blk+1)*blockBytes)
		}
	}
	last := p.NumBlocks - 1
	if err := c.Program(c.PPNOf(last, 0), zeros[:8], nil); !errors.Is(err, ErrBufSize) {
		t.Fatalf("short program: err = %v, want ErrBufSize", err)
	}
	if err := c.ProgramPartial(c.PPNOf(last, 0), p.DataSize-4, zeros[:8]); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("partial program past the data area: err = %v, want ErrOutOfRange", err)
	}
	if c.blocks[last].data != nil {
		t.Fatal("a refused program gave its block storage")
	}
}

// TestEraseReleasesTheBlock: an erase, completed or cut by a power loss,
// drops the block's storage, and every data and spare byte of the block
// then reads 0xFF, whichever of the two areas is larger, at the cost of
// Tread a page.
func TestEraseReleasesTheBlock(t *testing.T) {
	for _, p := range []Params{
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 512, SpareSize: 16, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 24, SpareSize: 40, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
	} {
		for _, torn := range []bool{false, true} {
			c := NewChip(p)
			for pg := 0; pg < p.PagesPerBlock; pg++ {
				if err := c.Program(PPN(pg), make([]byte, p.DataSize), make([]byte, p.SpareSize)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.ProgramSpare(c.PPNOf(1, 0), make([]byte, p.SpareSize)); err != nil {
				t.Fatal(err)
			}
			want := error(nil)
			if torn {
				c.SchedulePowerFailure(1)
				want = ErrPowerLoss
			}
			if err := c.Erase(0); !errors.Is(err, want) {
				t.Fatalf("%+v: erase err = %v, want %v", p, err, want)
			}
			if c.blocks[0].data != nil || c.blocks[0].spare != nil || c.blocks[1].data == nil {
				t.Fatalf("%+v torn=%v: the erase did not drop block 0's storage alone", p, torn)
			}
			before := c.Stats()
			data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
			for pg := 0; pg < p.PagesPerBlock; pg++ {
				if err := c.Read(PPN(pg), data, spare); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, newErased(p.DataSize)) || !bytes.Equal(spare, newErased(p.SpareSize)) {
					t.Fatalf("%+v: page %d not erased", p, pg)
				}
			}
			if got := c.Stats().Sub(before); got != (Stats{Reads: int64(p.PagesPerBlock), TimeMicros: int64(p.PagesPerBlock) * p.ReadMicros}) {
				t.Fatalf("%+v: reads of the erased block cost %+v", p, got)
			}
		}
	}
}

// TestChipSlabsKeepPagesApart: a block's pages are cut from its one data slab
// and one spare slab. A fresh chip reads erased everywhere, and programming a
// page whole, torn by a power failure, at the end of its data area or in its
// spare area changes that page and leaves every other page erased.
func TestChipSlabsKeepPagesApart(t *testing.T) {
	for _, p := range []Params{
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 512, SpareSize: 16, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 24, SpareSize: 40, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
	} {
		c := NewChip(p)
		want := make([][2][]byte, p.NumPages()) // each page's data and spare
		for ppn := range want {
			want[ppn] = [2][]byte{filled(p.DataSize, 0xFF), filled(p.SpareSize, 0xFF)}
		}
		check := func(what string) {
			t.Helper()
			data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
			for ppn := range want {
				if err := c.Read(PPN(ppn), data, spare); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, want[ppn][0]) || !bytes.Equal(spare, want[ppn][1]) {
					t.Fatalf("%+v, %s: page %d reads %x / %x, want %x / %x", p, what, ppn, data, spare, want[ppn][0], want[ppn][1])
				}
			}
		}
		check("fresh chip")

		if err := c.Program(1, filled(p.DataSize, 0), filled(p.SpareSize, 0)); err != nil {
			t.Fatal(err)
		}
		want[1] = [2][]byte{filled(p.DataSize, 0), filled(p.SpareSize, 0)}
		check("program of page 1")

		c.SchedulePowerFailure(1)
		if err := c.Program(2, filled(p.DataSize, 0), filled(p.SpareSize, 0)); !errors.Is(err, ErrPowerLoss) {
			t.Fatalf("torn program: %v, want ErrPowerLoss", err)
		}
		clear(want[2][0][:p.DataSize/2])
		check("torn program of page 2")

		if err := c.ProgramPartial(3, p.DataSize-4, filled(4, 0)); err != nil {
			t.Fatal(err)
		}
		clear(want[3][0][p.DataSize-4:])
		check("program of page 3's last bytes")

		if err := c.ProgramSpare(4, filled(p.SpareSize, 0)); err != nil {
			t.Fatal(err)
		}
		clear(want[4][1])
		check("spare program of page 4")
	}
}

func TestNewChipPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChip with invalid params did not panic")
		}
	}()
	NewChip(Params{})
}

func TestProgramAndRead(t *testing.T) {
	c := NewChip(testParams())
	data := filled(c.Params().DataSize, 0xA5)
	spare := filled(c.Params().SpareSize, 0x5A)
	if err := c.Program(3, data, spare); err != nil {
		t.Fatal(err)
	}
	gotD := make([]byte, len(data))
	gotS := make([]byte, len(spare))
	if err := c.Read(3, gotD, gotS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
		t.Error("read back differs from programmed image")
	}
	if !c.Programmed(3) {
		t.Error("Programmed(3) = false after program")
	}
	if c.Programmed(4) {
		t.Error("Programmed(4) = true on erased page")
	}
}

func TestProgramConflict(t *testing.T) {
	c := NewChip(testParams())
	if err := c.Program(0, filled(c.Params().DataSize, 0x00), nil); err != nil {
		t.Fatal(err)
	}
	err := c.Program(0, filled(c.Params().DataSize, 0x01), nil)
	if !errors.Is(err, ErrProgramConflict) {
		t.Errorf("overwriting 0 bits with 1: err = %v, want ErrProgramConflict", err)
	}
}

func TestProgramZeroOverlayAllowed(t *testing.T) {
	// Programming additional 0 bits over an already-programmed page is
	// physically legal (AND semantics) and must succeed.
	c := NewChip(testParams())
	if err := c.Program(0, filled(c.Params().DataSize, 0xF0), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, filled(c.Params().DataSize, 0xC0), nil); err != nil {
		t.Fatalf("clearing more bits should be legal: %v", err)
	}
	got := make([]byte, c.Params().DataSize)
	if err := c.ReadData(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xC0 {
		t.Errorf("byte = %#x, want 0xC0", got[0])
	}
}

func TestEraseRestoresFF(t *testing.T) {
	c := NewChip(testParams())
	ppn := c.PPNOf(2, 5)
	if err := c.Program(ppn, filled(c.Params().DataSize, 0), filled(c.Params().SpareSize, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Erase(2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, c.Params().DataSize)
	if err := c.ReadData(ppn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, filled(len(got), 0xFF)) {
		t.Error("erase did not restore all-FF")
	}
	if c.EraseCount(2) != 1 {
		t.Errorf("EraseCount = %d, want 1", c.EraseCount(2))
	}
	if c.Programmed(ppn) {
		t.Error("Programmed true after erase")
	}
}

func TestSpareProgramLimit(t *testing.T) {
	c := NewChip(testParams())
	sp := filled(c.Params().SpareSize, 0xFF)
	// Initial full program counts as the first spare program.
	if err := c.Program(0, filled(c.Params().DataSize, 0xAA), sp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Params().maxSparePrograms()-1; i++ {
		sp[i] = 0x00
		if err := c.ProgramSpare(0, sp); err != nil {
			t.Fatalf("spare program %d: %v", i+2, err)
		}
	}
	err := c.ProgramSpare(0, sp)
	if !errors.Is(err, ErrSpareProgramLimit) {
		t.Errorf("program beyond limit: err = %v, want ErrSpareProgramLimit", err)
	}
	// Erase resets the budget.
	if err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, filled(c.Params().DataSize, 0xAA), nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramPartial(t *testing.T) {
	c := NewChip(testParams())
	chunk := filled(128, 0x3C)
	if err := c.ProgramPartial(7, 256, chunk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, c.Params().DataSize)
	if err := c.ReadData(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[256:384], chunk) {
		t.Error("partial program content mismatch")
	}
	if !bytes.Equal(got[:256], filled(256, 0xFF)) {
		t.Error("partial program disturbed preceding bytes")
	}
	if err := c.ProgramPartial(7, c.Params().DataSize-64, filled(128, 0)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflowing partial program: err = %v, want ErrOutOfRange", err)
	}
}

func TestAddressValidation(t *testing.T) {
	c := NewChip(testParams())
	buf := make([]byte, c.Params().DataSize)
	if err := c.ReadData(PPN(c.Params().NumPages()), buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := c.ReadData(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read negative: %v", err)
	}
	if err := c.Erase(c.Params().NumBlocks); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase past end: %v", err)
	}
	if err := c.ReadData(0, make([]byte, 7)); !errors.Is(err, ErrBufSize) {
		t.Errorf("short buffer: %v", err)
	}
	if err := c.Program(0, make([]byte, 7), nil); !errors.Is(err, ErrBufSize) {
		t.Errorf("short program buffer: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	data := filled(p.DataSize, 0xEE)
	if err := c.Program(0, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadData(0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Erases != 1 {
		t.Fatalf("counts = %+v", s)
	}
	want := p.ReadMicros + p.WriteMicros + p.EraseMicros
	if s.TimeMicros != want {
		t.Errorf("TimeMicros = %d, want %d", s.TimeMicros, want)
	}
	if s.Ops() != 3 {
		t.Errorf("Ops = %d, want 3", s.Ops())
	}
	if got := s.TimeOf(p); got != want {
		t.Errorf("TimeOf = %d, want %d", got, want)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Erases: 2, TimeMicros: 1000}
	b := Stats{Reads: 4, Writes: 2, Erases: 1, TimeMicros: 300}
	d := a.Sub(b)
	if d != (Stats{Reads: 6, Writes: 3, Erases: 1, TimeMicros: 700}) {
		t.Errorf("Sub = %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Errorf("Add(Sub) = %+v, want %+v", got, a)
	}
}

func TestFailedObsoleteMarkCosts(t *testing.T) {
	// A spare-only read must still charge a full page read: the recovery
	// scan in the paper is priced at one read per page.
	p := testParams()
	c := NewChip(p)
	sp := make([]byte, p.SpareSize)
	if err := c.ReadSpare(5, sp); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TimeMicros != p.ReadMicros {
		t.Errorf("spare read cost = %d, want %d", c.Stats().TimeMicros, p.ReadMicros)
	}
}

func TestBadBlock(t *testing.T) {
	c := NewChip(testParams())
	if err := c.MarkBad(1); err != nil {
		t.Fatal(err)
	}
	if !c.IsBad(1) {
		t.Error("IsBad = false")
	}
	ppn := c.PPNOf(1, 0)
	buf := make([]byte, c.Params().DataSize)
	if err := c.ReadData(ppn, buf); !errors.Is(err, ErrBadBlock) {
		t.Errorf("read bad block: %v", err)
	}
	if err := c.Program(ppn, buf, nil); !errors.Is(err, ErrBadBlock) {
		t.Errorf("program bad block: %v", err)
	}
	if err := c.Erase(1); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase bad block: %v", err)
	}
}

func TestPowerFailureTornProgram(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	c.SchedulePowerFailure(1)
	err := c.Program(0, filled(p.DataSize, 0x00), filled(p.SpareSize, 0x00))
	if !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("err = %v, want ErrPowerLoss", err)
	}
	if !c.PowerFailed() {
		t.Error("PowerFailed = false")
	}
	got := make([]byte, p.DataSize)
	if err := c.ReadData(0, got); err != nil {
		t.Fatal(err)
	}
	half := p.DataSize / 2
	if !bytes.Equal(got[:half], filled(half, 0x00)) {
		t.Error("first half not programmed")
	}
	if !bytes.Equal(got[half:], filled(p.DataSize-half, 0xFF)) {
		t.Error("second half unexpectedly programmed (torn write should stop)")
	}
	// Next operation proceeds normally (driver rebooted).
	if err := c.Program(1, filled(p.DataSize, 0xCC), nil); err != nil {
		t.Fatalf("program after power loss: %v", err)
	}
}

func TestPowerFailureCountdown(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	c.SchedulePowerFailure(3)
	d := filled(p.DataSize, 0xF0)
	if err := c.Program(0, d, nil); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := c.Program(1, d, nil); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := c.Program(2, d, nil); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("op 3: %v, want ErrPowerLoss", err)
	}
	c.SchedulePowerFailure(-1)
	if err := c.Program(3, d, nil); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

func TestWearSummary(t *testing.T) {
	c := NewChip(testParams())
	for i := 0; i < 3; i++ {
		if err := c.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(1); err != nil {
		t.Fatal(err)
	}
	w := c.Wear()
	if w.MaxErase != 3 || w.MinErase != 0 {
		t.Errorf("wear = %+v", w)
	}
	if w.TotalErases != 4 {
		t.Errorf("TotalErases = %d, want 4", w.TotalErases)
	}
	if w.Limit != DefaultEraseLimit {
		t.Errorf("Limit = %d", w.Limit)
	}
}

// Property: for any sequence of programs to an erased page, the stored
// image equals the AND of all programmed images.
func TestQuickProgramANDSemantics(t *testing.T) {
	p := testParams()
	p.DataSize = 32
	p.SpareSize = 8
	f := func(imgs [][32]byte) bool {
		c := NewChip(p)
		want := filled(32, 0xFF)
		for _, img := range imgs {
			// Clear bits only: AND with current to make it legal.
			legal := make([]byte, 32)
			cur := make([]byte, 32)
			if err := c.ReadData(0, cur); err != nil {
				return false
			}
			for i := range legal {
				legal[i] = img[i] & cur[i]
			}
			if err := c.Program(0, legal, nil); err != nil {
				return false
			}
			for i := range want {
				want[i] &= legal[i]
			}
		}
		got := make([]byte, 32)
		if err := c.ReadData(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: erase always restores a block to all-FF regardless of history.
func TestQuickEraseRestores(t *testing.T) {
	p := testParams()
	p.DataSize = 16
	p.SpareSize = 4
	p.NumBlocks = 2
	f := func(writes []byte, blk bool) bool {
		c := NewChip(p)
		b := 0
		if blk {
			b = 1
		}
		for i, w := range writes {
			ppn := c.PPNOf(b, i%p.PagesPerBlock)
			img := filled(p.DataSize, w)
			cur := make([]byte, p.DataSize)
			_ = c.ReadData(ppn, cur)
			for j := range img {
				img[j] &= cur[j]
			}
			if err := c.Program(ppn, img, nil); err != nil {
				return false
			}
		}
		if err := c.Erase(b); err != nil {
			return false
		}
		for i := 0; i < p.PagesPerBlock; i++ {
			got := make([]byte, p.DataSize)
			if err := c.ReadData(c.PPNOf(b, i), got); err != nil {
				return false
			}
			if !bytes.Equal(got, filled(p.DataSize, 0xFF)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProgramBatchPowerFailLeavesPrefix(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	const n = 6
	batch := make([]PageProgram, n)
	for i := range batch {
		batch[i] = PageProgram{PPN: PPN(i), Data: filled(p.DataSize, byte(0xF0|i))}
	}
	c.SchedulePowerFailure(4) // the 4th page of the batch
	err := c.ProgramBatch(batch)
	if !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("err = %v, want ErrPowerLoss", err)
	}
	got := make([]byte, p.DataSize)
	for i := 0; i < 3; i++ {
		if err := c.ReadData(PPN(i), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, batch[i].Data) {
			t.Errorf("page %d of the prefix not fully programmed", i)
		}
	}
	// The failing page is torn: committed first half, erased second half.
	if err := c.ReadData(3, got); err != nil {
		t.Fatal(err)
	}
	half := p.DataSize / 2
	if !bytes.Equal(got[:half], batch[3].Data[:half]) {
		t.Error("torn page: first half not programmed")
	}
	if !bytes.Equal(got[half:], filled(p.DataSize-half, 0xFF)) {
		t.Error("torn page: second half unexpectedly programmed")
	}
	// Pages after the failure point are untouched.
	for i := 4; i < n; i++ {
		if err := c.ReadData(PPN(i), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, filled(p.DataSize, 0xFF)) {
			t.Errorf("page %d programmed past the power loss", i)
		}
	}
	// The interrupted batch charged one write per attempted page.
	if w := c.Stats().Writes; w != 4 {
		t.Errorf("writes = %d, want 4 (three whole pages and the torn one)", w)
	}
}

func TestProgramBatchChargesPerPage(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	batch := []PageProgram{
		{PPN: 0, Data: filled(p.DataSize, 0x0F), Spare: filled(p.SpareSize, 0xF0)},
		{PPN: 1, Data: filled(p.DataSize, 0x3C)},
	}
	if err := c.ProgramBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Writes != 2 {
		t.Errorf("writes = %d, want 2", st.Writes)
	}
	if st.TimeMicros != 2*p.WriteMicros {
		t.Errorf("time = %d, want %d", st.TimeMicros, 2*p.WriteMicros)
	}
	// The emulator counts explicit durability points.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Syncs; got != 1 {
		t.Errorf("syncs = %d, want 1", got)
	}
}
