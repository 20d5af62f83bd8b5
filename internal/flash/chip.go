package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Common errors returned by chip operations.
var (
	// ErrOutOfRange reports an address outside the chip geometry.
	ErrOutOfRange = errors.New("flash: address out of range")
	// ErrProgramConflict reports an attempt to set a bit from 0 back to 1
	// with a program operation. Only an erase can raise bits.
	ErrProgramConflict = errors.New("flash: program would set a 0 bit to 1 (erase required)")
	// ErrSpareProgramLimit reports that the spare area of a page has been
	// partially programmed more times than the chip permits between erases.
	ErrSpareProgramLimit = errors.New("flash: spare-area partial program limit exceeded")
	// ErrPowerLoss reports that a scheduled power failure interrupted the
	// operation. The target page may be partially programmed.
	ErrPowerLoss = errors.New("flash: simulated power loss during operation")
	// ErrBadBlock reports an access to a block marked bad.
	ErrBadBlock = errors.New("flash: block is marked bad")
	// ErrBufSize reports a caller buffer whose size does not match the
	// page geometry.
	ErrBufSize = errors.New("flash: buffer size does not match page geometry")
	// ErrDuplicatePPN reports a ProgramBatch naming the same physical page
	// twice; batch validation checks legality against the pre-batch state,
	// which is only sound when every page appears once.
	ErrDuplicatePPN = errors.New("flash: duplicate ppn in program batch")
)

// PPN is a physical page number: block*PagesPerBlock + pageInBlock.
type PPN int32

// NilPPN is the sentinel "no page" value used by mapping tables.
const NilPPN PPN = -1

// page is the storage for one physical page.
type page struct {
	data  []byte
	spare []byte
	// sparePrograms counts partial programs of the spare area since the
	// last erase of the containing block (the initial full-page program
	// counts as the first).
	sparePrograms int
	// programmed records whether the data area has ever been programmed
	// since the last erase. Used for fast free-page queries and sanity
	// checks; it does not affect legality (partial data programs of an
	// erased region are allowed, as used by in-page logging).
	programmed bool
	// touched records whether any program — full, torn, partial or of the
	// spare — has reached the page since the last erase. An untouched page
	// is all 1s, so a full program of it is a copy with nothing to check.
	touched bool
}

// block is the storage for one erase block.
type block struct {
	pages      []page
	eraseCount int
	bad        bool
}

// Chip is an emulated NAND flash chip. Reads may run concurrently with
// each other from any number of goroutines; mutations (program, erase,
// bad-block marking) are exclusive, like the single program/erase engine
// of a real chip behind a multi-channel read path. Callers still
// serialize *logical* conflicts themselves — the chip only guarantees
// that no operation observes another mid-flight.
type Chip struct {
	params Params
	// mu is the bus lock: read operations share it, mutating operations
	// hold it exclusively.
	mu     sync.RWMutex
	blocks []block
	stats  Counters

	// powerFailAfter, when non-negative, counts down on every program and
	// erase; when it reaches zero the operation is interrupted mid-flight.
	powerFailAfter int64
	failed         bool

	// erased is an erased page image, data or spare, that eraseNow copies.
	erased []byte
}

// NewChip allocates an emulated chip in the erased state (all bits 1).
// It panics if the parameters are invalid, mirroring the convention that
// misconfigured hardware is a programming error, not a runtime condition.
func NewChip(p Params) *Chip {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c := &Chip{params: p, powerFailAfter: -1, erased: newErased(max(p.DataSize, p.SpareSize))}
	c.blocks = make([]block, p.NumBlocks)
	for i := range c.blocks {
		// One data slab and one spare slab a block; each page's areas are
		// cut out with their capacity capped, so no page reaches the next.
		pages := make([]page, p.PagesPerBlock)
		data := newErased(p.PagesPerBlock * p.DataSize)
		spare := newErased(p.PagesPerBlock * p.SpareSize)
		for j := range pages {
			d, s := j*p.DataSize, j*p.SpareSize
			pages[j].data = data[d : d+p.DataSize : d+p.DataSize]
			pages[j].spare = spare[s : s+p.SpareSize : s+p.SpareSize]
		}
		c.blocks[i].pages = pages
	}
	return c
}

// newErased returns n bytes of 0xFF, filled by copies that double the
// filled prefix.
func newErased(n int) []byte {
	b := make([]byte, n)
	if n > 0 {
		b[0] = 0xFF
	}
	for i := 1; i < n; i *= 2 {
		copy(b[i:], b[:i])
	}
	return b
}

// Params returns the chip's configured parameters.
func (c *Chip) Params() Params { return c.params }

// addr converts a PPN to (block, page) and validates it.
func (c *Chip) addr(ppn PPN) (int, int, error) {
	if ppn < 0 || int(ppn) >= c.params.NumPages() {
		return 0, 0, fmt.Errorf("%w: ppn %d", ErrOutOfRange, ppn)
	}
	return int(ppn) / c.params.PagesPerBlock, int(ppn) % c.params.PagesPerBlock, nil
}

// PPNOf returns the physical page number of page pg in block blk.
func (c *Chip) PPNOf(blk, pg int) PPN { return c.params.PPNOf(blk, pg) }

// BlockOf returns the block index containing ppn.
func (c *Chip) BlockOf(ppn PPN) int { return c.params.BlockOf(ppn) }

// PageOf returns the index within its block of ppn.
func (c *Chip) PageOf(ppn PPN) int { return c.params.PageOf(ppn) }

// Read reads the full page at ppn into data and spare, charging Tread.
// data must have length DataSize and spare length SpareSize; either may be
// nil to skip that area (a spare-only read still charges a full page read;
// methods that scan spare areas during recovery pay the same cost the paper
// charges for its recovery scan).
func (c *Chip) Read(ppn PPN, data, spare []byte) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return err
	}
	if c.blocks[blk].bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if data != nil && len(data) != c.params.DataSize {
		return fmt.Errorf("%w: data len %d, want %d (ppn %d)", ErrBufSize, len(data), c.params.DataSize, ppn)
	}
	if spare != nil && len(spare) != c.params.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d (ppn %d)", ErrBufSize, len(spare), c.params.SpareSize, ppn)
	}
	p := &c.blocks[blk].pages[pg]
	if data != nil {
		copy(data, p.data)
	}
	if spare != nil {
		copy(spare, p.spare)
	}
	c.stats.AddRead(c.params.ReadMicros)
	return nil
}

// ReadBatch implements Device (ReadEach).
func (c *Chip) ReadBatch(batch []PageRead) error { return ReadEach(c, batch) }

// ReadData reads only the data area of ppn, charging Tread.
func (c *Chip) ReadData(ppn PPN, data []byte) error { return c.Read(ppn, data, nil) }

// ReadSpare reads only the spare area of ppn, charging Tread.
func (c *Chip) ReadSpare(ppn PPN, spare []byte) error { return c.Read(ppn, nil, spare) }

// Program programs the full page at ppn with data and spare, charging
// Twrite. Programming is an AND at the bit level: it can only clear bits.
// If the requested image would require raising a bit the operation fails
// with ErrProgramConflict and nothing is changed (real chips would silently
// store the AND; failing loudly turns method bugs into test failures).
func (c *Chip) Program(ppn PPN, data, spare []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.checkProgram(ppn, data, spare)
	if err != nil {
		return err
	}
	return c.commitProgram(p, data, spare)
}

// checkProgram validates one full-page program against the current chip
// state — address, bad block, buffer sizes, AND-legality — and returns
// the target page. It is the shared validation of Program and
// ProgramBatch, so the serial and batched paths stay definitionally
// identical. The caller holds mu.
func (c *Chip) checkProgram(ppn PPN, data, spare []byte) (*page, error) {
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return nil, err
	}
	if c.blocks[blk].bad {
		return nil, fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if len(data) != c.params.DataSize {
		return nil, fmt.Errorf("%w: data len %d, want %d (ppn %d)", ErrBufSize, len(data), c.params.DataSize, ppn)
	}
	if spare != nil && len(spare) != c.params.SpareSize {
		return nil, fmt.Errorf("%w: spare len %d, want %d (ppn %d)", ErrBufSize, len(spare), c.params.SpareSize, ppn)
	}
	p := &c.blocks[blk].pages[pg]
	if !p.touched {
		return p, nil // all 1s: every image is legal
	}
	if err := checkProgrammable(p.data, data); err != nil {
		return nil, fmt.Errorf("%w (ppn %d)", err, ppn)
	}
	if spare != nil {
		if err := checkProgrammable(p.spare, spare); err != nil {
			return nil, fmt.Errorf("%w (ppn %d spare)", err, ppn)
		}
	}
	return p, nil
}

// commitProgram applies a validated full-page program, charging Twrite.
// If the power-fail countdown fires, an unpredictable prefix of the page
// is committed — the first half, modeling a torn program — and the spare
// stays erased. Into an untouched page, whose bits are all 1, the AND is a
// copy. The caller holds mu.
func (c *Chip) commitProgram(p *page, data, spare []byte) error {
	if c.tickPowerFail() {
		half := len(data) / 2
		andInto(p.data[:half], data[:half])
		p.programmed, p.touched = true, true
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	if p.touched {
		andInto(p.data, data)
		if spare != nil {
			andInto(p.spare, spare)
		}
	} else {
		copy(p.data, data)
		if spare != nil {
			copy(p.spare, spare)
		}
	}
	p.programmed, p.touched = true, true
	p.sparePrograms++
	c.stats.AddWrite(c.params.WriteMicros)
	return nil
}

// ProgramBatch implements the batched half of the Device contract: the
// whole batch is validated against the pre-batch state first (so a
// validation error programs nothing), then the pages are programmed in
// slice order under a single bus-lock acquisition, charging Twrite per
// page. A scheduled power failure interrupts the batch exactly as it
// would a serial program sequence: the failing page is torn and the
// pages after it untouched, so flash holds a prefix of the batch.
func (c *Chip) ProgramBatch(batch []PageProgram) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[PPN]struct{}, len(batch))
	pages := make([]*page, len(batch))
	for i, pp := range batch {
		if _, dup := seen[pp.PPN]; dup {
			return fmt.Errorf("%w: ppn %d", ErrDuplicatePPN, pp.PPN)
		}
		seen[pp.PPN] = struct{}{}
		p, err := c.checkProgram(pp.PPN, pp.Data, pp.Spare)
		if err != nil {
			return err
		}
		pages[i] = p
	}
	for i, pp := range batch {
		if err := c.commitProgram(pages[i], pp.Data, pp.Spare); err != nil {
			return err
		}
	}
	return nil
}

// ProgramPartial programs a byte range [off, off+len(chunk)) of the data
// area of ppn, charging Twrite. In-page logging uses this to append log
// sectors to a log page. The same AND semantics apply.
func (c *Chip) ProgramPartial(ppn PPN, off int, chunk []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return err
	}
	if c.blocks[blk].bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if off < 0 || off+len(chunk) > c.params.DataSize {
		return fmt.Errorf("%w: partial program [%d,%d) beyond data area %d",
			ErrOutOfRange, off, off+len(chunk), c.params.DataSize)
	}
	p := &c.blocks[blk].pages[pg]
	if err := checkProgrammable(p.data[off:off+len(chunk)], chunk); err != nil {
		return fmt.Errorf("%w (ppn %d +%d)", err, ppn, off)
	}
	p.touched = true
	if c.tickPowerFail() {
		half := len(chunk) / 2
		andInto(p.data[off:off+half], chunk[:half])
		p.programmed = true
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	andInto(p.data[off:off+len(chunk)], chunk)
	p.programmed = true
	c.stats.AddWrite(c.params.WriteMicros)
	return nil
}

// ProgramSpare partially programs the spare area of ppn, charging Twrite.
// This is how pages are set obsolete (paper footnote 6: clear the obsolete
// bit in the spare area) and the paper counts it as a write operation.
// The chip permits at most MaxSparePrograms programs of one page's spare
// area between erases (footnote 9: "up to four times").
//
// Unlike Program, ProgramSpare applies pure AND semantics without the
// conflict check: a 1 bit in spare means "leave this bit alone", which is
// how drivers flip individual flags in an already-written spare area.
func (c *Chip) ProgramSpare(ppn PPN, spare []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return err
	}
	if c.blocks[blk].bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if len(spare) != c.params.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d", ErrBufSize, len(spare), c.params.SpareSize)
	}
	p := &c.blocks[blk].pages[pg]
	if p.sparePrograms >= c.params.maxSparePrograms() {
		return fmt.Errorf("%w: ppn %d has %d programs", ErrSpareProgramLimit, ppn, p.sparePrograms)
	}
	p.touched = true
	if c.tickPowerFail() {
		half := len(spare) / 2
		andInto(p.spare[:half], spare[:half])
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	andInto(p.spare, spare)
	p.sparePrograms++
	c.stats.AddWrite(c.params.WriteMicros)
	return nil
}

// Erase erases the block, returning every bit in it to 1 and charging
// Terase. The block's erase count is incremented; exceeding the nominal
// erase limit does not fail (real chips degrade probabilistically), but
// Stats exposes wear so callers can decide.
func (c *Chip) Erase(blk int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blk < 0 || blk >= c.params.NumBlocks {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, blk)
	}
	b := &c.blocks[blk]
	if b.bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if c.tickPowerFail() {
		// Model a torn erase as a completed erase: NAND erases either
		// complete or leave the block in an undefined state that a real
		// driver would re-erase; completing keeps the emulator simple
		// while still exercising the crash path of the caller.
		c.eraseNow(b)
		return ErrPowerLoss
	}
	c.eraseNow(b)
	return nil
}

func (c *Chip) eraseNow(b *block) {
	for i := range b.pages {
		p := &b.pages[i]
		copy(p.data, c.erased)
		copy(p.spare, c.erased)
		p.sparePrograms = 0
		p.programmed, p.touched = false, false
	}
	b.eraseCount++
	c.stats.AddErase(c.params.EraseMicros)
}

// MarkBad marks a block bad. Subsequent operations on it fail with
// ErrBadBlock. Bad-block management is orthogonal to page-update methods
// (paper footnote 4) but part of a credible flash substrate.
func (c *Chip) MarkBad(blk int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blk < 0 || blk >= c.params.NumBlocks {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, blk)
	}
	c.blocks[blk].bad = true
	return nil
}

// IsBad reports whether blk is marked bad.
func (c *Chip) IsBad(blk int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[blk].bad
}

// EraseCount returns the number of erases blk has sustained.
func (c *Chip) EraseCount(blk int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[blk].eraseCount
}

// Programmed reports whether the data area of ppn has been programmed
// since the last erase of its block. It is a free (zero-cost) emulator
// query intended for assertions and debugging, not for use on the methods'
// hot paths: a real driver must track free pages itself.
func (c *Chip) Programmed(ppn PPN) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return false
	}
	return c.blocks[blk].pages[pg].programmed
}

// SchedulePowerFailure arranges for the n-th subsequent program or erase
// operation (1-based) to be interrupted by a power loss. The interrupted
// operation returns ErrPowerLoss and leaves a torn page behind. Pass a
// negative n to cancel.
func (c *Chip) SchedulePowerFailure(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.powerFailAfter = n
	c.failed = false
}

// PowerFailed reports whether a scheduled power failure has fired.
func (c *Chip) PowerFailed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.failed
}

func (c *Chip) tickPowerFail() bool {
	if c.powerFailAfter < 0 {
		return false
	}
	c.powerFailAfter--
	if c.powerFailAfter == 0 {
		c.powerFailAfter = -1
		c.failed = true
		return true
	}
	return false
}

// checkProgrammable reports ErrProgramConflict if want has a 1 bit where
// cur has a 0 bit. It compares eight bytes at a time, then the tail.
func checkProgrammable(cur, want []byte) error {
	cur = cur[:len(want)]
	i := 0
	for ; i+8 <= len(want); i += 8 {
		if binary.LittleEndian.Uint64(want[i:])&^binary.LittleEndian.Uint64(cur[i:]) != 0 {
			return ErrProgramConflict
		}
	}
	for ; i < len(want); i++ {
		if want[i]&^cur[i] != 0 {
			return ErrProgramConflict
		}
	}
	return nil
}

// andInto stores dst &= src, eight bytes at a time, then the tail.
func andInto(dst, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])&binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] &= src[i]
	}
}
