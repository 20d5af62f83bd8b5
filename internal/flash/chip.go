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

// page is the state of one physical page. Its data and spare areas live in
// its block's slabs and are cut out when an operation needs them (areas).
type page struct {
	// sparePrograms counts partial programs of the spare area since the
	// last erase of the containing block (the initial full-page program
	// counts as the first).
	sparePrograms int32
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

// block is one erase block. data and spare are its slabs: every page's
// data area back to back, and every page's spare area. Both are nil from
// the block's erase (or the chip's creation) until the first program of
// any kind reaches it, and a block without them reads erased; so the chip
// holds bytes only for blocks programmed since their last erase, as the
// file backend's sparse file does.
type block struct {
	data, spare []byte
	eraseCount  int
	bad         bool
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
	// pages holds every page's state, indexed by PPN.
	pages []page
	stats Counters

	// powerFailAfter, when non-negative, counts down on every program and
	// erase; when it reaches zero the operation is interrupted mid-flight.
	powerFailAfter int64
	failed         bool

	// erased is an erased page image, data or spare: what a page of a
	// block without slabs reads, and what a new slab is filled from.
	erased []byte
}

// NewChip returns an emulated chip in the erased state (all bits 1). It
// allocates no page storage: a block's bytes exist from its first program
// to its next erase, so a chip costs memory for what is programmed on it,
// not for its geometry. It panics if the parameters are invalid, mirroring
// the convention that misconfigured hardware is a programming error, not a
// runtime condition.
func NewChip(p Params) *Chip {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Chip{
		params:         p,
		powerFailAfter: -1,
		erased:         newErased(max(p.DataSize, p.SpareSize)),
		blocks:         make([]block, p.NumBlocks),
		pages:          make([]page, p.NumPages()),
	}
}

// areas returns the data and spare areas of page pg of b, each with its
// capacity capped so no page reaches the next. A block without slabs
// returns the erased image, which must not be written: mutations call
// materialize instead.
func (c *Chip) areas(b *block, pg int) (data, spare []byte) {
	ds, ss := c.params.DataSize, c.params.SpareSize
	if b.data == nil {
		return c.erased[:ds:ds], c.erased[:ss:ss]
	}
	d, s := pg*ds, pg*ss
	return b.data[d : d+ds : d+ds], b.spare[s : s+ss : s+ss]
}

// materialize is areas for a program: it first gives b its slabs, erased,
// if no program has reached the block since its last erase.
func (c *Chip) materialize(b *block, pg int) (data, spare []byte) {
	if b.data == nil {
		b.data = newErased(c.params.PagesPerBlock * c.params.DataSize)
		b.spare = newErased(c.params.PagesPerBlock * c.params.SpareSize)
	}
	return c.areas(b, pg)
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
	pd, ps := c.areas(&c.blocks[blk], pg)
	if data != nil {
		copy(data, pd)
	}
	if spare != nil {
		copy(spare, ps)
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
	if err := c.checkProgram(ppn, data, spare); err != nil {
		return err
	}
	return c.commitProgram(ppn, data, spare)
}

// checkProgram validates one full-page program against the current chip
// state — address, bad block, buffer sizes, AND-legality. It is the
// shared validation of Program and ProgramBatch, so the serial and batched
// paths stay definitionally identical. The caller holds mu.
func (c *Chip) checkProgram(ppn PPN, data, spare []byte) error {
	blk, pg, err := c.addr(ppn)
	if err != nil {
		return err
	}
	if c.blocks[blk].bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if len(data) != c.params.DataSize {
		return fmt.Errorf("%w: data len %d, want %d (ppn %d)", ErrBufSize, len(data), c.params.DataSize, ppn)
	}
	if spare != nil && len(spare) != c.params.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d (ppn %d)", ErrBufSize, len(spare), c.params.SpareSize, ppn)
	}
	if !c.pages[ppn].touched {
		return nil // all 1s: every image is legal
	}
	pd, ps := c.areas(&c.blocks[blk], pg)
	if err := checkProgrammable(pd, data); err != nil {
		return fmt.Errorf("%w (ppn %d)", err, ppn)
	}
	if spare != nil {
		if err := checkProgrammable(ps, spare); err != nil {
			return fmt.Errorf("%w (ppn %d spare)", err, ppn)
		}
	}
	return nil
}

// commitProgram applies a validated full-page program, charging Twrite.
// If the power-fail countdown fires, an unpredictable prefix of the page
// is committed — the first half, modeling a torn program — and the spare
// stays erased. Into an untouched page, whose bits are all 1, the AND is a
// copy. The caller holds mu.
func (c *Chip) commitProgram(ppn PPN, data, spare []byte) error {
	b, p := &c.blocks[c.params.BlockOf(ppn)], &c.pages[ppn]
	pd, ps := c.materialize(b, c.params.PageOf(ppn))
	if c.tickPowerFail() {
		half := len(data) / 2
		andInto(pd[:half], data[:half])
		p.programmed, p.touched = true, true
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	if p.touched {
		andInto(pd, data)
		if spare != nil {
			andInto(ps, spare)
		}
	} else {
		copy(pd, data)
		if spare != nil {
			copy(ps, spare)
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
	for _, pp := range batch {
		if _, dup := seen[pp.PPN]; dup {
			return fmt.Errorf("%w: ppn %d", ErrDuplicatePPN, pp.PPN)
		}
		seen[pp.PPN] = struct{}{}
		if err := c.checkProgram(pp.PPN, pp.Data, pp.Spare); err != nil {
			return err
		}
	}
	for _, pp := range batch {
		if err := c.commitProgram(pp.PPN, pp.Data, pp.Spare); err != nil {
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
	// A block without slabs is all 1s, where no chunk conflicts, so
	// materializing before the check allocates for no refused program.
	b, p := &c.blocks[blk], &c.pages[ppn]
	pd, _ := c.materialize(b, pg)
	if err := checkProgrammable(pd[off:off+len(chunk)], chunk); err != nil {
		return fmt.Errorf("%w (ppn %d +%d)", err, ppn, off)
	}
	p.touched = true
	if c.tickPowerFail() {
		half := len(chunk) / 2
		andInto(pd[off:off+half], chunk[:half])
		p.programmed = true
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	andInto(pd[off:off+len(chunk)], chunk)
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
	b, p := &c.blocks[blk], &c.pages[ppn]
	if int(p.sparePrograms) >= c.params.maxSparePrograms() {
		return fmt.Errorf("%w: ppn %d has %d programs", ErrSpareProgramLimit, ppn, p.sparePrograms)
	}
	_, ps := c.materialize(b, pg)
	p.touched = true
	if c.tickPowerFail() {
		half := len(spare) / 2
		andInto(ps[:half], spare[:half])
		c.stats.AddWrite(c.params.WriteMicros)
		return ErrPowerLoss
	}
	andInto(ps, spare)
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
	if c.blocks[blk].bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if c.tickPowerFail() {
		// Model a torn erase as a completed erase: NAND erases either
		// complete or leave the block in an undefined state that a real
		// driver would re-erase; completing keeps the emulator simple
		// while still exercising the crash path of the caller.
		c.eraseNow(blk)
		return ErrPowerLoss
	}
	c.eraseNow(blk)
	return nil
}

// eraseNow drops blk's slabs, so it reads erased, and resets its pages.
func (c *Chip) eraseNow(blk int) {
	b := &c.blocks[blk]
	b.data, b.spare = nil, nil
	first := c.params.PPNOf(blk, 0)
	clear(c.pages[first : first+PPN(c.params.PagesPerBlock)])
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
