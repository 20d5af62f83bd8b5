// Package flash emulates a NAND flash memory chip at the level of detail
// needed by flash page-update methods: page-granularity reads and programs,
// block-granularity erases, bit-accurate program semantics (programming can
// only clear bits, 1 -> 0), a bounded number of partial programs of the spare
// area between erases, per-block erase-count (wear) tracking, and a simulated
// clock that charges the datasheet latency of every operation.
//
// The emulator mirrors the evaluation methodology of Kim, Whang, and Song
// (SIGMOD 2010): their measurements come from a software emulator of a
// Samsung K9L8G08U0M 2-Gbyte MLC NAND chip that "returns the required time"
// for each operation. All I/O times reported by this package are therefore
// simulated times derived from the configured parameters, which makes
// experiments deterministic and independent of host-machine noise.
package flash

import "fmt"

// Params describes the geometry and timing of an emulated NAND chip.
// The zero value is not valid; use DefaultParams or fill in every field.
//
// The defaults reproduce Table 1 of the paper (Samsung K9L8G08U0M 2-Gbyte
// MLC NAND): 32,768 blocks x 64 pages x (2,048 data + 64 spare) bytes with
// Tread = 110 us, Twrite = 1,010 us, Terase = 1,500 us.
type Params struct {
	// NumBlocks is the number of erase blocks in the chip (Nblock).
	NumBlocks int
	// PagesPerBlock is the number of pages in each block (Npage).
	PagesPerBlock int
	// DataSize is the size in bytes of the data area of a page (Sdata).
	DataSize int
	// SpareSize is the size in bytes of the spare area of a page (Sspare).
	SpareSize int

	// ReadMicros is the time charged for reading one page (Tread, us).
	ReadMicros int64
	// WriteMicros is the time charged for programming one page or one
	// partial spare-area program (Twrite, us). The paper counts setting a
	// page obsolete (a spare-area program) as a full write operation.
	WriteMicros int64
	// EraseMicros is the time charged for erasing one block (Terase, us).
	EraseMicros int64

	// MaxSparePrograms bounds how many times the spare area of a single
	// page may be programmed between erases. MLC NAND permits a small
	// number of partial programs; the paper (footnote 9) uses four.
	// Zero means DefaultMaxSparePrograms.
	MaxSparePrograms int

	// EraseLimit is the nominal endurance of a block (about 100,000 for
	// the emulated part). The emulator never refuses an erase; the limit
	// is exposed through Stats so longevity experiments (Exp 6) and
	// wear-leveling ablations can reason about it. Zero means
	// DefaultEraseLimit.
	EraseLimit int
}

// Datasheet values for the Samsung K9L8G08U0M used throughout the paper.
const (
	DefaultNumBlocks        = 32768
	DefaultPagesPerBlock    = 64
	DefaultDataSize         = 2048
	DefaultSpareSize        = 64
	DefaultReadMicros       = 110
	DefaultWriteMicros      = 1010
	DefaultEraseMicros      = 1500
	DefaultMaxSparePrograms = 4
	DefaultEraseLimit       = 100000
)

// DefaultParams returns the exact parameters of Table 1 in the paper:
// a 2-Gbyte MLC NAND chip. A fresh chip of this size holds only its page
// and block state (about 19 MB), but one with every block programmed holds
// about 4.4 GB; tests and benches usually scale NumBlocks down, which does
// not change per-operation costs.
func DefaultParams() Params {
	return Params{
		NumBlocks:        DefaultNumBlocks,
		PagesPerBlock:    DefaultPagesPerBlock,
		DataSize:         DefaultDataSize,
		SpareSize:        DefaultSpareSize,
		ReadMicros:       DefaultReadMicros,
		WriteMicros:      DefaultWriteMicros,
		EraseMicros:      DefaultEraseMicros,
		MaxSparePrograms: DefaultMaxSparePrograms,
		EraseLimit:       DefaultEraseLimit,
	}
}

// ScaledParams returns DefaultParams with NumBlocks replaced, which is the
// standard way to build a smaller chip for tests and benchmarks without
// touching per-operation costs.
func ScaledParams(numBlocks int) Params {
	p := DefaultParams()
	p.NumBlocks = numBlocks
	return p
}

// Validate reports whether the parameters describe a realizable chip.
func (p Params) Validate() error {
	switch {
	case p.NumBlocks <= 0:
		return fmt.Errorf("flash: NumBlocks must be positive, got %d", p.NumBlocks)
	case p.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock must be positive, got %d", p.PagesPerBlock)
	case p.DataSize <= 0:
		return fmt.Errorf("flash: DataSize must be positive, got %d", p.DataSize)
	case p.SpareSize <= 0:
		return fmt.Errorf("flash: SpareSize must be positive, got %d", p.SpareSize)
	case p.ReadMicros < 0 || p.WriteMicros < 0 || p.EraseMicros < 0:
		return fmt.Errorf("flash: negative operation time")
	case p.MaxSparePrograms < 0:
		return fmt.Errorf("flash: MaxSparePrograms must be non-negative, got %d", p.MaxSparePrograms)
	}
	return nil
}

// PageSize returns the full size of a page including its spare area (Spage).
func (p Params) PageSize() int { return p.DataSize + p.SpareSize }

// NumPages returns the total number of pages in the chip.
func (p Params) NumPages() int { return p.NumBlocks * p.PagesPerBlock }

// PPNOf returns the physical page number of page pg in block blk. Address
// arithmetic is pure geometry, so it lives on Params and works for every
// Device implementation.
func (p Params) PPNOf(blk, pg int) PPN { return PPN(blk*p.PagesPerBlock + pg) }

// BlockOf returns the block index containing ppn.
func (p Params) BlockOf(ppn PPN) int { return int(ppn) / p.PagesPerBlock }

// PageOf returns the index within its block of ppn.
func (p Params) PageOf(ppn PPN) int { return int(ppn) % p.PagesPerBlock }

func (p Params) String() string {
	return fmt.Sprintf("flash(%d blocks x %d pages x %d+%d B; Tread=%dus Twrite=%dus Terase=%dus)",
		p.NumBlocks, p.PagesPerBlock, p.DataSize, p.SpareSize,
		p.ReadMicros, p.WriteMicros, p.EraseMicros)
}

func (p Params) maxSparePrograms() int {
	if p.MaxSparePrograms == 0 {
		return DefaultMaxSparePrograms
	}
	return p.MaxSparePrograms
}

func (p Params) eraseLimit() int {
	if p.EraseLimit == 0 {
		return DefaultEraseLimit
	}
	return p.EraseLimit
}
