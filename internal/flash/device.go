package flash

import "fmt"

// Device is the hardware seam of this module: the set of operations a
// flash page-update method needs from a NAND device. The emulated Chip is
// one implementation; internal/flash/filedev provides a persistent
// file-backed one. Everything above the flash driver — the FTL allocator,
// the four page-update methods, the buffer pool, the workloads — programs
// against this interface only, which is what lets a store built for the
// emulator run unchanged over real (or file-backed) storage.
//
// Every implementation must provide two concurrency guarantees:
//
//   - read operations (Read, ReadData, ReadSpare, IsBad, EraseCount,
//     Stats, Wear) are safe to call concurrently with each other AND with
//     any single in-flight mutation — a mutation and a read never observe
//     each other mid-flight. This is what lets the PDL store serve reads
//     and run its recovery scan on worker goroutines without holding any
//     store-level lock over the device.
//   - Stats may be called at any time, from any goroutine, while another
//     goroutine performs operations.
//
// Mutations (Program*, Erase, MarkBad) are still serialized by the device
// itself — like the single program/erase engine of a physical chip — but
// callers remain responsible for *logical* write ordering (e.g. never
// erasing a block whose pages a mapping table still references without
// first repointing the table).
type Device interface {
	// Params returns the device geometry and timing.
	Params() Params

	// Read reads the page at ppn into data and spare, charging Tread.
	// Either buffer may be nil to skip that area.
	Read(ppn PPN, data, spare []byte) error
	// ReadData reads only the data area of ppn.
	ReadData(ppn PPN, data []byte) error
	// ReadSpare reads only the spare area of ppn.
	ReadSpare(ppn PPN, spare []byte) error
	// ReadBatch reads a group of pages, charging Tread per page; the filled
	// buffers are those of a loop of Read calls in slice order, and every
	// implementation in this module is that loop (ReadEach). The whole batch
	// is validated first — addresses, buffer sizes, bad blocks — so a
	// validation failure fills no buffer at all and reports the first
	// offending page; reads are non-destructive, so unlike ProgramBatch there
	// is no partial-prefix state to reason about. Duplicate PPNs are allowed.
	ReadBatch(batch []PageRead) error

	// Program programs the full page at ppn, charging Twrite. Programming
	// is an AND at the bit level; an image that would raise a 0 bit back
	// to 1 fails with ErrProgramConflict.
	Program(ppn PPN, data, spare []byte) error
	// ProgramBatch programs a group of full pages as one device operation,
	// charging Twrite per page. The whole batch is validated before any
	// page is touched — addresses, buffer sizes, bad blocks, duplicate
	// PPNs (ErrDuplicatePPN), and AND-legality — so a validation failure
	// programs nothing. Pages are then programmed strictly in slice
	// order, and a failure at the device-operation level — an I/O error,
	// a killed process, the emulator's power model — leaves exactly a
	// prefix of the batch programmed, which is what lets callers order a
	// batch by time stamp and recover such a crash as a prefix of it.
	// Persistent backends coalesce durability work across the batch (the
	// file-backed device issues at most two fsyncs per batch under
	// SyncAlways, instead of two per page); the price of that coalescing
	// is that a PHYSICAL power loss between the batch's barriers may
	// persist any subset of the batch's headers, not necessarily a prefix
	// — still never a valid header over torn data, so every surviving
	// page is individually intact and per-page time stamp arbitration
	// remains sound. Callers needing a strict prefix across power loss
	// must program serially.
	ProgramBatch(batch []PageProgram) error
	// ProgramPartial programs a byte range of the data area of ppn.
	ProgramPartial(ppn PPN, off int, chunk []byte) error
	// ProgramSpare partially programs the spare area of ppn with pure AND
	// semantics, bounded by Params.MaxSparePrograms between erases.
	ProgramSpare(ppn PPN, spare []byte) error

	// Erase erases the block, returning every bit in it to 1 and charging
	// Terase.
	Erase(blk int) error

	// MarkBad marks a block bad; subsequent operations fail with
	// ErrBadBlock.
	MarkBad(blk int) error
	// IsBad reports whether blk is marked bad.
	IsBad(blk int) bool
	// EraseCount returns the number of erases blk has sustained.
	EraseCount(blk int) int

	// Stats returns a snapshot of the accumulated operation counts and
	// simulated I/O time. Safe to call concurrently with operations.
	Stats() Stats
	// ResetStats zeroes the accumulated statistics.
	ResetStats()
	// Wear returns the erase-count distribution over blocks.
	Wear() WearSummary

	// Sync makes all completed operations durable (a no-op for volatile
	// devices like the emulator).
	Sync() error
	// Close releases the device. Persistent devices sync first; using a
	// closed device is an error.
	Close() error
}

// PageProgram is one page of a ProgramBatch: the full data image for ppn
// plus its spare header (Spare may be nil to leave the spare area alone).
type PageProgram struct {
	PPN   PPN
	Data  []byte
	Spare []byte
}

// PageRead is one page of a ReadBatch: the destination buffers for ppn.
// Either buffer may be nil to skip that area (like Read, a spare-only
// element still charges a full page read); an element with both nil is
// address-validated but transfers nothing.
type PageRead struct {
	PPN   PPN
	Data  []byte
	Spare []byte
}

// ReadEach is the ReadBatch of every Device in this module: it validates the
// whole batch against d's geometry and bad-block table — so a failure fills no
// buffer and charges no read — then reads each element with d.Read, in slice
// order.
func ReadEach(d Device, batch []PageRead) error {
	p := d.Params()
	for _, pr := range batch {
		if pr.PPN < 0 || int(pr.PPN) >= p.NumPages() {
			return fmt.Errorf("%w: ppn %d", ErrOutOfRange, pr.PPN)
		}
		if blk := p.BlockOf(pr.PPN); d.IsBad(blk) {
			return fmt.Errorf("%w: block %d", ErrBadBlock, blk)
		}
		if pr.Data != nil && len(pr.Data) != p.DataSize {
			return fmt.Errorf("%w: data len %d, want %d (ppn %d)", ErrBufSize, len(pr.Data), p.DataSize, pr.PPN)
		}
		if pr.Spare != nil && len(pr.Spare) != p.SpareSize {
			return fmt.Errorf("%w: spare len %d, want %d (ppn %d)", ErrBufSize, len(pr.Spare), p.SpareSize, pr.PPN)
		}
	}
	for _, pr := range batch {
		if err := d.Read(pr.PPN, pr.Data, pr.Spare); err != nil {
			return err
		}
	}
	return nil
}

var _ Device = (*Chip)(nil)

// Sync implements Device; the emulator is volatile, so there is nothing
// to make durable. The call is still counted in Stats.Syncs so the
// durability points a caller requests are observable on the emulator too.
func (c *Chip) Sync() error { c.stats.AddSync(); return nil }

// Close implements Device; the emulator holds no external resources.
func (c *Chip) Close() error { return nil }
