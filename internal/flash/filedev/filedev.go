// Package filedev implements flash.Device over a single ordinary file, so
// a store built on the paper's flash driver can persist across process
// restarts: write, Flush, Close, reopen the same path, and Recover
// reconstructs the logical pages from the file exactly as it would from a
// chip after a crash.
//
// The device enforces the same NAND discipline as the emulator: programs
// can only clear bits (AND semantics, ErrProgramConflict otherwise), the
// spare area of a page accepts a bounded number of partial programs
// between erases, and only a block erase returns bits to 1. Methods
// therefore cannot pass over this backend while hiding a physical-legality
// bug that real flash would expose.
//
// # File layout
//
// One file holds everything:
//
//	[0, 4096)            header: magic, version, flash.Params
//	[blockMetaOff, ...)  per-block metadata (erase count, bad flag)
//	[pageMetaOff, ...)   per-page metadata (spare-program count)
//	[pagesOff, ...)      page records: data area then spare area, packed
//
// Page bytes are stored ones-complemented: the erased NAND state (all
// bits 1) is stored as zero, so creating a device is a single truncate —
// the operating system provides an "erased chip" as a sparse file, no
// matter how large the geometry — and a block erase writes zeros.
// Programming, an AND in the logical domain, is an OR in the stored
// domain.
//
// # Reads
//
// The device maps its whole file once, read-only and shared, when it
// opens it. Every read of a page record — Read, and the read-back of a
// program into a page not known to be erased — comes from that mapping,
// with no system call. Writes still go through the file: the operating
// system's page cache backs both the mapping and the file, so a write is
// visible to the mapping at once (the unified page cache of Linux, the
// platform this backend is run and tested on). A fault in a mapped read,
// from a host I/O error or from the file being cut short behind the
// device, is returned as ErrUnreadable naming the page, never a crash.
// The backend builds on unix systems only (syscall.Mmap).
//
// The device keeps one bit a page in RAM that says the page is erased:
// formatting a new file and erasing a block set it, and every program —
// full, partial or of the spare — clears it before it writes. A full
// program into a page erased in this session stores the complement of its
// data and spare as they are, with no read-back, conflict check or merge;
// any other program reads the record back first. A reopened file starts
// with no page known erased, so its first program of each page takes the
// read-back path.
//
// # Durability
//
// Every mutation is written straight to the file (no user-space write
// cache), so a killed process loses nothing the OS had accepted; this is
// what the kill-and-reopen tests exercise. Policy decides when the file
// is additionally fsynced: SyncOnClose (default) syncs on Sync and Close,
// the cheap choice that survives process death but not OS/power failure;
// SyncAlways fsyncs after every program and erase, surviving power loss
// at the cost of one fsync per flash operation; SyncNever never fsyncs.
// A torn full-page program (kill mid-write) can leave a partial data area
// with an erased spare, which is exactly the torn-page state PDL recovery
// already detects and quarantines.
package filedev

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"syscall"

	"pdl/internal/flash"
)

// Errors specific to the file-backed device.
var (
	// ErrClosed reports an operation on a closed device.
	ErrClosed = errors.New("filedev: device is closed")
	// ErrFormat reports a file that is not a filedev image (bad magic,
	// unsupported version, or truncated).
	ErrFormat = errors.New("filedev: not a flash device file")
	// ErrGeometry reports Options.Params that contradict the geometry
	// recorded in an existing file.
	ErrGeometry = errors.New("filedev: geometry differs from the file's")
	// ErrNeedParams reports an Open of a new (empty) file without Params.
	ErrNeedParams = errors.New("filedev: new device file needs Options.Params")
	// ErrUnreadable reports a page record whose mapped read faulted: the
	// host could not read it, or the file was cut short behind the device.
	ErrUnreadable = errors.New("filedev: page record could not be read")
)

// SyncPolicy selects when the device fsyncs the backing file.
type SyncPolicy int

const (
	// SyncOnClose fsyncs only in Sync and Close: writes survive a killed
	// process (the OS has them) but not necessarily an OS crash. The
	// default, and the right choice for simulation work.
	SyncOnClose SyncPolicy = iota
	// SyncAlways fsyncs after every program and erase: the write-through
	// discipline a durability-critical deployment wants.
	SyncAlways
	// SyncNever never fsyncs, not even on Close (testing only).
	SyncNever
)

// Options configures Open.
type Options struct {
	// Params is the chip geometry for a newly created file. For an
	// existing file it may be left zero (the file's recorded geometry is
	// used); if non-zero its geometry fields must match the file's.
	Params flash.Params
	// Sync is the durability policy. The zero value is SyncOnClose.
	Sync SyncPolicy
	// Reset discards any existing contents and reinitializes the file
	// from Params (which must be set). Tools that always build a fresh
	// store over the device use it; a fresh store over a dirty file would
	// otherwise fail on its first program (NAND cannot raise bits).
	Reset bool
}

// On-disk format constants.
const (
	magic         = "PDLFDEV1"
	version       = 1
	headerSize    = 4096
	blockMetaSize = 16 // eraseCount u32, bad u8, reserved
	pageMetaSize  = 4  // sparePrograms u8, reserved
)

// Device is a persistent flash.Device backed by one file. Reads may run
// concurrently (they share the lock and complement the record straight out
// of the file's mapping into the caller's buffers); mutations are
// exclusive.
type Device struct {
	mu     sync.RWMutex
	f      *os.File
	params flash.Params
	policy SyncPolicy
	closed bool

	// mapped is the whole file, mapped read-only and shared from Open to
	// Close: every read of a page record comes from it.
	mapped []byte

	// Metadata is cached in memory and written through on change.
	eraseCount []uint32
	bad        []bool
	sparePrg   []uint8

	pageMetaOff int64
	pagesOff    int64
	recordSize  int64

	// erased holds the pages known to be erased in this session (see the
	// package comment); only mutating operations read or write it.
	erased pageBits
	// ones is a page record of 0xFF bytes: XORing with it converts between
	// the stored and the logical domain.
	ones []byte

	// scratch holds one stored-domain page record during read-modify-write;
	// only mutating operations (which hold mu exclusively) may use it.
	scratch []byte
	// recBufs pools the stored-domain page records ProgramBatch builds
	// before it writes any of them.
	recBufs sync.Pool
	// zeros pools an erased (stored-domain) block image for Erase, so a
	// device between erases keeps no block-sized buffer alive.
	zeros sync.Pool

	stats flash.Counters
}

var _ flash.Device = (*Device)(nil)

// Open opens (or creates) the device file at path. A missing or empty
// file is initialized with opts.Params; an existing file's geometry wins,
// and a non-zero opts.Params that disagrees is an error.
func Open(path string, opts Options) (*Device, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d, err := open(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func open(f *os.File, opts Options) (*Device, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	d := &Device{f: f, policy: opts.Sync}
	size := st.Size()
	if opts.Reset && size > 0 {
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		size = 0
	}
	if size == 0 {
		if opts.Params == (flash.Params{}) {
			return nil, ErrNeedParams
		}
		if err := opts.Params.Validate(); err != nil {
			return nil, err
		}
		d.params = opts.Params
		d.layout()
		if err := d.format(); err != nil {
			return nil, err
		}
	} else {
		if err := d.readHeader(); err != nil {
			return nil, err
		}
		if opts.Params != (flash.Params{}) && !sameGeometry(opts.Params, d.params) {
			return nil, fmt.Errorf("%w: file has %v, options want %v", ErrGeometry, d.params, opts.Params)
		}
		d.layout()
		if size < d.fileSize() {
			return nil, fmt.Errorf("%w: file truncated (%d bytes, the page region ends at %d)",
				ErrFormat, size, d.fileSize())
		}
		if err := d.loadMeta(); err != nil {
			return nil, err
		}
	}
	if err := d.mapFile(); err != nil {
		return nil, err
	}
	return d, nil
}

// mapFile maps the file's header, metadata and page region read-only and
// shared. The file is at least that long: format made it so, or open
// checked it.
func (d *Device) mapFile() error {
	n := d.fileSize()
	if int64(int(n)) != n {
		return fmt.Errorf("filedev: a %d-byte file does not fit the address space", n)
	}
	m, err := syscall.Mmap(int(d.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("filedev: map %s: %w", d.f.Name(), err)
	}
	d.mapped = m
	return nil
}

func sameGeometry(a, b flash.Params) bool {
	return a.NumBlocks == b.NumBlocks && a.PagesPerBlock == b.PagesPerBlock &&
		a.DataSize == b.DataSize && a.SpareSize == b.SpareSize
}

// layout computes region offsets and allocates the metadata caches.
func (d *Device) layout() {
	p := d.params
	d.recordSize = int64(p.DataSize + p.SpareSize)
	blockMetaOff := int64(headerSize)
	d.pageMetaOff = blockMetaOff + int64(p.NumBlocks)*blockMetaSize
	d.pagesOff = d.pageMetaOff + int64(p.NumPages())*pageMetaSize
	d.eraseCount = make([]uint32, p.NumBlocks)
	d.bad = make([]bool, p.NumBlocks)
	d.sparePrg = make([]uint8, p.NumPages())
	d.erased = newPageBits(p.NumPages())
	d.ones = bytes.Repeat([]byte{0xFF}, int(d.recordSize))
	d.scratch = make([]byte, d.recordSize)
	recordSize := d.recordSize
	d.recBufs.New = func() any { return make([]byte, recordSize) }
	blockSize := int64(p.PagesPerBlock) * recordSize
	d.zeros.New = func() any { return make([]byte, blockSize) }
}

// format initializes a fresh file: header, zeroed metadata, and the page
// region extended by truncation — which, under the complemented encoding,
// is a fully erased chip stored as a sparse file.
func (d *Device) format() error {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	p := d.params
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.NumBlocks))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(p.PagesPerBlock))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(p.DataSize))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(p.SpareSize))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(p.ReadMicros))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(p.WriteMicros))
	binary.LittleEndian.PutUint64(hdr[44:], uint64(p.EraseMicros))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(p.MaxSparePrograms))
	binary.LittleEndian.PutUint32(hdr[56:], uint32(p.EraseLimit))
	if _, err := d.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := d.f.Truncate(d.fileSize()); err != nil {
		return err
	}
	d.erased.fill()
	if d.policy != SyncNever {
		return d.f.Sync()
	}
	return nil
}

func (d *Device) readHeader() error {
	hdr := make([]byte, headerSize)
	if _, err := d.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if string(hdr[:8]) != magic {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	d.params = flash.Params{
		NumBlocks:        int(binary.LittleEndian.Uint32(hdr[12:])),
		PagesPerBlock:    int(binary.LittleEndian.Uint32(hdr[16:])),
		DataSize:         int(binary.LittleEndian.Uint32(hdr[20:])),
		SpareSize:        int(binary.LittleEndian.Uint32(hdr[24:])),
		ReadMicros:       int64(binary.LittleEndian.Uint64(hdr[28:])),
		WriteMicros:      int64(binary.LittleEndian.Uint64(hdr[36:])),
		EraseMicros:      int64(binary.LittleEndian.Uint64(hdr[44:])),
		MaxSparePrograms: int(binary.LittleEndian.Uint32(hdr[52:])),
		EraseLimit:       int(binary.LittleEndian.Uint32(hdr[56:])),
	}
	if err := d.params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return nil
}

// loadMeta reads the metadata regions into the in-memory caches.
func (d *Device) loadMeta() error {
	p := d.params
	bm := make([]byte, int64(p.NumBlocks)*blockMetaSize)
	if _, err := d.f.ReadAt(bm, headerSize); err != nil {
		return fmt.Errorf("%w: block metadata: %v", ErrFormat, err)
	}
	for b := 0; b < p.NumBlocks; b++ {
		rec := bm[b*blockMetaSize:]
		d.eraseCount[b] = binary.LittleEndian.Uint32(rec)
		d.bad[b] = rec[4] != 0
	}
	pm := make([]byte, int64(p.NumPages())*pageMetaSize)
	if _, err := d.f.ReadAt(pm, d.pageMetaOff); err != nil {
		return fmt.Errorf("%w: page metadata: %v", ErrFormat, err)
	}
	for i := 0; i < p.NumPages(); i++ {
		d.sparePrg[i] = pm[i*pageMetaSize]
	}
	return nil
}

// writeBlockMeta persists one block's metadata record.
func (d *Device) writeBlockMeta(blk int) error {
	var rec [blockMetaSize]byte
	binary.LittleEndian.PutUint32(rec[:], d.eraseCount[blk])
	if d.bad[blk] {
		rec[4] = 1
	}
	_, err := d.f.WriteAt(rec[:], headerSize+int64(blk)*blockMetaSize)
	return err
}

// writePageMeta persists one page's metadata record.
func (d *Device) writePageMeta(ppn flash.PPN) error {
	var rec [pageMetaSize]byte
	rec[0] = d.sparePrg[ppn]
	_, err := d.f.WriteAt(rec[:], d.pageMetaOff+int64(ppn)*pageMetaSize)
	return err
}

// recordOff returns the file offset of ppn's page record.
func (d *Device) recordOff(ppn flash.PPN) int64 {
	return d.pagesOff + int64(ppn)*d.recordSize
}

// fileSize returns the length of a device file: the page region's end.
func (d *Device) fileSize() int64 {
	return d.pagesOff + int64(d.params.NumPages())*d.recordSize
}

// readMapped calls fn with ppn's stored-domain record in the mapping. A
// fault while fn reads it — the host could not read the file, or the file
// was cut short behind the device — is returned as ErrUnreadable naming
// ppn instead of crashing the process. The caller holds mu and has
// checked that the device is open.
func (d *Device) readMapped(ppn flash.PPN, fn func(rec []byte)) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("%w: ppn %d: %v", ErrUnreadable, ppn, r)
		}
	}()
	off := d.recordOff(ppn)
	fn(d.mapped[off : off+d.recordSize])
	return nil
}

// Params implements flash.Device.
func (d *Device) Params() flash.Params { return d.params }

// Path returns the backing file's path.
func (d *Device) Path() string { return d.f.Name() }

// addr validates ppn and returns its block.
func (d *Device) addr(ppn flash.PPN) (int, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if ppn < 0 || int(ppn) >= d.params.NumPages() {
		return 0, fmt.Errorf("%w: ppn %d", flash.ErrOutOfRange, ppn)
	}
	blk := d.params.BlockOf(ppn)
	if d.bad[blk] {
		return 0, fmt.Errorf("%w: block %d", flash.ErrBadBlock, blk)
	}
	return blk, nil
}

// Read implements flash.Device: the page record is complemented straight
// from the file's mapping into the caller's buffers. Either buffer may be
// nil. Reads hold the lock shared, so any number of them proceed in
// parallel, and Close, which unmaps the file, waits for them. A record
// the mapping cannot deliver is an ErrUnreadable error naming the page.
func (d *Device) Read(ppn flash.PPN, data, spare []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, err := d.addr(ppn); err != nil {
		return err
	}
	p := d.params
	if data != nil && len(data) != p.DataSize {
		return fmt.Errorf("%w: data len %d, want %d", flash.ErrBufSize, len(data), p.DataSize)
	}
	if spare != nil && len(spare) != p.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d", flash.ErrBufSize, len(spare), p.SpareSize)
	}
	err := d.readMapped(ppn, func(rec []byte) {
		if data != nil {
			subtle.XORBytes(data, rec[:p.DataSize], d.ones)
		}
		if spare != nil {
			subtle.XORBytes(spare, rec[p.DataSize:], d.ones)
		}
	})
	if err != nil {
		return err
	}
	d.stats.AddRead(p.ReadMicros)
	return nil
}

// ReadData implements flash.Device.
func (d *Device) ReadData(ppn flash.PPN, data []byte) error { return d.Read(ppn, data, nil) }

// ReadBatch implements flash.Device (flash.ReadEach).
func (d *Device) ReadBatch(batch []flash.PageRead) error { return flash.ReadEach(d, batch) }

// ReadSpare implements flash.Device.
func (d *Device) ReadSpare(ppn flash.PPN, spare []byte) error { return d.Read(ppn, nil, spare) }

// Program implements flash.Device with NAND AND semantics (see
// programRecord) and writes the page record in one pwrite. The page
// payload is written before the page metadata, so a kill between the two
// leaves at worst a torn page that recovery detects, never metadata
// claiming an unwritten page.
func (d *Device) Program(ppn flash.PPN, data, spare []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.addr(ppn)
	if err != nil {
		return err
	}
	p := d.params
	if err := d.programRecord(d.scratch, ppn, data, spare); err != nil {
		return err
	}
	d.erased.remove(ppn)
	if d.policy == SyncAlways && spare != nil {
		// Durable write discipline: the data area must be on disk before
		// the spare header that makes the page look valid. A single write
		// spans filesystem blocks, and writeback order is arbitrary — a
		// power loss could persist a valid header over torn data, a state
		// recovery cannot detect (it trusts non-obsolete headers). The
		// sync barrier between the two writes removes that window;
		// maybeSync below makes the header durable.
		if _, err := d.f.WriteAt(d.scratch[:p.DataSize], d.recordOff(ppn)); err != nil {
			return err
		}
		if err := d.fsync(); err != nil {
			return err
		}
		if _, err := d.f.WriteAt(d.scratch[p.DataSize:], d.recordOff(ppn)+int64(p.DataSize)); err != nil {
			return err
		}
	} else if _, err := d.f.WriteAt(d.scratch, d.recordOff(ppn)); err != nil {
		return err
	}
	d.sparePrg[ppn]++
	if err := d.writePageMeta(ppn); err != nil {
		return err
	}
	d.stats.AddWrite(p.WriteMicros)
	return d.maybeSync()
}

// programRecord validates one full-page program — buffer sizes and
// AND-legality — and builds in rec the stored-domain record the page holds
// after it. A page erased in this session holds all 1s, so its record is
// the complement of data and spare (an erased spare for a nil one);
// otherwise the record is read back, checked for 0->1 transitions and
// OR-merged (the stored domain is complemented). It is the shared legality
// core of Program and ProgramBatch. The caller holds mu.
func (d *Device) programRecord(rec []byte, ppn flash.PPN, data, spare []byte) error {
	p := d.params
	if len(data) != p.DataSize {
		return fmt.Errorf("%w: data len %d, want %d (ppn %d)", flash.ErrBufSize, len(data), p.DataSize, ppn)
	}
	if spare != nil && len(spare) != p.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d (ppn %d)", flash.ErrBufSize, len(spare), p.SpareSize, ppn)
	}
	if d.erased.has(ppn) {
		subtle.XORBytes(rec[:p.DataSize], data, d.ones)
		if spare != nil {
			subtle.XORBytes(rec[p.DataSize:], spare, d.ones)
		} else {
			clear(rec[p.DataSize:])
		}
		return nil
	}
	if err := d.readMapped(ppn, func(m []byte) { copy(rec, m) }); err != nil {
		return err
	}
	if err := checkProgrammable(rec[:p.DataSize], data); err != nil {
		return fmt.Errorf("%w (ppn %d)", err, ppn)
	}
	if spare != nil {
		if err := checkProgrammable(rec[p.DataSize:], spare); err != nil {
			return fmt.Errorf("%w (ppn %d spare)", err, ppn)
		}
	}
	programInto(rec[:p.DataSize], data)
	if spare != nil {
		programInto(rec[p.DataSize:], spare)
	}
	return nil
}

// ProgramBatch implements the batched half of the flash.Device contract.
// The whole batch is validated and built in memory first (programRecord),
// so a validation failure (bad address, wrong buffer size, duplicate PPN,
// AND-conflict) programs nothing. The records are then written
// with ordered pwrites — a killed process leaves exactly a prefix of the
// batch at the file's granularity. Under SyncAlways the batch keeps the
// per-program durability discipline at batch scope: every data area is
// written and fsynced before any spare header, so a power loss can never
// persist a valid header over torn data; that is two fsyncs per batch
// where serial programs pay two per page. The coalescing tradeoff: the
// headers between the two barriers reach disk in arbitrary writeback
// order, so an OS crash or power loss there can persist any subset of the
// batch's pages (each individually intact) rather than a strict prefix —
// serial SyncAlways programs, which fsync every header, are the option
// for callers that need prefix durability across power loss.
func (d *Device) ProgramBatch(batch []flash.PageProgram) error {
	if len(batch) == 0 {
		return nil // zero programs cost zero syncs, as they would serially
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.params

	// Pass 0: validate everything and build the merged stored-domain
	// records before touching the file.
	recs := make([][]byte, len(batch))
	defer func() {
		for _, rec := range recs {
			if rec != nil {
				d.recBufs.Put(rec) //nolint:staticcheck // []byte header alloc is fine here
			}
		}
	}()
	seen := make(map[flash.PPN]struct{}, len(batch))
	for i, pp := range batch {
		if _, err := d.addr(pp.PPN); err != nil {
			return err
		}
		if _, dup := seen[pp.PPN]; dup {
			return fmt.Errorf("%w: ppn %d", flash.ErrDuplicatePPN, pp.PPN)
		}
		seen[pp.PPN] = struct{}{}
		rec := d.recBufs.Get().([]byte)
		recs[i] = rec
		if err := d.programRecord(rec, pp.PPN, pp.Data, pp.Spare); err != nil {
			return err
		}
	}
	for _, pp := range batch {
		d.erased.remove(pp.PPN)
	}

	if d.policy == SyncAlways {
		// Pass 1: all data areas, in batch order, then the barrier.
		for i, pp := range batch {
			if _, err := d.f.WriteAt(recs[i][:p.DataSize], d.recordOff(pp.PPN)); err != nil {
				return err
			}
		}
		if err := d.fsync(); err != nil {
			return err
		}
		// Pass 2: the spare headers and page metadata.
		for i, pp := range batch {
			if _, err := d.f.WriteAt(recs[i][p.DataSize:], d.recordOff(pp.PPN)+int64(p.DataSize)); err != nil {
				return err
			}
			d.sparePrg[pp.PPN]++
			if err := d.writePageMeta(pp.PPN); err != nil {
				return err
			}
			d.stats.AddWrite(p.WriteMicros)
		}
		return d.maybeSync()
	}

	// Without write-through there is no ordering to defend between the
	// two areas of one page: write whole records, in batch order.
	for i, pp := range batch {
		if _, err := d.f.WriteAt(recs[i], d.recordOff(pp.PPN)); err != nil {
			return err
		}
		d.sparePrg[pp.PPN]++
		if err := d.writePageMeta(pp.PPN); err != nil {
			return err
		}
		d.stats.AddWrite(p.WriteMicros)
	}
	return nil
}

// ProgramPartial implements flash.Device for a byte range of the data area.
func (d *Device) ProgramPartial(ppn flash.PPN, off int, chunk []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.addr(ppn); err != nil {
		return err
	}
	p := d.params
	if off < 0 || off+len(chunk) > p.DataSize {
		return fmt.Errorf("%w: partial program [%d,%d) beyond data area %d",
			flash.ErrOutOfRange, off, off+len(chunk), p.DataSize)
	}
	cur := d.scratch[:len(chunk)]
	if err := d.readMapped(ppn, func(m []byte) { copy(cur, m[off:]) }); err != nil {
		return err
	}
	if err := checkProgrammable(cur, chunk); err != nil {
		return fmt.Errorf("%w (ppn %d +%d)", err, ppn, off)
	}
	programInto(cur, chunk)
	d.erased.remove(ppn)
	if _, err := d.f.WriteAt(cur, d.recordOff(ppn)+int64(off)); err != nil {
		return err
	}
	d.stats.AddWrite(p.WriteMicros)
	return d.maybeSync()
}

// ProgramSpare implements flash.Device: pure AND semantics (no conflict
// check — a 1 bit means "leave alone"), bounded by MaxSparePrograms.
func (d *Device) ProgramSpare(ppn flash.PPN, spare []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.addr(ppn); err != nil {
		return err
	}
	p := d.params
	if len(spare) != p.SpareSize {
		return fmt.Errorf("%w: spare len %d, want %d", flash.ErrBufSize, len(spare), p.SpareSize)
	}
	if int(d.sparePrg[ppn]) >= d.maxSparePrograms() {
		return fmt.Errorf("%w: ppn %d has %d programs", flash.ErrSpareProgramLimit, ppn, d.sparePrg[ppn])
	}
	cur := d.scratch[:p.SpareSize]
	if err := d.readMapped(ppn, func(m []byte) { copy(cur, m[p.DataSize:]) }); err != nil {
		return err
	}
	programInto(cur, spare)
	d.erased.remove(ppn)
	if _, err := d.f.WriteAt(cur, d.recordOff(ppn)+int64(p.DataSize)); err != nil {
		return err
	}
	d.sparePrg[ppn]++
	if err := d.writePageMeta(ppn); err != nil {
		return err
	}
	d.stats.AddWrite(p.WriteMicros)
	return d.maybeSync()
}

// Erase implements flash.Device: the block's page records return to the
// erased state (zeros in the stored domain) and its spare-program
// counters reset.
func (d *Device) Erase(blk int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	p := d.params
	if blk < 0 || blk >= p.NumBlocks {
		return fmt.Errorf("%w: block %d", flash.ErrOutOfRange, blk)
	}
	if d.bad[blk] {
		return fmt.Errorf("%w: block %d", flash.ErrBadBlock, blk)
	}
	first := flash.PPN(blk * p.PagesPerBlock)
	zeros := d.zeros.Get().([]byte)
	_, err := d.f.WriteAt(zeros, d.recordOff(first))
	d.zeros.Put(zeros) //nolint:staticcheck // []byte header alloc is fine here
	if err != nil {
		return err
	}
	for i := 0; i < p.PagesPerBlock; i++ {
		d.sparePrg[first+flash.PPN(i)] = 0
		d.erased.add(first + flash.PPN(i))
	}
	pm := make([]byte, p.PagesPerBlock*pageMetaSize)
	if _, err := d.f.WriteAt(pm, d.pageMetaOff+int64(first)*pageMetaSize); err != nil {
		return err
	}
	d.eraseCount[blk]++
	if err := d.writeBlockMeta(blk); err != nil {
		return err
	}
	d.stats.AddErase(p.EraseMicros)
	return d.maybeSync()
}

// MarkBad implements flash.Device and persists the flag.
func (d *Device) MarkBad(blk int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if blk < 0 || blk >= d.params.NumBlocks {
		return fmt.Errorf("%w: block %d", flash.ErrOutOfRange, blk)
	}
	d.bad[blk] = true
	return d.writeBlockMeta(blk)
}

// IsBad implements flash.Device.
func (d *Device) IsBad(blk int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bad[blk]
}

// EraseCount implements flash.Device.
func (d *Device) EraseCount(blk int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int(d.eraseCount[blk])
}

// Stats implements flash.Device; safe to call concurrently with operations.
func (d *Device) Stats() flash.Stats { return d.stats.Snapshot() }

// ResetStats implements flash.Device.
func (d *Device) ResetStats() { d.stats.Reset() }

// Wear implements flash.Device.
func (d *Device) Wear() flash.WearSummary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	w := flash.WearSummary{Limit: d.params.EraseLimit}
	if w.Limit == 0 {
		w.Limit = flash.DefaultEraseLimit
	}
	if len(d.eraseCount) == 0 {
		return w
	}
	w.MinErase = int(d.eraseCount[0])
	for _, ec := range d.eraseCount {
		if int(ec) < w.MinErase {
			w.MinErase = int(ec)
		}
		if int(ec) > w.MaxErase {
			w.MaxErase = int(ec)
		}
		w.TotalErases += int64(ec)
	}
	w.MeanErase = float64(w.TotalErases) / float64(len(d.eraseCount))
	return w
}

// Sync implements flash.Device: fsync the backing file (regardless of
// policy, so callers can force a durability point).
func (d *Device) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.fsync()
}

// Close implements flash.Device: sync per policy, unmap and release the
// file. It holds the lock exclusively, so no read is inside the mapping,
// and every later read finds the device closed before it touches it.
// Close is idempotent.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.policy != SyncNever {
		err = d.fsync()
	}
	if uerr := syscall.Munmap(d.mapped); err == nil {
		err = uerr
	}
	d.mapped = nil
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d *Device) maybeSync() error {
	if d.policy == SyncAlways {
		return d.fsync()
	}
	return nil
}

// fsync syncs the backing file, counting the operation in Stats.Syncs.
// The caller holds the lock.
func (d *Device) fsync() error {
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.stats.AddSync()
	return nil
}

func (d *Device) maxSparePrograms() int {
	if d.params.MaxSparePrograms == 0 {
		return flash.DefaultMaxSparePrograms
	}
	return d.params.MaxSparePrograms
}

// pageBits is a set of pages, one bit each.
type pageBits []uint64

func newPageBits(n int) pageBits { return make(pageBits, (n+63)/64) }

func (b pageBits) has(ppn flash.PPN) bool { return b[ppn/64]&(1<<(uint(ppn)%64)) != 0 }
func (b pageBits) add(ppn flash.PPN)      { b[ppn/64] |= 1 << (uint(ppn) % 64) }
func (b pageBits) remove(ppn flash.PPN)   { b[ppn/64] &^= 1 << (uint(ppn) % 64) }

// fill adds every page.
func (b pageBits) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// The two kernels below work eight bytes at a time, then the tail.

// checkProgrammable reports ErrProgramConflict if the logical image want
// has a 1 bit where the stored (complemented) image says the cell is
// already 0: in the stored domain a programmed-to-0 bit is 1, so the
// conflict condition is want & stored != 0.
func checkProgrammable(stored, want []byte) error {
	stored = stored[:len(want)]
	i := 0
	for ; i+8 <= len(want); i += 8 {
		if binary.LittleEndian.Uint64(want[i:])&binary.LittleEndian.Uint64(stored[i:]) != 0 {
			return flash.ErrProgramConflict
		}
	}
	for ; i < len(want); i++ {
		if want[i]&stored[i] != 0 {
			return flash.ErrProgramConflict
		}
	}
	return nil
}

// programInto applies a logical AND-program to a stored-domain image:
// stored |= ^want.
func programInto(stored, want []byte) {
	stored = stored[:len(want)]
	i := 0
	for ; i+8 <= len(want); i += 8 {
		binary.LittleEndian.PutUint64(stored[i:], binary.LittleEndian.Uint64(stored[i:])|^binary.LittleEndian.Uint64(want[i:]))
	}
	for ; i < len(want); i++ {
		stored[i] |= ^want[i]
	}
}
