// Package ftl provides the machinery shared by every flash page-update
// method in this module: the Method interface that storage layers program
// against, the spare-area header format used to type and identify physical
// pages, and a free-page allocator with greedy garbage collection.
//
// The paper calls this layer the Flash Translation Layer (FTL) or "flash
// memory driver"; page-differential logging's headline claim is that it can
// be implemented entirely here, without touching the DBMS above (Figure 10).
package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
)

// Errors returned by this package.
var (
	// ErrNoSpace reports that the flash is full of valid data: no free
	// page exists and garbage collection cannot reclaim any block.
	ErrNoSpace = errors.New("ftl: flash memory is full (no reclaimable block)")
	// ErrPageRange reports a logical page id outside the configured
	// database size.
	ErrPageRange = errors.New("ftl: logical page id out of range")
	// ErrPageSize reports a logical page buffer whose size differs from
	// the flash data-area size.
	ErrPageSize = errors.New("ftl: logical page size does not match flash page size")
	// ErrNotWritten reports a read of a logical page that has never been
	// written to flash.
	ErrNotWritten = errors.New("ftl: logical page has never been written")
)

// Method is a flash page-update method: a policy for storing logical pages
// into physical flash pages. The four implementations in this module are
// page-differential logging (internal/core), out-place update and in-place
// update (internal/opu, internal/ipu), and in-page logging (internal/ipl).
//
// The interface is deliberately the one a disk driver exposes — read a page,
// write a page, flush — which is what makes methods implementable below an
// unmodified DBMS.
//
// Methods no longer leak the concrete emulator: the old Chip() *flash.Chip
// accessor is replaced by Device() flash.Device plus the direct PageSize
// and Stats accessors that cover what upper layers actually need, so the
// same store runs over the in-memory emulator or the persistent
// file-backed device (internal/flash/filedev) unchanged.
//
// A method may implement three optional interfaces beside it, which callers
// probe for and do without: BatchWriter and BatchReader carry the same reads
// and writes several at a time, and BaseRetainer is a hint. None of them asks
// the layer above for anything a disk driver's caller does not already know —
// which pages it is about to write — and a caller that uses none of them gets
// the same pages back, so the method stays DBMS-independent in the paper's
// sense.
type Method interface {
	// Name identifies the method and its configuration, e.g. "PDL(256B)".
	Name() string
	// ReadPage recreates logical page pid into buf (len = page size).
	ReadPage(pid uint32, buf []byte) error
	// WritePage reflects the up-to-date logical page into flash memory.
	WritePage(pid uint32, data []byte) error
	// Flush forces any buffered state (e.g. PDL's differential write
	// buffer, IPL's log buffers) out to flash; the paper's write-through.
	Flush() error
	// Device returns the underlying flash device.
	Device() flash.Device
	// PageSize returns the logical page size in bytes (the device's
	// data-area size), the one geometry fact upper layers size buffers by.
	PageSize() int
	// Stats returns a snapshot of the device's operation counts and
	// simulated I/O time; safe to call while operations are in flight.
	Stats() flash.Stats
}

// PageWrite is one logical page reflection of a write batch: the
// up-to-date image of page PID. Data must stay untouched for the duration
// of the batch call that carries it.
type PageWrite struct {
	PID  uint32
	Data []byte
}

// BatchWriter is implemented by page-update methods whose write path
// accepts whole batches of reflections at once (the PDL store). A
// WriteBatch call is semantically equivalent to calling WritePage for each
// element in slice order, but lets the method coalesce its physical page
// programs — and the device its durability work — across the batch. The
// buffer pool's flush path feeds every method through this interface when
// available and falls back to per-page WritePage otherwise.
type BatchWriter interface {
	WriteBatch(writes []PageWrite) error
}

// BatchReader is implemented by page-update methods whose read path
// accepts whole batches of logical page reads at once (the PDL store). A
// ReadBatch call fills bufs[i] with the content of pids[i] exactly as
// calling ReadPage for each pair would, and lets the method take its locks
// once for the whole group. On error the buffer
// contents are unspecified; no mapping or flash state changes (reads never
// mutate). Callers are drivers that hold a list of pages and probe the method
// for it (the benchmark's page_file workload, the conformance suite of
// ftltest); the buffer pool faults one page per miss and does not.
type BatchReader interface {
	ReadBatch(pids []uint32, bufs [][]byte) error
}

// BaseRetainer is implemented by page-update methods that compare a write
// with the page's previous image and can keep that image in memory (the PDL
// store). RetainBase(pid) is a hint that the caller has modified its copy of
// page pid, which it read a moment ago, and will write it back some time
// later: the method may keep what it needs of the image it served, so that the
// write does not read it from flash again. It names a page, never its
// content, returns nothing and may be ignored; nothing about correctness
// depends on the call being made, made once, or made for the right page. The
// buffer pool calls it when a clean frame is first marked dirty.
type BaseRetainer interface {
	RetainBase(pid uint32)
}

// Page type tags stored in spare[0]. 0xFF is the erased value, so a free
// page is distinguishable from every written page type.
const (
	// TypeFree marks a never-programmed page (erased spare).
	TypeFree byte = 0xFF
	// TypeData marks a whole-logical-page image written by page-based
	// methods (OPU, IPU) and by IPL for its in-place data pages.
	TypeData byte = 0xA0
	// TypeBase marks a PDL base page.
	TypeBase byte = 0xB0
	// TypeDiff marks a PDL differential page.
	TypeDiff byte = 0xD0
	// TypeLog marks an IPL log page.
	TypeLog byte = 0x90
	// 0xC0 stays reserved: old file images hold Checkpoint chunks under it.
)

// Spare-area layout (within the 64-byte spare area of each page):
//
//	[0]      page type tag
//	[1]      obsolete flag: 0xFF valid, 0x00 obsolete
//	[2:6]    logical page id (PID), little endian
//	[6:14]   creation time stamp, little endian
//	[14:22]  block sequence number, little endian (the activation sequence
//	         of the containing block; recovery restores the allocator's
//	         per-block sequence from it, which is a block's age to
//	         cost-benefit victim selection)
//	[22]     reserved; old file images hold 0x4F here (a routing hint no
//	         reader consults). Left erased, never decoded, and inside the
//	         header checksum, so those images still verify
//
// When the geometry permits (data area sector-aligned, spare area large
// enough), a sealed page additionally carries, immediately after the
// header:
//
//	[23:23+E]  SEC-DED ECC over the data area, 3 bytes per 256-byte
//	           sector (internal/flash/ecc); E = DataSize/256*3, 24 bytes
//	           for the default 2KB page
//	[23+E]     header checksum (CRC-8, poly 0x07) over spare[0] and
//	           spare[2:23] — everything in the header EXCEPT the obsolete
//	           flag, so the obsolete-marking partial program
//	           (ObsoleteSpareInto) never invalidates a sealed spare
//
// A fully erased spare decodes as TypeFree and is exempt from the checksum
// (torn-program detection already covers it). The remaining bytes are left
// erased for method-specific use.
const (
	sparePosType     = 0
	sparePosObsolete = 1
	sparePosPID      = 2
	sparePosTS       = 6
	sparePosSeq      = 14
	// HeaderSpareBytes is the number of spare bytes the header consumes.
	HeaderSpareBytes = 23
)

// NoPID is the PID stored for pages that do not belong to a single logical
// page (differential pages, log pages); it is the erased value.
const NoPID uint32 = 0xFFFFFFFF

// Header is the decoded spare-area header of a physical page.
type Header struct {
	Type     byte
	Obsolete bool
	PID      uint32
	TS       uint64
	// Seq is the activation sequence number of the containing block at
	// the time the page was programmed (0 when the writer does not track
	// sequences).
	Seq uint64
}

// erasedTemplates caches one immutable all-0xFF image per spare size, so
// the hot header-encoding paths fill buffers with a copy (memmove) instead
// of a byte loop, and the Into variants below need no allocation at all.
var erasedTemplates sync.Map // int -> []byte

// erasedTemplate returns the shared erased image of size n. Callers must
// not modify it.
func erasedTemplate(n int) []byte {
	if t, ok := erasedTemplates.Load(n); ok {
		return t.([]byte)
	}
	t := make([]byte, n)
	for i := range t {
		t[i] = 0xFF
	}
	actual, _ := erasedTemplates.LoadOrStore(n, t)
	return actual.([]byte)
}

// EncodeHeader writes h into a freshly allocated erased spare image of the
// given size. Hot paths that can reuse a scratch buffer should prefer
// EncodeHeaderInto.
func EncodeHeader(h Header, spareSize int) []byte {
	spare := make([]byte, spareSize)
	EncodeHeaderInto(h, spare)
	return spare
}

// EncodeHeaderInto writes h into spare, first resetting it to the erased
// state. It allocates nothing; every page-update method keeps a per-store
// spare scratch (written under its device serialization) and encodes into
// it, which keeps header encoding off the write path's allocation profile.
func EncodeHeaderInto(h Header, spare []byte) {
	copy(spare, erasedTemplate(len(spare)))
	spare[sparePosType] = h.Type
	if h.Obsolete {
		spare[sparePosObsolete] = 0x00
	}
	binary.LittleEndian.PutUint32(spare[sparePosPID:], h.PID)
	binary.LittleEndian.PutUint64(spare[sparePosTS:], h.TS)
	binary.LittleEndian.PutUint64(spare[sparePosSeq:], h.Seq)
}

// DecodeHeader parses the spare-area header.
func DecodeHeader(spare []byte) Header {
	h := Header{
		Type:     spare[sparePosType],
		Obsolete: spare[sparePosObsolete] != 0xFF,
		PID:      binary.LittleEndian.Uint32(spare[sparePosPID:]),
		TS:       binary.LittleEndian.Uint64(spare[sparePosTS:]),
		Seq:      binary.LittleEndian.Uint64(spare[sparePosSeq:]),
	}
	if h.Seq == ^uint64(0) { // erased field: writer did not track sequences
		h.Seq = 0
	}
	return h
}

// ObsoleteSpare returns a spare image that, when partially programmed onto
// a page, clears only the obsolete flag (paper footnote 6: "changing the
// obsolete bit in the spare area of the page from 1 to 0").
func ObsoleteSpare(spareSize int) []byte {
	spare := make([]byte, spareSize)
	ObsoleteSpareInto(spare)
	return spare
}

// ObsoleteSpareInto fills spare with the obsolete-marking image without
// allocating; the allocator reuses one scratch per channel for MarkObsolete.
func ObsoleteSpareInto(spare []byte) {
	copy(spare, erasedTemplate(len(spare)))
	spare[sparePosObsolete] = 0x00
}

// CheckPID validates a logical page id against the database size.
func CheckPID(pid uint32, numPages int) error {
	if int(pid) >= numPages {
		return fmt.Errorf("%w: pid %d, database has %d pages", ErrPageRange, pid, numPages)
	}
	return nil
}

// CheckPageBuf validates a logical page buffer against the data-area size.
func CheckPageBuf(buf []byte, dataSize int) error {
	if len(buf) != dataSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrPageSize, len(buf), dataSize)
	}
	return nil
}

// ECCSpareBytes returns the spare bytes the per-sector ECC of a data area
// occupies: 3 per 256-byte sector, or 0 when the data area is not
// sector-aligned (integrity disabled).
func ECCSpareBytes(dataSize int) int {
	if dataSize <= 0 || dataSize%ecc.SectorSize != 0 {
		return 0
	}
	return dataSize / ecc.SectorSize * ecc.CodeSize
}

// IntegritySpareBytes returns the spare bytes the whole integrity trailer
// occupies (data ECC plus one header-checksum byte), or 0 when the data
// area cannot carry ECC.
func IntegritySpareBytes(dataSize int) int {
	e := ECCSpareBytes(dataSize)
	if e == 0 {
		return 0
	}
	return e + 1
}

// IntegrityFits reports whether a page of the given geometry can carry the
// integrity trailer after its header.
func IntegrityFits(dataSize, spareSize int) bool {
	n := IntegritySpareBytes(dataSize)
	return n > 0 && spareSize >= HeaderSpareBytes+n
}

// SpareECC returns the ECC region of a spare for the given data size. It
// is a view, not a copy.
func SpareECC(spare []byte, dataSize int) []byte {
	return spare[HeaderSpareBytes : HeaderSpareBytes+ECCSpareBytes(dataSize)]
}

// crc8Tab[b] is the CRC-8 (polynomial 0x07, the CCITT/ATM HEC polynomial)
// of the single byte b; a header checksum is one lookup per header byte.
var crc8Tab = func() (tab [256]byte) {
	for i := range tab {
		crc := byte(i)
		for k := 0; k < 8; k++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		tab[i] = crc
	}
	return tab
}()

// HeaderChecksum computes the CRC-8 of an encoded spare's header fields.
// The obsolete flag (spare[1]) is deliberately excluded: obsoleting a page
// is a later partial program of that one byte and must not invalidate the
// seal.
func HeaderChecksum(spare []byte) byte {
	crc := crc8Tab[spare[sparePosType]]
	for _, b := range spare[sparePosObsolete+1 : HeaderSpareBytes] {
		crc = crc8Tab[crc^b]
	}
	return crc
}

// SealSpare writes the data-area ECC and the header checksum into the
// integrity trailer of an encoded spare. It allocates nothing and is a
// no-op when the geometry cannot carry the trailer, so writers may call it
// unconditionally after EncodeHeaderInto.
func SealSpare(data, spare []byte) {
	if !IntegrityFits(len(data), len(spare)) {
		return
	}
	_ = ecc.ComputePageInto(data, SpareECC(spare, len(data))) // IntegrityFits checked the sizes
	ResealHeader(spare, len(data))
}

// ResealHeader recomputes only the header-checksum byte of a sealed
// spare, leaving the ECC region as the caller staged it. Relocation
// paths that carry forward a page's ORIGINAL ECC bytes — because the
// data could not be verified and a fresh seal would launder the
// corruption — use it after re-encoding the header (whose Seq and mode
// fields change with the move).
func ResealHeader(spare []byte, dataSize int) {
	spare[HeaderSpareBytes+ECCSpareBytes(dataSize)] = HeaderChecksum(spare)
}

// VerifyHeaderChecksum reports whether a sealed spare's stored header
// checksum matches its header fields. Callers must have established that
// the geometry fits and that the page is not erased (TypeFree spares carry
// no seal).
func VerifyHeaderChecksum(spare []byte, dataSize int) bool {
	return spare[HeaderSpareBytes+ECCSpareBytes(dataSize)] == HeaderChecksum(spare)
}

// PageErrorKind classifies an unrecoverable page-integrity failure.
type PageErrorKind uint8

// Page-error kinds.
const (
	// CorruptBase reports an uncorrectable base (or whole-image) page
	// with no surviving redundant source to heal from.
	CorruptBase PageErrorKind = iota + 1
	// CorruptDiff reports an uncorrectable differential page whose
	// records could not be re-derived from buffered or cached state.
	CorruptDiff
	// CorruptHeader reports a spare area whose header failed its
	// checksum, so the page cannot be trusted to describe itself.
	CorruptHeader
)

// String names the kind.
func (k PageErrorKind) String() string {
	switch k {
	case CorruptBase:
		return "corrupt base"
	case CorruptDiff:
		return "corrupt differential"
	case CorruptHeader:
		return "corrupt header"
	default:
		return fmt.Sprintf("PageErrorKind(%d)", uint8(k))
	}
}

// PageError is the typed error a verifying read path returns when a
// physical page is corrupt beyond both ECC correction and self-healing.
// It is the integrity contract's terminal case: a read either returns the
// exact bytes written (possibly after correcting or healing), or a
// *PageError — never silently wrong data, never a panic.
type PageError struct {
	// PID is the logical page whose read failed (NoPID when the failure
	// is not attributable to one logical page, e.g. a corrupt header
	// found during scan).
	PID uint32
	// PPN is the corrupt physical page.
	PPN flash.PPN
	// Kind classifies the failure.
	Kind PageErrorKind
}

// Error formats the failure.
func (e *PageError) Error() string {
	if e.PID == NoPID {
		return fmt.Sprintf("ftl: unrecoverable page failure: %v at ppn %d", e.Kind, e.PPN)
	}
	return fmt.Sprintf("ftl: unrecoverable page failure: %v at ppn %d (pid %d)", e.Kind, e.PPN, e.PID)
}
