// Page integrity: spare-area sealing, read-path verification, and
// single-page self-healing.
//
// Every base and differential page the store programs is "sealed" when
// the geometry allows it: the spare area carries, after the
// 23-byte header, a SEC-DED ECC over the data area (3 bytes per 256-byte
// sector, internal/flash/ecc) and a CRC-8 checksum over the header fields
// (see the layout comment in internal/ftl). Sealing is pure CPU — the
// trailer rides the page's one program operation — so it is always on
// when it fits.
//
// On read, the verifying paths correct single-bit flips silently
// (Telemetry.EccCorrectedBits) and treat an uncorrectable sector as a
// single-page failure in the sense of Graefe & Kuno: the page is
// rebuilt from a redundant source when one survives — PDL's structural
// redundancy makes that unusually often possible — and only when none
// does the read returns a typed *ftl.PageError. The contract is strict:
// a read either returns exactly the bytes written, or the typed error;
// never silently wrong data, never a panic.
//
// Healing decision tree for an uncorrectably corrupt BASE page (the read
// path's resolveDiff, applyFromPage and applyRecord in read.go):
//
//  1. a buffered differential for the pid exists (shard write buffer):
//     if its ranges cover every corrupt byte, apply it and serve — the
//     heal stays transient (the buffered differential is the complete
//     delta against the lost base, so no durable base can be written
//     until it flushes); if it does not cover, the uncovered bytes are
//     unrecoverable (they equal the lost base's) -> PageError.
//  2. no buffered differential, but a differential page is linked: take
//     its newest record from the differential cache or a verified read; if
//     the record covers every corrupt byte, apply it — buf is then
//     the current logical page — and make the heal durable: program the
//     merged image as a new base page and repoint the mapping with a
//     fresh time stamp, releasing the old base and differential.
//  3. otherwise -> PageError{pid, ppn, CorruptBase}.
//
// A corrupt DIFFERENTIAL page on a foreground read has no redundant
// source left by construction (the write buffer and the differential cache
// are consulted before the flash read) -> PageError{pid, ppn, CorruptDiff}.
// A whole-page write heals either kind by overwrite.
//
// A cached record ranks with the write buffer as a redundant source: the
// cache is filled from the page image commit programs (and from verified
// reads), never from the flash copy it stands in for, so while a pid's
// record is cached its reads succeed, byte-exact, although the differential
// page in flash may have gone bad meanwhile; the corruption surfaces at the
// first read after the record left the cache. Garbage collection uses the
// same source: a corrupt victim differential page is rebuilt from the cache
// if every one of its valid records is there (gc.go), and fails the
// collection with the typed error otherwise.
//
// A retained base image (baseImages) is the same kind of copy on the write
// side: the read path keeps the base page it verified clean, and the write
// that follows within the window diffs against that copy and does not read,
// or re-verify, the flash page. What it gives up is one heal opportunity: a
// base page that rots between a read and the write that follows it is not
// replaced at that write, as a write that read it would have done (heal by
// overwrite). The differential the write buffers is still computed against
// the true base content, so nothing wrong is ever stored, and the rot is met
// by the next read of the pid: healed there if the differential covers the
// rotten sectors (case 1 or 2 above), reported as PageError{CorruptBase} if
// not, never returned as wrong bytes. A base image with uncorrectable sectors
// is never retained, so the write after a read that found corruption reads
// the page itself and heals it by overwrite as before.
//
// How long the flash copy goes unlooked-at depends on who writes. A caller
// that writes what it has just read leaves one call between the verified read
// and the write. A buffer pool that names the page when it dirties it
// (RetainBase) has the image held until the frame is evicted: the unverified
// interval is a pool residency, hundreds of reads instead of one call, and a
// page that rots in it waits that much longer for the read that heals or
// reports it. The contract is widened in time, not in kind: what is stored is
// still computed against the true base content, and what is read is still
// verified. TestWriteFromRetainedImageOverRottenBase holds all of it.
package core

import (
	"sync/atomic"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
	"pdl/internal/ftl"
)

// integrityTelemetry holds the integrity counters. They are atomics
// because verifying reads run with no store-level lock held.
type integrityTelemetry struct {
	eccCorrectedBits       atomic.Int64
	pagesHealed            atomic.Int64
	unrecoverablePages     atomic.Int64
	headerChecksumFailures atomic.Int64
}

// getVerifySpare returns a pooled spare-area scratch for a verifying
// read, or nil when the geometry carries no trailer to verify against (the
// read funnels then skip the spare area entirely).
func (s *Store) getVerifySpare() []byte {
	if !s.sealed {
		return nil
	}
	return s.spares.get()
}

// putVerifySpare returns a verify scratch to the pool (nil is a no-op).
func (s *Store) putVerifySpare(b []byte) {
	if b != nil {
		s.spares.put(b)
	}
}

// seal writes the data-area ECC and header checksum into an encoded
// spare (ftl.SealSpare); a no-op when the geometry cannot carry the
// trailer, so every program site calls it unconditionally between
// EncodeHeaderInto and the program.
func (s *Store) seal(data, spare []byte) {
	if s.sealed {
		ftl.SealSpare(data, spare)
	}
}

// verifyData checks data against the ECC in its sealed spare, correcting
// single-bit flips in place (counted in telemetry) and returning the
// indices of uncorrectable sectors (nil when clean).
func (s *Store) verifyData(data, spare []byte) []int {
	corrected, bad, err := ecc.CorrectPageSectors(data, ftl.SpareECC(spare, len(data)))
	if err != nil {
		// Only reachable on a geometry mismatch, which New rules out;
		// treat the page as wholly unverifiable rather than panicking.
		bad = make([]int, (len(data)+ecc.SectorSize-1)/ecc.SectorSize)
		for i := range bad {
			bad[i] = i
		}
	}
	if corrected > 0 {
		s.itel.eccCorrectedBits.Add(int64(corrected))
	}
	return bad
}

// readKind says what a raw device read was for; the funnels below count
// every page they read under one, so the kinds sum to the reads the store
// cost the device (Telemetry.BaseReads and the fields after it).
type readKind int

const (
	readBase      readKind = iota // PDL_Reading: a base page
	readDiff                      // PDL_Reading: a differential page
	readWriteBase                 // PDL_Writing step 1: the base page a write is compared with
	readGC                        // relocation out of a victim block
	readRecover                   // the recovery scan
)

// The three functions below are the package's raw device READ funnels;
// pdlvet's deviceio analyzer rejects device reads anywhere else in core,
// so no read path can bypass verification by construction.

// verifiedReadStable is the raw read of the optimistic (version-checked)
// paths: it reads ppn's data area — and, into a pooled scratch, its spare
// area on a sealed store — re-checks the pid's mapping version, and
// only then verifies, so corrected-bit counts and heal decisions are never
// taken on bytes a concurrent relocation made stale.
//
//pdlvet:ignore deviceio raw-read funnel; every other core read goes through here
func (s *Store) verifiedReadStable(kind readKind, ppn flash.PPN, data []byte, pid uint32, v uint64) (stable bool, bad []int, err error) {
	spare := s.getVerifySpare()
	if spare == nil {
		err = s.dev.ReadData(ppn, data)
		s.countReads(kind, err)
		return s.mt.stable(pid, v), nil, err
	}
	defer s.putVerifySpare(spare)
	err = s.dev.Read(ppn, data, spare)
	s.countReads(kind, err)
	if !s.mt.stable(pid, v) {
		return false, nil, nil
	}
	if err != nil {
		return true, nil, err
	}
	return true, s.verifyData(data, spare), nil
}

// verifiedRead is the raw read of the locked path, GC relocation (it holds
// the victim's channel lock, so no version check is needed): read and
// verify in one step. A nil spare skips verification.
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) verifiedRead(ppn flash.PPN, data, spare []byte) (bad []int, err error) {
	if spare == nil {
		err = s.dev.ReadData(ppn, data)
		s.countReads(readGC, err)
		return nil, err
	}
	err = s.dev.Read(ppn, data, spare)
	s.countReads(readGC, err)
	if err != nil {
		return nil, err
	}
	return s.verifyData(data, spare), nil
}

// countReads attributes a one-page device read that returned err: devices
// count a read when it succeeds, and so do the funnels.
func (s *Store) countReads(kind readKind, err error) {
	if err != nil {
		return
	}
	switch kind {
	case readBase:
		s.rtel.baseReads.Add(1)
	case readDiff:
		s.rtel.diffReads.Add(1)
	case readWriteBase:
		s.rtel.writeBaseReads.Add(1)
	case readGC:
		s.rtel.gcReads.Add(1)
	case readRecover:
		s.rtel.recoverReads.Add(1)
	}
}

// scanRead is the raw read of the recovery scan: one charged device read
// returning both areas, with header-checksum and ECC interpretation left to
// the scan (erased and torn pages are exempt from verification by
// construction, so the scan cannot delegate to verifyData blindly).
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) scanRead(ppn flash.PPN, data, spare []byte) error {
	err := s.dev.Read(ppn, data, spare)
	s.countReads(readRecover, err)
	return err
}

// coversSectors reports whether differential d overwrites every byte of
// the given 256-byte sectors — the condition under which applying d to a
// corrupt base yields a byte-exact current page. Ranges are ascending
// and non-overlapping (diff.Compute's postcondition).
func coversSectors(d diff.Differential, bad []int, pageSize int) bool {
	for _, sec := range bad {
		pos := sec * ecc.SectorSize
		end := pos + ecc.SectorSize
		if end > pageSize {
			end = pageSize
		}
		covered := false
		for _, r := range d.Ranges {
			if r.Off > pos {
				break // a gap at pos: the corrupt byte survives
			}
			if e := r.Off + len(r.Data); e > pos {
				pos = e
				if pos >= end {
					covered = true
					break
				}
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
