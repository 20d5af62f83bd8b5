// Package core implements page-differential logging (PDL), the page-update
// method proposed by Kim, Whang, and Song in "Page-Differential Logging: An
// Efficient and DBMS-independent Approach for Storing Data into Flash
// Memory" (SIGMOD 2010).
//
// PDL stores each logical page as up to two physical pages: a base page
// holding a (possibly old) full image, and a differential page holding the
// difference between the base page and the up-to-date logical page. The
// method follows three design principles:
//
//   - writing difference only: when a logical page is reflected into flash,
//     only its differential is written;
//   - at-most-one-page writing: at most one physical page is written per
//     reflection, no matter how many times the page was updated in memory;
//   - at-most-two-page reading: recreating a logical page reads at most the
//     base page and one differential page.
//
// Because the differential is computed by comparing the updated logical
// page with its base page — not by intercepting update operations — PDL
// lives entirely inside the flash driver and requires no DBMS changes.
//
// # One write step, one commit, one read step
//
// Each algorithm of the paper is written once. PDL_Writing (Figure 7) is
// stageWrite (batch.go): resolve the base image — the one the read
// path has just served, if it is still retained or a buffer pool's hint has
// had it held (see baseImages, RetainBase), else a flash read — heal a
// corrupt base by overwrite, compute the differential,
// and take Case 1, 2 or 3 — against a writeStage, which holds the write
// buffer the step mutates and the page programs it staged. The writing
// procedures of Figure 8 are commit: it picks channels, allocates, encodes
// and seals the headers, programs, and repoints the mapping table, for every
// foreground program there is. The entries are thin drivers of those two:
//
//   - WritePage runs one step on the live shard buffer and commits what it
//     staged; if the step or the commit fails, it puts the buffer's saved
//     bytes back, so a failed write leaves the pid's previously buffered
//     differential in place and readable;
//   - WriteBatch runs the steps of each shard on a clone of its buffer, in
//     parallel, commits every staged program as one device batch, and only
//     then publishes the clones, so a failed batch applies nothing;
//   - Flush stages each non-empty buffer as a spill and commits them;
//   - the read path's durable heal commits one base page, pinned to the
//     mapping version it read.
//
// PDL_Reading (Figure 9) is readOnce (read.go): read the base page, then,
// given the pid's base image, find its record in the write buffer or in the
// differential cache (see diffCache) with resolveDiff, or name the
// differential page to read and find it there (diff.FindIn), then merge it
// with applyRecord, whichever of the three it came from, and cache it. It
// retains the clean base image it read, before the merge, for the write that
// follows (keepBaseImage). ReadPage runs it on one pid until the mapping
// holds still under it, and ReadBatch does the same for each pid of a batch.
//
// And a differential has one representation, the wire record of
// internal/diff, from the moment stageWrite appends diff.Compute's result to
// the write buffer: the buffer is a page of such records (writeBuffer), a
// spill is that page copied and padded, commit reads what a spill carries off
// the page image (diff.Records), the differential cache holds the same
// records, every read merges one with diff.ApplyRecord, and garbage
// collection compacts by copying the records still current (gc.go). The
// decoded diff.Differential exists as diff.Compute's result, until it is
// appended, and in the read path's heal of an uncorrectably corrupt base,
// which decodes the record to check that its ranges cover the damage.
//
// # Page validity
//
// Which physical pages are valid is DRAM state: the mapping table says what a
// collection relocates, the allocator's per-block counters pick the victims,
// and a superseded page is retired by bumping a counter (ftl.NoteObsolete)
// where PDL_Writing programs its obsolete flag. Recovery rebuilds both from
// the creation time stamps, as PDL_RecoveringfromCrash must anyway (a crash
// loses marks), and writes nothing. The invariant that makes this safe: a
// page goes unmarked only if a page with a greater time stamp, or a
// content-identical copy with the same one, supersedes it. The one page that
// breaks it keeps its physical mark (discardLostHeal in batch.go).
//
// # Concurrency model
//
// A Store is safe for concurrent use by multiple goroutines. State is
// decomposed into purpose-built components, each with its own
// synchronization, in a strict lock hierarchy (outer to inner):
//
//		shard lock  >  channel lock  >  mapTable lock  >  diff-cache lock, base-image lock
//
//	  - each of the Options.Shards write-buffer shards has its own RWMutex
//	    serializing the buffered differentials of the pids it owns (so
//	    per-pid write order is well defined); ReadBatch/WriteBatch/Flush
//	    take several shard locks together, always in ascending index order;
//	  - each channel lock (one per flash channel; a plain device has
//	    exactly one) serializes that channel's mutations: allocation, page
//	    programs with their mapping-table commits, and garbage collection;
//	    commit and garbage collection take the locks of the channels they
//	    mutate and no other, so mutations on different channels run in
//	    parallel. It is held per commit — or, in background-GC mode, per
//	    collected victim — never across a whole collection cycle. A commit
//	    touching several channels locks them in ascending index order;
//	  - the mapTable owns the mapping state (ppmt, time stamps, vdct,
//	    reverseBase, a slot per physical page that is checked against ppmt
//	    and never cleared) behind its own RWMutex plus a per-pid version
//	    counter;
//	  - the differential cache (see diffCache) and the retained base images
//	    (see baseImages) each have an innermost mutex, only ever taken last
//	    and never together.
//
// Reads take NO store-level lock over the device: ReadPage snapshots the
// pid's mapping entry with its version, reads the flash pages it points
// at (devices allow concurrent reads), and retries in the rare case the
// version moved — which only garbage-collection relocation or a flush of
// the same pid can cause. Garbage collection always repoints the mapTable
// before erasing a victim block, so a passing version check proves the
// bytes read belonged to the looked-up entry. The expensive CPU work of
// the write path — computing the differential by comparing two page
// images — likewise runs outside every store-level lock.
//
// With Options.BackgroundGC, victim selection and relocation run
// incrementally on a background goroutine (see internal/gc): a commit
// kicks its channel's collector at the watermark and only collects on its
// own goroutine when the erased-block reserve itself is reached
// (backpressure). With BackgroundGC off, every allocation collects
// synchronously, preserving the paper's semantics exactly. Scratch page
// buffers come from a sync.Pool so concurrent operations never share
// buffer state.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/gc"
)

// Options configures a PDL store.
type Options struct {
	// MaxDifferentialSize is the largest encoded differential (bytes) that
	// will be stored in a differential page; larger differentials cause
	// the whole logical page to be rewritten as a new base page (Case 3 of
	// the PDL_Writing algorithm). The paper evaluates PDL(2KB) and
	// PDL(256B). Zero means the flash data-area size (one page).
	MaxDifferentialSize int
	// Shards is the number of differential write buffer shards. Zero means
	// one per flash channel: 1 over a plain device, which preserves the
	// paper's single one-page write buffer exactly. Concurrent workloads
	// should use roughly one shard per worker goroutine: writers hashing to
	// different shards compute and buffer their differentials in parallel.
	// Each shard buffers up to one page of differentials and spills to its
	// own differential page, so the at-most-one-page-writing principle holds
	// per reflection regardless of the shard count.
	Shards int
	// BackgroundGC moves garbage collection off the write path: a
	// background goroutine collects victim blocks incrementally whenever
	// the erased-block pool drains to two blocks above the garbage-collection
	// reserve, and foreground reflections only collect synchronously if the
	// pool hits the reserve floor first (backpressure). Off by default, which
	// preserves the paper's stop-the-world foreground cleaning. Stores with
	// background GC should be Closed when no longer needed.
	BackgroundGC bool
	// DiffCachePages bounds the differential cache, as a byte budget of
	// DiffCachePages x page size: the cache keeps each logical page's
	// newest flushed differential record (as it is in flash) in DRAM, so
	// reads of diff-bearing pages cost one flash read plus a table lookup
	// instead of two serial flash reads, and everything it allocates —
	// records and index — stays inside the budget. Zero means a default
	// of 256 pages' worth (512 KB of 2 KB pages).
	//
	// It also sizes the window of retained base images (see baseImages),
	// DiffCachePages / 8 pages (32 at the default, none below 8), which
	// saves the write that follows a read its base page read. The window
	// is beside the budget, not inside it: carving its 32 pages out of the
	// record arena was measured and rejected (ycsb_c_cold 243.6 -> 247.7
	// sim-us a Get, +1.7%, the hit ratio falling with the arena, for
	// nothing in return on a workload that never writes). Its slots are
	// allocated as reads fill them, and reads stop filling them while no
	// write is being served from the window.
	//
	// And it bounds the images held for a buffer pool's write-backs
	// (RetainBase): up to DiffCachePages more page buffers, beside the
	// budget like the window, allocated only while a pool is naming the
	// pages it dirties and released when the window goes dormant.
	//
	// DiffCacheOff disables all three, restoring the paper's two-read
	// PDL_Reading and the base page read of PDL_Writing step 1 exactly.
	// All are pure DRAM state — never persisted — so recovery is
	// identical with and without them.
	DiffCachePages int
}

// DiffCacheOff disables the differential cache and the retained base images
// when assigned to Options.DiffCachePages.
const DiffCacheOff = -1

// defaultDiffCachePages is the differential cache bound used when
// Options.DiffCachePages is zero.
const defaultDiffCachePages = 256

// reserveBlocks is the number of erased blocks kept aside for garbage
// collection, device-wide; a channel's floor is its share of them, at least
// one (ftl.NewChannelAllocator).
const reserveBlocks = 2

// baseImagesShare sizes the window of retained base images: one page for
// every baseImagesShare pages of the differential cache bound.
const baseImagesShare = 8

// pageEntry is one row of the physical page mapping table: the pair
// <base page address, differential page address> of section 4.2.
type pageEntry struct {
	base flash.PPN
	dif  flash.PPN
}

// shard is one partition of the differential write buffer, with the lock
// that serializes writes to the pids hashed onto it. The padding keeps
// hot shard locks on separate cache lines.
type shard struct {
	mu  sync.RWMutex
	dwb writeBuffer
	_   [64]byte
}

// storeChan is the store-side state of one flash channel: the channel
// lock (below the shard locks, above the mapTable lock in the
// hierarchy; multi-channel paths acquire channel locks in ascending
// index order), the channel's spare-header scratch (every header encode
// happens under the owning channel's lock, so one buffer per channel
// suffices), and the background-GC kick etiquette state. The padding
// keeps hot channel locks on separate cache lines.
type storeChan struct {
	mu sync.Mutex
	// spareBuf is this channel's reusable spare-header scratch.
	spareBuf []byte
	// lastKickFree (guarded by mu, like every allocation on the channel)
	// remembers the free-block level of the last background-GC kick so a
	// pool parked at one level is not re-kicked on every allocation; -1
	// means the pool was last seen healthy.
	lastKickFree int
	_            [64]byte
}

// Store is a page-differential logging flash translation layer. It is safe
// for concurrent use; see the package comment for the locking model.
type Store struct {
	dev    flash.Device
	params flash.Params
	alloc  *ftl.Allocator

	numPages int
	maxDiff  int

	// chans is the per-channel mutation state; a plain single-channel
	// device has exactly one entry. Reads take none of its locks; see the
	// package comment.
	chans []storeChan
	nchan int
	// mt owns the mapping tables with their own synchronization.
	mt *mapTable
	// wtel holds the write-path counters. They are atomics because
	// writers on DIFFERENT channels mutate flash (and count events)
	// concurrently, each under its own channel lock.
	wtel writeTelemetry
	// rtel holds the read-path counters, which are bumped with no lock
	// held (the read path takes no store-level lock) and folded into
	// Telemetry snapshots.
	rtel readTelemetry
	// sealed reports whether the geometry carries the integrity trailer
	// (ftl.IntegrityFits): pages are then sealed on program and verified on
	// read (see integrity.go). itel holds the event counters (atomics:
	// verifying reads run with no store-level lock).
	sealed bool
	itel   integrityTelemetry
	// spares pools spare-area scratch buffers for the verifying read
	// paths (the write paths use the per-channel spareBuf instead).
	spares bufPool
	// dcache is the differential cache (nil when disabled); its coherence
	// rule is documented on the type.
	dcache *diffCache
	// bimg is the window of base images the read path retained for the
	// writes that follow (nil when off).
	bimg *baseImages

	// gcEng holds the background garbage-collection engines, one collection
	// goroutine per channel, indexed by channel (nil in synchronous mode), and
	// gcLow the per-channel trigger watermark they share.
	gcEng []*gc.Engine
	gcLow int

	// shards partitions the differential write buffer by pid hash.
	shards []shard
	// ts is the creation time stamp counter (atomic: writers on different
	// shards stamp differentials under no common lock).
	ts atomic.Uint64
	// pages pools scratch page buffers for the read and write paths.
	pages bufPool
}

// Telemetry counts PDL-internal events, exposed for analysis and tests.
type Telemetry struct {
	// BufferFlushes is the number of differential-page writes from the
	// write buffer (Case 2 spills and explicit Flushes).
	BufferFlushes int64
	// NewBasePages is the number of base pages foreground writes committed:
	// Case 3 fallbacks (differential larger than Max_Differential_Size),
	// initial loads, heals by overwrite and durable read-path heals.
	NewBasePages int64
	// DiffBytesWritten sums the encoded differential bytes that went into
	// flushed differential pages.
	DiffBytesWritten int64
	// DiffsWritten is the number of differentials in flushed pages.
	DiffsWritten int64
	// SyncGCFallbacks counts foreground allocations that hit the reserve
	// floor and had to collect synchronously despite background GC — the
	// backpressure events background mode is meant to make rare.
	SyncGCFallbacks int64
	// ChannelFallOvers counts the times a commit's share of programs could
	// not be served by the channel picked for it — it was out of
	// reclaimable space — and moved to another channel. Always zero on
	// single-channel devices.
	ChannelFallOvers int64
	// BatchWrites is the number of device ProgramBatch operations the
	// batched write path (WriteBatch, batched Flush) issued.
	BatchWrites int64
	// BatchedPages is the total number of physical pages programmed
	// through those batches; BatchedPages/BatchWrites is the mean batch
	// width the device saw (pages per program operation).
	BatchedPages int64
	// DiffCacheHits counts reads of diff-bearing pages served from the
	// differential cache (one flash read instead of two), and
	// DiffCacheMisses the differential-page flash reads of the others,
	// including those that found the page uncorrectable. Both stay zero when
	// the cache is disabled.
	DiffCacheHits, DiffCacheMisses int64
	// BaseReads, DiffReads, WriteBaseReads, GCReads and RecoverReads
	// attribute every flash page the store read: base and differential
	// pages for PDL_Reading, the base page PDL_Writing step 1 compares a
	// write with, relocation reads of garbage collection, and the recovery
	// scan. They sum to the device's read count.
	BaseReads, DiffReads, WriteBaseReads, GCReads, RecoverReads int64
	// WriteBaseHits counts the writes whose step 1 found the base image a
	// read had just retained and read nothing: WriteBaseHits over
	// WriteBaseHits + WriteBaseReads is the share of base-bearing writes
	// that followed a read of their page closely enough. Zero with
	// DiffCacheOff.
	WriteBaseHits int64
	// BaseHolds counts the RetainBase calls that found the named page's base
	// image still retained (or already held) and hold it for the page's
	// write-back, BaseHoldMisses the calls that came too late for it: their
	// write-backs are the WriteBaseReads a pool still pays. Calls for a page
	// with no base page count as neither. Both zero with DiffCacheOff and
	// without a caller that implements the hint's other side (buffer.Pool).
	BaseHolds, BaseHoldMisses int64
	// ReadRetries counts optimistic read-path retries: a garbage-collection
	// relocation or a flush moved the pid's mapping mid-read.
	ReadRetries int64
	// BatchReads is the number of completed ReadBatch calls of two or more
	// pids, and BatchedReads the pids those calls read; BatchedReads/BatchReads
	// is the mean read-batch width. The calls' flash reads are counted with
	// ReadPage's, under BaseReads and DiffReads.
	BatchReads, BatchedReads int64
	// LogicalWrites is the number of logical page reflections the store
	// accepted (WritePage calls plus WriteBatch elements) — the
	// denominator of the paper's flash-operations-per-logical-write
	// metric.
	LogicalWrites int64
	// EccCorrectedBits counts single-bit flips the spare-area SEC-DED
	// ECC silently corrected across every verifying read path (foreground
	// reads, GC relocation reads, recovery scans).
	EccCorrectedBits int64
	// PagesHealed counts reads of uncorrectably corrupt pages that were
	// served by self-healing: the content was rebuilt from a redundant
	// source (differential chain, differential cache, or shard
	// write buffer) instead of failing the read.
	PagesHealed int64
	// UnrecoverablePages counts reads that found uncorrectable corruption
	// with no surviving redundant source and returned ftl.PageError — the
	// integrity contract's terminal case.
	UnrecoverablePages int64
	// HeaderChecksumFailures counts spare-area headers rejected by their
	// checksum (corrupt spares quarantined during recovery scans rather
	// than trusted as mappings).
	HeaderChecksumFailures int64
}

// readTelemetry is the lock-free half of the telemetry: counters the read
// path bumps without holding any store-level lock.
type readTelemetry struct {
	diffCacheHits, diffCacheMisses atomic.Int64
	readRetries                    atomic.Int64
	batchReads, batchedReads       atomic.Int64
	// The flash pages read, by what they were read for (countReads). Garbage
	// collection and recovery bump theirs under locks; they live here with
	// the other counters of the raw-read funnels.
	baseReads, diffReads, writeBaseReads, gcReads, recoverReads atomic.Int64
}

// writeTelemetry is the write-path counters. Each is bumped under SOME
// channel lock, but different channels run concurrently, so the fields
// are atomic rather than guarded by one lock.
type writeTelemetry struct {
	bufferFlushes    atomic.Int64
	newBasePages     atomic.Int64
	diffBytesWritten atomic.Int64
	diffsWritten     atomic.Int64
	syncGCFallbacks  atomic.Int64
	channelFallOvers atomic.Int64
	batchWrites      atomic.Int64
	batchedPages     atomic.Int64
	// logicalWrites is bumped under shard locks (different shards run
	// concurrently).
	logicalWrites atomic.Int64
	writeBaseHits atomic.Int64
	// baseHolds and baseHoldMisses are bumped by RetainBase under no store
	// lock.
	baseHolds      atomic.Int64
	baseHoldMisses atomic.Int64
}

var (
	_ ftl.Method       = (*Store)(nil)
	_ ftl.BaseRetainer = (*Store)(nil)
)

// New builds a PDL store for a database of numPages logical pages over any
// flash device (the in-memory emulator or a persistent backend).
func New(dev flash.Device, numPages int, opts Options) (*Store, error) {
	p := dev.Params()
	if numPages <= 0 {
		return nil, fmt.Errorf("core: numPages must be positive, got %d", numPages)
	}
	if numPages > p.NumPages() {
		return nil, fmt.Errorf("core: database of %d pages exceeds flash capacity of %d pages",
			numPages, p.NumPages())
	}
	maxDiff := opts.MaxDifferentialSize
	if maxDiff == 0 {
		maxDiff = p.DataSize
	}
	if maxDiff < diff.HeaderSize {
		return nil, fmt.Errorf("core: MaxDifferentialSize %d smaller than differential header %d",
			maxDiff, diff.HeaderSize)
	}
	if maxDiff > p.DataSize {
		return nil, fmt.Errorf("core: MaxDifferentialSize %d exceeds page data area %d",
			maxDiff, p.DataSize)
	}
	alloc := ftl.NewChannelAllocator(dev, reserveBlocks)
	nchan := alloc.Channels()
	numShards := opts.Shards
	if numShards == 0 {
		// Over a multi-channel device, default to one shard per channel so
		// the shard→channel pinning spreads foreground writes across every
		// channel; a plain device keeps the paper's single buffer.
		numShards = nchan
	}
	if numShards < 0 {
		return nil, fmt.Errorf("core: Shards must be non-negative, got %d", numShards)
	}
	cachePages := opts.DiffCachePages
	if cachePages == 0 {
		cachePages = defaultDiffCachePages
	}
	s := &Store{
		dev:      dev,
		params:   p,
		alloc:    alloc,
		nchan:    nchan,
		chans:    make([]storeChan, nchan),
		numPages: numPages,
		maxDiff:  maxDiff,
		mt:       newMapTable(numPages, p.NumPages()),
		shards:   make([]shard, numShards),
	}
	s.pages.init(p.DataSize)
	s.spares.init(p.SpareSize)
	s.sealed = ftl.IntegrityFits(p.DataSize, p.SpareSize)
	if cachePages > 0 {
		s.dcache = newDiffCache(cachePages*p.DataSize, numPages, p.DataSize)
		s.bimg = newBaseImages(cachePages/baseImagesShare, cachePages)
	}
	for i := range s.shards {
		s.shards[i].dwb.init(p.DataSize)
	}
	for ch := range s.chans {
		s.chans[ch].spareBuf = make([]byte, p.SpareSize)
		s.chans[ch].lastKickFree = -1
	}
	s.alloc.SetRelocator(s.relocate)
	if nchan > 1 {
		// Multi-channel stores select victims by cost-benefit: with
		// relocation output segregated into cold blocks, age×invalid-
		// ratio scoring stops GC from repeatedly recycling cold blocks.
		s.alloc.SetVictimPolicy(ftl.VictimCostBenefit)
	}
	if opts.BackgroundGC {
		// The watermark, two erased blocks above the reserve, describes the
		// whole device; each channel's engine watches its share of it.
		chLow := (reserveBlocks + 2 + nchan - 1) / nchan
		if chLow <= s.alloc.ChanReserve() {
			chLow = s.alloc.ChanReserve() + 1
		}
		s.gcLow = chLow
		s.gcEng = make([]*gc.Engine, nchan)
		for ch := range s.gcEng {
			s.gcEng[ch] = gc.New(chanCollector{s: s, ch: ch}, gc.Config{LowWater: chLow, HighWater: chLow + 2})
			s.gcEng[ch].Start()
		}
	}
	return s, nil
}

// chanCollector adapts one channel of a Store to the background engine's
// Collector interface: one collection increment holds the channel lock
// for exactly one victim block, so foreground reflections on this channel
// interleave between increments, and those on every other never wait.
type chanCollector struct {
	s  *Store
	ch int
}

func (c chanCollector) CollectOne() (bool, error) {
	sc := &c.s.chans[c.ch]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return c.s.alloc.CollectOnceOn(c.ch)
}

func (c chanCollector) FreeBlocks() int { return c.s.alloc.FreeBlocksOn(c.ch) }

// Close stops the background garbage-collection goroutines (if any) and
// returns the errors they encountered, joined. It does not close the
// underlying device, which the caller owns. Close is idempotent, and the
// store remains usable afterwards: allocations simply collect
// synchronously again.
func (s *Store) Close() error {
	errs := make([]error, len(s.gcEng))
	for ch, e := range s.gcEng {
		errs[ch] = e.Stop()
	}
	return errors.Join(errs...)
}

// BackgroundGC reports whether the store was opened with a background
// garbage collector.
func (s *Store) BackgroundGC() bool { return s.gcEng != nil }

// BackgroundGCStats returns what the background collectors have done,
// summed over channels (zero in synchronous mode).
func (s *Store) BackgroundGCStats() gc.Stats {
	var st gc.Stats
	for _, e := range s.gcEng {
		es := e.Stats()
		st.Wakeups += es.Wakeups
		st.Collected += es.Collected
	}
	return st
}

// Name implements ftl.Method, e.g. "PDL(256B)".
func (s *Store) Name() string {
	if s.maxDiff >= 1024 && s.maxDiff%1024 == 0 {
		return fmt.Sprintf("PDL(%dKB)", s.maxDiff/1024)
	}
	return fmt.Sprintf("PDL(%dB)", s.maxDiff)
}

// Device implements ftl.Method.
func (s *Store) Device() flash.Device { return s.dev }

// PageSize implements ftl.Method: the logical page size in bytes.
func (s *Store) PageSize() int { return s.params.DataSize }

// Stats implements ftl.Method.
func (s *Store) Stats() flash.Stats { return s.dev.Stats() }

// NumPages returns the database size in logical pages.
func (s *Store) NumPages() int { return s.numPages }

// MaxDifferentialSize returns the configured Max_Differential_Size.
func (s *Store) MaxDifferentialSize() int { return s.maxDiff }

// Shards returns the number of differential write buffer shards.
func (s *Store) Shards() int { return len(s.shards) }

// ConcurrencySafe marks the store safe for concurrent use by multiple
// goroutines; kv probes for exactly this method and serializes the methods
// without it behind a mutex.
func (s *Store) ConcurrencySafe() bool { return true }

// Allocator exposes the allocator for stats inspection.
func (s *Store) Allocator() *ftl.Allocator { return s.alloc }

// nextTS returns the next creation time stamp.
func (s *Store) nextTS() uint64 { return s.ts.Add(1) }

// shardIndex maps a pid onto its write buffer shard index (Fibonacci
// hashing, so strided pid patterns still spread across shards).
func (s *Store) shardIndex(pid uint32) int {
	return int((uint64(pid) * 0x9E3779B97F4A7C15 >> 33) % uint64(len(s.shards)))
}

// shardOf maps a pid onto its write buffer shard.
func (s *Store) shardOf(pid uint32) *shard { return &s.shards[s.shardIndex(pid)] }

// Channels returns the number of flash channels the store drives (1 over
// a plain device).
func (s *Store) Channels() int { return s.nchan }

// ChannelGC returns channel ch's garbage-collection counters (benchmark
// reports).
func (s *Store) ChannelGC(ch int) ftl.ChannelGCStats { return s.alloc.ChannelGC(ch) }

// homeChannel maps a shard index onto the channel its pids' pages are
// written to by default: shard si pins to channel si % nchan, so the pid
// hash that spreads writers across shards also spreads them across
// channels.
func (s *Store) homeChannel(si int) int { return si % s.nchan }

// pickChannel chooses the channel a program for shard si goes to: the
// shard's home channel, unless the home is under reserve pressure while
// another channel has erased blocks to spare (the allocator's fall-over
// policy, read from atomics). It must be called BEFORE taking a channel
// lock — that is what makes the fall-over deadlock-free.
func (s *Store) pickChannel(si int) int {
	return s.alloc.PickChannel(s.homeChannel(si))
}

// getPage borrows a scratch page buffer from the pool.
func (s *Store) getPage() []byte { return s.pages.get() }

// putPage returns a scratch page buffer to the pool.
func (s *Store) putPage(b []byte) { s.pages.put(b) }

// kickEtiquette kicks channel ch's background engine at the watermark,
// but at most once per free-block level: the level only moves when a
// block is consumed or reclaimed, so a pool parked low with nothing
// reclaimable does not cost a wakeup (and an O(blocks) victim scan) on
// every page allocation. The caller holds channel ch's lock (which
// guards lastKickFree).
//
//pdlvet:holds channel
func (s *Store) kickEtiquette(ch int) {
	c := &s.chans[ch]
	if free := s.alloc.FreeBlocksOn(ch); free <= s.gcLow {
		if free != c.lastKickFree {
			c.lastKickFree = free
			s.gcEng[ch].Kick()
		}
	} else {
		c.lastKickFree = -1
	}
}

// WritePage implements ftl.Method: one run of stageWrite on the live shard
// write buffer, then one commit of whatever it staged. If the write fails —
// a base page read, an allocation or a device error — the buffer is put
// back exactly as it was, so the differential an earlier acknowledged
// write of pid left buffered stays in place and readable.
func (s *Store) WritePage(pid uint32, data []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(data, s.params.DataSize); err != nil {
		return err
	}
	si := s.shardIndex(pid)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.wtel.logicalWrites.Add(1)

	saved := append(s.getPage()[:0], sh.dwb.slab...)
	defer s.putPage(saved)
	st := writeStage{buf: &sh.dwb, home: s.homeChannel(si)}
	base := s.getPage()
	err := s.stageWrite(&st, 0, s.nextTS(), pid, data, base)
	s.putPage(base)
	landed := false
	if err == nil {
		landed, err = s.commit(st.ops)
	}
	if !landed && err != nil {
		sh.dwb.restore(saved) // undo the one write: put the saved bytes back
	}
	s.recycleSpills(st.ops)
	return err
}

// RetainBase implements ftl.BaseRetainer: the caller has modified its copy of
// pid and will write it back later — a buffer pool's frame going from clean to
// dirty — so the base image the read path retained when it served the page is
// moved to where later reads do not push it out (see baseImages), and the
// write-back, however many reads later, finds it in stageWrite's one lookup.
// The image is named by the base time stamp as of this call. It is a hint: the
// mapping snapshot is taken under no shard lock, because only the caller
// writes pid between its read and its write-back, and if that is not so the
// stamp held is one the write's own snapshot does not ask for, which costs
// that write its base page read and nothing else.
func (s *Store) RetainBase(pid uint32) {
	if s.bimg == nil || int(pid) >= s.numPages {
		return
	}
	_, baseTS, _, _ := s.mt.snapshot(pid)
	switch {
	case baseTS == 0: // never written: the write-back is an initial load
	case s.bimg.hold(pid, baseTS):
		s.wtel.baseHolds.Add(1)
	default:
		s.wtel.baseHoldMisses.Add(1)
	}
}

// Flush implements ftl.Method: it writes every shard's differential write
// buffer out to flash, the action the paper ties to the storage device's
// write-through command. The non-empty buffers are spilled together in one
// commit, so a multi-shard flush costs the device one batch program (and,
// on a write-through backend, one sync barrier) instead of one program and
// two fsyncs per shard.
func (s *Store) Flush() error {
	held := make([]bool, len(s.shards))
	for i := range s.shards {
		s.shards[i].mu.Lock()
		held[i] = true
	}
	defer func() {
		for i := range s.shards {
			if held[i] {
				s.shards[i].mu.Unlock()
			}
		}
	}()
	var ops []pendingOp
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.dwb.empty() {
			// Nothing of this shard rides the batch: release its writers
			// now instead of blocking them behind the device I/O.
			sh.mu.Unlock()
			held[i] = false
			continue
		}
		ops = append(ops, s.snapshotSpill(&sh.dwb, i, s.nextTS(), s.homeChannel(i)))
	}
	defer s.recycleSpills(ops)
	// The buffers are cleared only once the programs have landed and their
	// mappings are committed: a failed flush (allocation or device error)
	// leaves every buffered differential in place, still serving reads and
	// still flushable by a retry.
	landed, err := s.commit(ops)
	if landed {
		for _, op := range ops {
			s.shards[op.idx].dwb.clear()
		}
	}
	return err
}

// releaseDiffPage implements decreaseValidDifferentialCount of Figure 8:
// decrement the valid differential count of dp and retire the page when it
// reaches zero (the count entry itself is deleted at zero so the table only
// ever holds live pages). Where the paper sets the page obsolete with a spare
// program, this counts it obsolete in the allocator (ftl.NoteObsolete): every
// record of dp lost to a newer time stamp, which is all recovery looks at.
// The caller holds channel ch's lock; if dp lives on a different channel,
// the note is queued on that channel.
//
//pdlvet:holds channel
func (s *Store) releaseDiffPage(dp flash.PPN, ch int) {
	if s.mt.decDiffCount(dp) {
		s.alloc.NoteObsoleteFrom(dp, ch)
	}
}

// WriteBufferBytes returns the used bytes of the differential write buffer,
// summed across shards (for tests and tooling).
func (s *Store) WriteBufferBytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.dwb.slab)
		sh.mu.RUnlock()
	}
	return n
}

// WriteBufferLen returns the number of differentials currently buffered
// across all shards.
func (s *Store) WriteBufferLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.dwb.index)
		sh.mu.RUnlock()
	}
	return n
}

// ValidDifferentialPages returns the number of differential pages holding
// at least one valid differential (for tests and tooling).
func (s *Store) ValidDifferentialPages() int {
	s.mt.mu.RLock()
	defer s.mt.mu.RUnlock()
	return len(s.mt.vdct)
}

// Telemetry returns the store's internal event counters. Every field is
// an atomic load, so the snapshot is per-field consistent and can be
// taken while writers on several channels are in flight.
func (s *Store) Telemetry() Telemetry {
	var t Telemetry
	t.BufferFlushes = s.wtel.bufferFlushes.Load()
	t.NewBasePages = s.wtel.newBasePages.Load()
	t.DiffBytesWritten = s.wtel.diffBytesWritten.Load()
	t.DiffsWritten = s.wtel.diffsWritten.Load()
	t.SyncGCFallbacks = s.wtel.syncGCFallbacks.Load()
	t.ChannelFallOvers = s.wtel.channelFallOvers.Load()
	t.BatchWrites = s.wtel.batchWrites.Load()
	t.BatchedPages = s.wtel.batchedPages.Load()
	t.DiffCacheHits = s.rtel.diffCacheHits.Load()
	t.DiffCacheMisses = s.rtel.diffCacheMisses.Load()
	t.ReadRetries = s.rtel.readRetries.Load()
	t.BatchReads = s.rtel.batchReads.Load()
	t.BatchedReads = s.rtel.batchedReads.Load()
	t.BaseReads = s.rtel.baseReads.Load()
	t.DiffReads = s.rtel.diffReads.Load()
	t.WriteBaseReads = s.rtel.writeBaseReads.Load()
	t.WriteBaseHits = s.wtel.writeBaseHits.Load()
	t.BaseHolds = s.wtel.baseHolds.Load()
	t.BaseHoldMisses = s.wtel.baseHoldMisses.Load()
	t.GCReads = s.rtel.gcReads.Load()
	t.RecoverReads = s.rtel.recoverReads.Load()
	t.LogicalWrites = s.wtel.logicalWrites.Load()
	t.EccCorrectedBits = s.itel.eccCorrectedBits.Load()
	t.PagesHealed = s.itel.pagesHealed.Load()
	t.UnrecoverablePages = s.itel.unrecoverablePages.Load()
	t.HeaderChecksumFailures = s.itel.headerChecksumFailures.Load()
	return t
}

// DiffCacheLen returns the number of differential records currently held by
// the differential cache (0 when disabled); for tests and tooling.
func (s *Store) DiffCacheLen() int { return s.dcache.len() }

// DiffCacheEnabled reports whether the differential cache is on.
func (s *Store) DiffCacheEnabled() bool { return s.dcache != nil }
