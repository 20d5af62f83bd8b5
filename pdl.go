// Package pdl is a Go implementation of page-differential logging (PDL),
// the flash page-update method of Kim, Whang, and Song, "Page-Differential
// Logging: An Efficient and DBMS-independent Approach for Storing Data
// into Flash Memory" (SIGMOD 2010), together with the complete substrate
// the paper evaluates it on: a bit-accurate NAND flash emulator, the
// page-based (OPU, IPU) and log-based (IPL) baseline methods, a buffer
// pool with adaptive, clean-first replacement, a slotted-page heap, a
// B+-tree, and workload generators including a scaled TPC-C.
//
// # Quick start
//
//	chip := pdl.NewChip(pdl.ScaledFlashParams(256)) // 32 MB emulated NAND
//	store, err := pdl.Open(chip, 4096, pdl.Options{MaxDifferentialSize: 256})
//	if err != nil { ... }
//	page := make([]byte, store.PageSize())
//	...fill page...
//	store.WritePage(42, page)  // buffers only the page-differential
//	store.Flush()              // write-through of the differential buffer
//	store.ReadPage(42, page)   // base page + differential, at most 2 reads
//	page[100] ^= 1
//	store.WritePage(42, page)  // diffs against the base image that read fetched: 0 reads
//	fmt.Println(store.Stats()) // simulated I/O time and op counts
//
// Every constructor takes a Device — the flash backend interface — so the
// same store also runs on persistent storage. A file-backed device
// survives process restarts:
//
//	dev, err := pdl.OpenFileDevice("db.flash", pdl.FileDeviceOptions{
//		Params: pdl.ScaledFlashParams(256), // geometry of a new file
//	})
//	store, err := pdl.Open(dev, 4096, pdl.Options{MaxDifferentialSize: 256})
//	...write...
//	store.Flush()
//	dev.Close()
//	// later, possibly in another process:
//	dev, err = pdl.OpenFileDevice("db.flash", pdl.FileDeviceOptions{})
//	store, err = pdl.Recover(dev, 4096, pdl.Options{MaxDifferentialSize: 256})
//
// A Store implements the same Method interface as the baseline methods
// (OpenOPU, OpenIPU, OpenIPL), so higher layers — the buffer pool, heap
// files, B+-trees, TPC-C — run unchanged over any of them. That interface
// boundary is the paper's point: page-differential logging needs only the
// flash driver, never the DBMS above it.
//
// # Batched writes
//
// The write pipeline is batch-first end to end. Store.WriteBatch reflects
// a group of pages as if WritePage had been called for each in order, but
// computes the differentials shard-parallel and programs every resulting
// flash page (differential-page spills, new base pages) as one device
// ProgramBatch — on a SyncAlways file device that is two fsyncs per batch
// instead of two per page, and crash recovery of an interrupted batch
// always yields a serially-written prefix of it:
//
//	batch := []pdl.PageWrite{{PID: 1, Data: p1}, {PID: 9, Data: p9}}
//	err := store.WriteBatch(batch) // one device batch, TS-ordered
//
// Pool.Flush rides the same path automatically: dirty frames are written
// back as one pid-ordered WriteBatch whenever the method supports it. An
// eviction writes back its victim and nothing else.
//
// # Cache-aware reads
//
// PDL_Reading recreates one page from at most two dependent flash reads, and
// a Store has one implementation of it. Store.ReadBatch runs it for each page
// of a group, under the group's shard locks taken once; the flash reads are
// the same as a loop of ReadPage calls:
//
//	pids := []uint32{1, 9, 42}
//	bufs := [][]byte{p1, p9, p42} // page-sized buffers
//	err := store.ReadBatch(pids, bufs)
//
// A Store also keeps a differential cache (Options.DiffCachePages, a byte
// budget of that many pages; DiffCacheOff disables it): each logical page's
// newest flushed differential record stays in DRAM as it is in flash —
// records and index together inside DiffCachePages x page size bytes — so a
// read of a diff-bearing page whose record is cached costs one flash read
// plus a table lookup instead of the paper's two serial flash reads. The
// cache is filled as differential pages are written and as reads miss, and
// Store.DiffCacheLen counts the records it holds. Hit or miss, a read merges
// its record straight from the wire form; nothing is decoded to be read. A
// record is valid by its creation time stamp alone, so nothing is
// invalidated when garbage collection moves or erases differential pages.
// The cache is pure DRAM state and never survives a restart — so recovery
// is byte-identical with the cache on or off.
//
// Beside it the Store retains the last base page images its reads fetched
// (DiffCachePages / 8 of them, 32 by default; none with DiffCacheOff), named
// by page id and base time stamp: the paper's update operation reads a page,
// changes it and writes it back, and the write then diffs against the
// retained image instead of reading the base page from flash a second time
// (Telemetry.WriteBaseHits against WriteBaseReads). A buffer pool writes a
// page back long after it fetched it, so a Pool over a Store names each page
// when its frame is first dirtied (BaseRetainer), and the Store holds that
// page's image, out of the way of later reads, until the write-back comes
// (Telemetry.BaseHolds, BaseHoldMisses): up to DiffCachePages more page
// buffers while a pool is dirtying pages, none once it stops.
//
// A Pool is demand paging: one miss, one ReadPage. ReadBatch is for callers
// that know a group of pages ahead of time and drive the Store directly.
//
// # Concurrency
//
// A Store is safe for concurrent use by multiple goroutines; the baseline
// methods (OPU, IPU, IPL) are not and must be driven from one goroutine or
// behind a caller-supplied lock. The store partitions its differential
// write buffer into Options.Shards pid-hashed shards, each with its own
// lock and its own one-page buffer, so writers to different shards compute
// and buffer their page-differentials in parallel. Reads take no
// store-level lock over the device at all: the mapping tables live in
// their own versioned component, and both flash backends serve reads
// concurrently, so readers only retry in the rare case garbage collection
// relocated a page mid-read. Per-channel locks serialize mutations
// (programs and their mapping commits, allocation, garbage collection) on
// each flash channel; the lock hierarchy is shard > channel > mapTable >
// caches.
//
// Garbage collection runs synchronously inside allocation by default (the
// paper's foreground cleaning). Options.BackgroundGC moves it to a
// background goroutine that collects one victim block at a time whenever
// the free pool drains to two erased blocks above its reserve, which takes
// whole collection cycles out of the write-path tail; foreground writes fall
// back to synchronous collection only if the erased-block reserve itself
// runs out. Close a store opened with BackgroundGC when done with it.
// The default of one shard per flash channel — one over a plain device —
// preserves the paper's single write buffer exactly on one channel;
// concurrent workloads should set Shards to roughly the number of worker
// goroutines:
//
//	store, err := pdl.Open(chip, 4096, pdl.Options{
//		MaxDifferentialSize: 256,
//		Shards:              16,   // concurrent writers land on distinct buffers
//		BackgroundGC:        true, // collection off the write path
//	})
//	defer store.Close()
//
// Crash recovery (Recover) rebuilds a store with whatever
// shard count the Options request; the on-flash format is
// identical for every shard count and GC mode, so a multi-shard store
// recovers the same logical state a single-shard store would. Recover
// fans its spare-area scan over one goroutine per CPU; the recovered
// state is the serial scan's.
//
// # Serving layer
//
// The kv subsystem is a concurrent key-value store assembled from the
// repository's own layers — B+-tree index over a slotted heap, behind
// per-bucket buffer pools — over any Method. It hash-partitions the key
// space into lock-striped buckets so Put/Get/Delete from many
// goroutines proceed in parallel (over a PDL store the engine below is
// concurrent too; the baselines are funneled through one mutex), and
// its Scan is snapshot-consistent: it locks every bucket, collects, and
// releases, so a scan never observes a torn PutBatch:
//
//	db, err := pdl.OpenKV(store, pdl.KVPagesNeeded(100_000, 100, store.PageSize(), pdl.KVOptions{}), pdl.KVOptions{})
//	err = db.Put(42, []byte("value"))
//	v, err := db.Get(42, nil)
//	err = db.Scan(0, ^uint64(0), 10, func(k uint64, v []byte) bool { ... return true })
//	err = db.Sync()  // flush pools, persist metadata, sync the device
//	db.Close()
//	// later, over a device holding a synced store:
//	db, err = pdl.ReopenKV(method, numPages, pdl.KVOptions{})
//
// All flash timing is simulated: each read, program, and erase advances
// the chip's clock by the configured datasheet latency (Table 1 of the
// paper), so performance comparisons are deterministic and reproducible.
package pdl

import (
	"pdl/internal/btree"
	"pdl/internal/buffer"
	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/kv"
	"pdl/internal/opu"
	"pdl/internal/storage"
	"pdl/internal/tpcc"
)

// Device is the flash backend interface every store runs over: the
// emulated Chip, the persistent FileDevice, or any future implementation.
type Device = flash.Device

// Chip is an emulated NAND flash chip (one Device implementation). See
// NewChip.
type Chip = flash.Chip

// FileDevice is a persistent flash device backed by a single ordinary
// file. See OpenFileDevice.
type FileDevice = filedev.Device

// FileDeviceOptions configures OpenFileDevice.
type FileDeviceOptions = filedev.Options

// SyncPolicy selects when a FileDevice fsyncs its backing file.
type SyncPolicy = filedev.SyncPolicy

// File-device sync policies.
const (
	// SyncOnClose fsyncs on Sync and Close only (the default): durable
	// across process death, not across OS/power failure.
	SyncOnClose = filedev.SyncOnClose
	// SyncAlways fsyncs after every program and erase.
	SyncAlways = filedev.SyncAlways
	// SyncNever never fsyncs (testing only).
	SyncNever = filedev.SyncNever
)

// FlashParams configures a chip's geometry and timing.
type FlashParams = flash.Params

// FlashStats carries operation counts and simulated I/O time.
type FlashStats = flash.Stats

// PPN is a physical page number on the chip.
type PPN = flash.PPN

// DefaultFlashParams returns the Samsung K9L8G08U0M 2-Gbyte MLC NAND
// parameters of the paper's Table 1. The full-size chip allocates about
// 2 GB of memory; ScaledFlashParams builds smaller chips with identical
// per-operation costs.
func DefaultFlashParams() FlashParams { return flash.DefaultParams() }

// ScaledFlashParams returns the datasheet parameters with the block count
// replaced (each block is 132 KB: 64 pages of 2048+64 bytes).
func ScaledFlashParams(numBlocks int) FlashParams { return flash.ScaledParams(numBlocks) }

// NewChip allocates an emulated chip in the erased state.
func NewChip(p FlashParams) *Chip { return flash.NewChip(p) }

// OpenFileDevice opens (or creates) a persistent file-backed flash device
// at path. A new file needs FileDeviceOptions.Params; an existing file's
// recorded geometry wins. Stores over a FileDevice survive process
// restarts: Flush, Close, reopen the path, and Recover.
func OpenFileDevice(path string, opts FileDeviceOptions) (*FileDevice, error) {
	return filedev.Open(path, opts)
}

// Method is the flash page-update method interface: what a disk driver
// exposes to the storage system above. PDL, OPU, IPU, and IPL all
// implement it.
type Method = ftl.Method

// PageWrite is one logical page reflection of a write batch.
type PageWrite = ftl.PageWrite

// BatchWriter is the optional batched write interface; the PDL Store
// implements it (Store.WriteBatch), and the buffer pool feeds any method
// that does.
type BatchWriter = ftl.BatchWriter

// BatchReader is the optional batched read interface; the PDL Store
// implements it (Store.ReadBatch) for callers that drive it directly. The
// buffer pool faults one page at a time and does not call it.
type BatchReader = ftl.BatchReader

// BaseRetainer is the optional first-dirty hint; the PDL Store implements it
// (Store.RetainBase), and the buffer pool gives it to any method that does.
type BaseRetainer = ftl.BaseRetainer

// PageProgram is one physical page of a Device.ProgramBatch.
type PageProgram = flash.PageProgram

// PageRead is one physical page of a Device.ReadBatch, which every Device
// of this module serves as a validated loop of Read calls.
type PageRead = flash.PageRead

// DiffCacheOff disables the Store's differential cache and its retained
// base images when assigned to Options.DiffCachePages, restoring the
// paper's two-read PDL_Reading and PDL_Writing's base page read exactly.
const DiffCacheOff = core.DiffCacheOff

// Errors shared by all methods.
var (
	// ErrNotWritten reports a read of a logical page never written.
	ErrNotWritten = ftl.ErrNotWritten
	// ErrPageRange reports a logical page id outside the database.
	ErrPageRange = ftl.ErrPageRange
	// ErrPageSize reports a mis-sized page buffer.
	ErrPageSize = ftl.ErrPageSize
	// ErrNoSpace reports flash memory full of valid data.
	ErrNoSpace = ftl.ErrNoSpace
	// ErrPowerLoss reports that a scheduled (simulated) power failure
	// interrupted a flash operation; see Chip.SchedulePowerFailure.
	ErrPowerLoss = flash.ErrPowerLoss
)

// Store is a page-differential logging store (the paper's contribution).
type Store = core.Store

// Options configures a PDL store.
type Options = core.Options

// Open builds a PDL store for a database of numPages logical pages over a
// fresh device (emulated or file-backed). Use Recover to rebuild a store
// from a device that already holds data (after a crash or a restart).
func Open(dev Device, numPages int, opts Options) (*Store, error) {
	return core.New(dev, numPages, opts)
}

// Recover reconstructs a PDL store from flash contents after a system
// failure by one scan through the physical pages (the paper's
// PDL_RecoveringfromCrash algorithm), fanned out across one goroutine per
// CPU; the recovered state is the serial scan's. Differentials that were only in the in-memory
// write buffer at the time of the failure are lost, exactly as the paper
// specifies. Recover only reads the device: the useless pages it finds are
// counted obsolete in memory, not marked in flash, so recovering again
// rebuilds the same state.
func Recover(dev Device, numPages int, opts Options) (*Store, error) {
	return core.Recover(dev, numPages, opts)
}

// OPUStore is the out-place update page-based baseline.
type OPUStore = opu.Store

// OpenOPU builds the paper's primary baseline: a page-based FTL with
// page-level mapping and out-place updates.
func OpenOPU(dev Device, numPages int) (*OPUStore, error) {
	return opu.New(dev, numPages, 2)
}

// IPUStore is the in-place update baseline.
type IPUStore = ipu.Store

// OpenIPU builds the in-place update baseline (read block, erase,
// rewrite; the worst case of section 3).
func OpenIPU(dev Device, numPages int) (*IPUStore, error) {
	return ipu.New(dev, numPages)
}

// IPLStore is the in-page logging baseline (Lee & Moon, SIGMOD 2007).
type IPLStore = ipl.Store

// IPLOptions configures the in-page logging baseline.
type IPLOptions = ipl.Options

// OpenIPL builds the log-based baseline. Tightly-coupled callers can feed
// it individual update logs through its LogUpdate method; through the
// plain Method interface it derives logs by comparison.
func OpenIPL(dev Device, numPages int, opts IPLOptions) (*IPLStore, error) {
	return ipl.New(dev, numPages, opts)
}

// Pool is a buffer pool over any Method (the DBMS buffer of the paper's
// Figure 10). Replacement adapts between recency and frequency (ARC) and
// prefers a clean victim among the coldest quarter, since a dirty one costs
// a program where a clean one costs a re-read; there is nothing to set. A
// page enters on the miss that asks for it, and a slice Get returns is good
// until the next call that can fault a page. A dirty victim is written back
// alone; Flush collects dirty frames in ascending pid order and hands them
// to the method as one WriteBatch when the method implements BatchWriter.
type Pool = buffer.Pool

// NewPool builds a buffer pool of capacity pages over method.
func NewPool(method Method, capacity int) (*Pool, error) {
	return buffer.NewPool(method, capacity)
}

// Heap is a slotted-page heap file over a buffer pool.
type Heap = storage.Heap

// RID identifies a heap record.
type RID = storage.RID

// NewHeap builds a heap file over logical pages [first, first+numPages).
func NewHeap(pool *Pool, first, numPages uint32) (*Heap, error) {
	return storage.NewHeap(pool, first, numPages)
}

// BTree is a B+-tree index over a buffer pool with uint64 keys and values.
type BTree = btree.Tree

// NewBTree builds an empty B+-tree over logical pages
// [first, first+numPages).
func NewBTree(pool *Pool, first, numPages uint32) (*BTree, error) {
	return btree.New(pool, first, numPages)
}

// KV is the serving layer: a concurrent key-value store (uint64 keys,
// byte-slice values) with snapshot-consistent range scans and crash
// recovery, layered on the repository's B+-tree, heap, and buffer pool
// over any Method. See OpenKV.
type KV = kv.DB

// KVOptions tunes a KV store's bucket count and per-bucket pool.
type KVOptions = kv.Options

// KVEntry is one key-value pair yielded by KV.Scan.
type KVEntry = kv.Entry

// Serving-layer errors.
var (
	// ErrKeyNotFound reports a Get/Delete of an absent key.
	ErrKeyNotFound = kv.ErrNotFound
	// ErrKVClosed reports an operation on a closed KV store.
	ErrKVClosed = kv.ErrClosed
	// ErrValueTooLarge reports a value over KV.MaxValueSize.
	ErrValueTooLarge = kv.ErrValueTooLarge
	// ErrKVFull reports page-space exhaustion in a bucket; size the
	// store with KVPagesNeeded.
	ErrKVFull = kv.ErrFull
)

// OpenKV builds a fresh KV store over method, owning logical pages
// [0, numPages). Size numPages with KVPagesNeeded.
func OpenKV(method Method, numPages uint32, opts KVOptions) (*KV, error) {
	return kv.Open(method, numPages, opts)
}

// ReopenKV rebuilds a KV store from a device that already holds one —
// after KV.Sync (or Close) and a process restart, or after crash
// recovery of the method below (Recover). It restores the structure
// present at the last Sync.
func ReopenKV(method Method, numPages uint32, opts KVOptions) (*KV, error) {
	return kv.Reopen(method, numPages, opts)
}

// KVPagesNeeded estimates the logical pages a KV store needs for the
// given record count and value size, including index space and bucket
// imbalance headroom.
func KVPagesNeeded(records, valueSize, pageSize int, opts KVOptions) uint32 {
	return kv.PagesNeeded(records, valueSize, pageSize, opts)
}

// TPCC is a loaded, scaled TPC-C database over a method — the workload of
// the paper's Experiment 7.
type TPCC = tpcc.DB

// TPCCScale sizes a TPC-C database.
type TPCCScale = tpcc.Scale

// TxType enumerates the five TPC-C transactions.
type TxType = tpcc.TxType

// DefaultTPCCScale returns a laptop-scale TPC-C sizing for the given
// warehouse count.
func DefaultTPCCScale(warehouses int) TPCCScale { return tpcc.DefaultScale(warehouses) }

// TPCCPagesNeeded estimates the logical pages a TPC-C database of the
// given scale occupies, for sizing the flash chip and method.
func TPCCPagesNeeded(s TPCCScale, pageSize int) (int, error) {
	return tpcc.PagesNeeded(s, pageSize)
}

// LoadTPCC builds and populates a TPC-C database over method with a DBMS
// buffer of bufferPages frames.
func LoadTPCC(method Method, s TPCCScale, bufferPages int, seed int64) (*TPCC, error) {
	return tpcc.Load(method, s, bufferPages, seed)
}
