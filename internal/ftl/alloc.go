package ftl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pdl/internal/flash"
)

// blockState tracks the allocator's view of one erase block.
type blockState uint8

const (
	blockFree   blockState = iota // fully erased, on the free list
	blockActive                   // currently being filled
	blockFull                     // completely written (may hold obsolete pages)
)

type blockInfo struct {
	state blockState
	// stream is the append point that last activated the block.
	stream   Stream
	written  int // pages programmed since erase
	obsolete int // pages marked obsolete
}

// Relocator moves the still-valid contents of a victim block elsewhere
// before the allocator erases it. Implementations allocate replacement
// pages with Alloc (recursive garbage collection is suppressed while a
// relocation runs) and update their own mapping tables. They must not
// physically mark pages of the victim obsolete — the erase that follows
// reclaims the whole block — but they must call NoteObsolete for
// bookkeeping if they track validity through the allocator.
type Relocator func(victim int) error

// VictimPolicy selects the garbage-collection victim block.
type VictimPolicy int

// Victim policies.
const (
	// VictimGreedy picks the full block with the most obsolete pages,
	// the policy of Woodhouse's JFFS garbage collector the paper adopts
	// for all methods (footnote 14). It maximizes reclaimed space per
	// erase but ignores wear.
	VictimGreedy VictimPolicy = iota
	// VictimCostBenefit scores blocks by age times invalid ratio
	// (Dayan & Bonnet, "Garbage Collection Techniques for Flash-Resident
	// Page-Mapping FTLs"): a block's age is how many activations the
	// allocator has performed since the block was last activated, and the
	// invalid ratio is obsolete/written. Young hot blocks keep absorbing
	// invalidations before being cleaned; old cold blocks are collected
	// as soon as a worthwhile fraction is garbage. The multi-channel
	// store selects this policy per channel by default.
	VictimCostBenefit
)

// obsEntry is one deferred cross-channel obsolete note: the PPN that died
// and the activation sequence its block had when the note was queued. A
// drained entry whose block has since been erased (freed, or reactivated
// under a newer sequence) is dropped — the page it named no longer
// exists, so counting it would charge a reincarnated page.
type obsEntry struct {
	ppn flash.PPN
	seq uint64
}

// Stream names one of a channel's append points. Pages of different
// lifetimes mixed in one block are what inflates cleaning cost (Dayan &
// Bonnet), so every channel fills up to three blocks at once, one per
// page kind:
//
//   - StreamHot takes foreground base pages (PDL's Case 3 and initial
//     loads, every page of OPU), and any page whose own stream has no
//     block to fill.
//   - StreamCold takes the pages garbage collection relocates: base
//     pages and compacted differential pages. They survived at least one
//     collection, so their blocks accumulate few invalidations and stop
//     being picked as victims, while hot blocks turn over quickly and are
//     cleaned cheaply.
//   - StreamDiff takes the differential pages foreground writes spill. A
//     differential page dies wholesale once its handful of records is
//     superseded, so a block of nothing else becomes completely dead on
//     its own and is collected for the price of an erase, and base-page
//     blocks stop being picked half valid.
type Stream uint8

// The streams, in append-point order.
const (
	StreamHot Stream = iota
	StreamCold
	StreamDiff
	numStreams
)

// minStreamBlocks is how many blocks a channel must own before foreground
// pages get the append point of their stream as a first-class one. An open
// block strands its unwritten tail (up to PagesPerBlock-1 pages), which a
// channel of a handful of blocks cannot afford next to the hot block and
// the reserve; below the threshold every foreground page rides the hot
// stream.
const minStreamBlocks = 16

// allocChan is one channel's allocation state. In single-channel mode
// there is exactly one, and the allocator behaves like the paper's: one
// free list, synchronous collection against one pool.
//
// ap holds the channel's append points, indexed by Stream. The hot stream
// is the only one that is always served: it rolls over to a fresh block
// whenever its block fills, and every allocation entry restores the
// erased-block reserve before that happens. The other two claim a block
// only while the channel has one to spare above its reserve floor, and
// their pages ride the hot stream otherwise (tiny geometries, heavy
// pressure). What makes a stream first-class for foreground pages where
// it is opportunistic for relocations is the reserve accounting:
// AllocBatchOn counts the block a batch's differential (or cold) pages
// will roll into, so a collection runs before that stream rolls over
// exactly as for the hot stream, and the spare block is there when take
// asks. Nobody reserves for a relocation (AllocGC): it joins the open cold
// block, and claims a fresh one only when one is really spare. With
// synchronous collection the free list sits at the reserve in steady
// state, so a stream nobody reserves for never gets a block.
type allocChan struct {
	// blocks lists the global block ids this channel owns, ascending.
	blocks   []int
	freeList []int
	ap       [numStreams]appendPoint
	inGC     bool
	gcStats  flash.Stats
	// gcVictims counts collections per victim block (steady-state checks).
	gcVictims map[int]int64

	// The per-channel counters the benchmark reports record: collections
	// run on this channel, pages relocated by them, how many of those the
	// cold stream placed in a block of its own, and how many spilled
	// differential pages the differential stream placed in one of its own.
	runs            atomic.Int64
	pagesMoved      atomic.Int64
	coldMigrations  atomic.Int64
	diffStreamPages atomic.Int64

	// freeCount mirrors len(freeList) atomically so watermark monitors
	// and cross-channel pressure checks read it without this channel's
	// serialization.
	freeCount atomic.Int32

	// obsSpare is this channel's reusable obsolete-marking spare image
	// (MarkObsolete, the one call that programs the flag).
	obsSpare []byte

	// obsMu guards the deferred obsolete queue (obsPending, mirrored by
	// obsLen). It is a leaf lock held only for queue append/swap and
	// deliberately outside the modeled hierarchy: a writer holding channel
	// c's lock enqueues notes for pages owned by channel d without touching
	// d's channel lock; d drains its queue at its next allocation entry,
	// under its own lock.
	obsMu      sync.Mutex
	obsPending []obsEntry
	obsLen     atomic.Int32
}

// appendPoint is one in-progress block fill.
type appendPoint struct {
	active int // block being filled, -1 if none
	next   int // next page index within active
}

// ChannelGCStats is the per-channel garbage-collection progress snapshot
// recorded by benchmark reports.
type ChannelGCStats struct {
	// Runs is the number of collections (victim relocate + erase) run on
	// this channel.
	Runs int64 `json:"runs"`
	// PagesMoved is the number of pages relocated by those collections.
	PagesMoved int64 `json:"pages_moved"`
	// ColdMigrations is how many of those pages landed in a dedicated
	// cold block (hot/cold separation at work); the rest rode the hot
	// append point.
	ColdMigrations int64 `json:"cold_migrations"`
	// DiffStreamPages is how many spilled differential pages the
	// differential stream handed out of its own blocks; zero on a channel
	// too small to run the stream.
	DiffStreamPages int64 `json:"diff_stream_pages"`
}

// Allocator hands out free flash pages in append order and reclaims space
// with garbage collection under a configurable victim policy (greedy by
// default).
//
// The allocator maintains a reserve of erased blocks so that relocation
// during garbage collection always has somewhere to write; this is the
// "new block, which is reserved for the garbage collection process" of
// section 4.1.
//
// # Channels
//
// Built with NewChannelAllocator over a device that implements
// flash.Channeled, the allocator runs one independent free list, set of
// append points, and garbage-collection state per channel: AllocOn,
// AllocBatchOn, AllocGC and CollectOnceOn operate on one channel and
// require only that channel's external serialization (the store's
// per-channel lock), so K channels allocate and collect in parallel.
// Cross-channel state is confined to atomics (free counts, sequence
// numbers, GC counters) and the deferred obsolete queues. Built with
// NewAllocator — or over a plain device — everything collapses to one
// channel, which Alloc and MarkObsolete address.
type Allocator struct {
	dev      flash.Device
	params   flash.Params
	relocate Relocator

	blocks []blockInfo
	chans  []allocChan
	nchan  int
	chanOf func(blk int) int

	// chanReserve is the per-channel erased-block floor, the channel's share
	// of the configured reserve (max(1, reserve/nchan)).
	chanReserve int

	policy VictimPolicy

	// gcRuns is atomic so watermark monitors and conditioning loops can
	// poll collection progress while background engines collect under
	// the callers' serialization.
	gcRuns atomic.Int64

	// seq tracks each block's activation sequence number: a monotonic
	// counter bumped whenever a block leaves a free list. Pages carry
	// it in their spare headers, so recovery restores it: cost-benefit
	// victim selection reads it as a block's age, and a queued obsolete
	// note uses it to tell a block from its next life. Entries are atomic
	// because cross-channel obsolete enqueues read a block's sequence
	// without its owning channel's lock.
	seq        []atomic.Uint64
	seqCounter atomic.Uint64
}

// NewAllocator builds a single-channel allocator over any flash device
// keeping reserve erased blocks for garbage collection (minimum 1; the
// paper reserves one block). Even over a multi-channel device it treats
// the address space as flat, which is what the externally-serialized
// methods (OPU, IPU, IPL) want.
func NewAllocator(dev flash.Device, reserve int) *Allocator {
	return newAllocator(dev, reserve, 1, nil)
}

// NewChannelAllocator builds an allocator that runs one allocation and
// garbage-collection domain per channel of dev, if dev implements
// flash.Channeled with more than one channel; otherwise it is
// NewAllocator.
func NewChannelAllocator(dev flash.Device, reserve int) *Allocator {
	if c, ok := dev.(flash.Channeled); ok && c.Channels() > 1 {
		return newAllocator(dev, reserve, c.Channels(), c.ChannelOfBlock)
	}
	return newAllocator(dev, reserve, 1, nil)
}

func newAllocator(dev flash.Device, reserve, nchan int, chanOf func(int) int) *Allocator {
	if reserve < 1 {
		reserve = 1
	}
	if chanOf == nil {
		chanOf = func(int) int { return 0 }
	}
	p := dev.Params()
	a := &Allocator{
		dev:         dev,
		params:      p,
		blocks:      make([]blockInfo, p.NumBlocks),
		chans:       make([]allocChan, nchan),
		nchan:       nchan,
		chanOf:      chanOf,
		chanReserve: max(1, reserve/nchan),
		seq:         make([]atomic.Uint64, p.NumBlocks),
	}
	for ch := range a.chans {
		c := &a.chans[ch]
		for st := range c.ap {
			c.ap[st].active = -1
		}
		c.gcVictims = make(map[int]int64)
		c.obsSpare = make([]byte, p.SpareSize)
	}
	for b := 0; b < p.NumBlocks; b++ {
		c := &a.chans[a.chanOf(b)]
		c.blocks = append(c.blocks, b)
	}
	// Free lists are built descending so tail pops hand blocks out in
	// ascending order, matching the append-order expectations of tests.
	for b := p.NumBlocks - 1; b >= 0; b-- {
		if !dev.IsBad(b) {
			c := &a.chans[a.chanOf(b)]
			c.freeList = append(c.freeList, b)
		}
	}
	for ch := range a.chans {
		c := &a.chans[ch]
		c.freeCount.Store(int32(len(c.freeList)))
	}
	return a
}

// SetRelocator installs the method-specific garbage-collection relocation
// callback. It must be set before the first allocation that could trigger
// garbage collection.
func (a *Allocator) SetRelocator(r Relocator) { a.relocate = r }

// SetVictimPolicy selects how garbage-collection victims are chosen.
func (a *Allocator) SetVictimPolicy(p VictimPolicy) { a.policy = p }

// VictimPolicy returns the configured victim policy.
func (a *Allocator) VictimPolicy() VictimPolicy { return a.policy }

// Device returns the underlying flash device.
func (a *Allocator) Device() flash.Device { return a.dev }

// Channels returns the number of allocation channels (1 unless built
// with NewChannelAllocator over a multi-channel device).
func (a *Allocator) Channels() int { return a.nchan }

// ChannelOfBlock returns the channel owning global block blk.
func (a *Allocator) ChannelOfBlock(blk int) int { return a.chanOf(blk) }

// ChannelOf returns the channel owning the block containing ppn.
func (a *Allocator) ChannelOf(ppn flash.PPN) int { return a.chanOf(a.params.BlockOf(ppn)) }

// FreeBlocks returns the number of fully erased blocks across all
// channels (the active blocks' unwritten tail pages are deliberately
// excluded; methods size workloads by erased blocks). It reads the
// atomic mirrors, so it is safe to call from any goroutine.
func (a *Allocator) FreeBlocks() int {
	n := 0
	for ch := range a.chans {
		n += int(a.chans[ch].freeCount.Load())
	}
	return n
}

// FreeBlocksOn returns channel ch's erased-block count. Safe to call
// from any goroutine (per-channel watermark engines poll it).
func (a *Allocator) FreeBlocksOn(ch int) int { return int(a.chans[ch].freeCount.Load()) }

// ChanReserve returns the per-channel erased-block floor.
func (a *Allocator) ChanReserve() int { return a.chanReserve }

// StreamsOn reports whether channel ch serves foreground pages from the
// append point of their stream (see minStreamBlocks) rather than all from
// the hot one.
func (a *Allocator) StreamsOn(ch int) bool { return a.chans[ch].streamsOn() }

func (c *allocChan) streamsOn() bool { return len(c.blocks) >= minStreamBlocks }

// PickChannel implements the foreground fall-over policy: it returns
// home unless home's free pool is at or below its reserve floor while
// another channel has strictly more erased blocks, in which case the
// least-pressured channel is returned. It reads only atomic mirrors, so
// callers consult it BEFORE taking a channel lock. The diversion is
// advisory — by the time the lock is held the pressure may have moved —
// but the failure mode is merely a synchronous collection on a busier
// channel, never incorrectness.
func (a *Allocator) PickChannel(home int) int {
	if a.nchan == 1 {
		return 0
	}
	home %= a.nchan
	bestFree := int(a.chans[home].freeCount.Load())
	if bestFree > a.chanReserve {
		return home
	}
	best := home
	for ch := range a.chans {
		if f := int(a.chans[ch].freeCount.Load()); f > bestFree {
			best, bestFree = ch, f
		}
	}
	return best
}

// FreePages returns the number of unwritten pages available without
// garbage collection, summed over channels.
func (a *Allocator) FreePages() int {
	n := 0
	for ch := range a.chans {
		c := &a.chans[ch]
		n += len(c.freeList) * a.params.PagesPerBlock
		for st := range c.ap {
			n += a.tail(&c.ap[st])
		}
	}
	return n
}

// GCStats returns the flash cost accumulated inside garbage collection,
// which the paper amortizes into the write cost (the slashed areas of
// Figure 12(b)), summed over channels. Unlike GCRuns/FreeBlocks it is
// NOT safe to call while a background engine collects: read it under the
// store's serialization or after Close.
//
// The cost is measured as the device-stats delta across each collection,
// so operations issued by concurrent traffic during that window are
// attributed to GC too: with concurrent traffic (or multiple channels
// collecting at once) the figure is an upper bound. The paper's
// deterministic experiments drive stores from one goroutine, where the
// attribution is exact.
func (a *Allocator) GCStats() flash.Stats {
	var s flash.Stats
	for ch := range a.chans {
		s = s.Add(a.chans[ch].gcStats)
	}
	return s
}

// GCRuns returns how many garbage collections have run across all
// channels. Safe to call from any goroutine.
func (a *Allocator) GCRuns() int64 { return a.gcRuns.Load() }

// ChannelGC returns channel ch's garbage-collection counters. Safe to
// call from any goroutine.
func (a *Allocator) ChannelGC(ch int) ChannelGCStats {
	c := &a.chans[ch]
	return ChannelGCStats{
		Runs:            c.runs.Load(),
		PagesMoved:      c.pagesMoved.Load(),
		ColdMigrations:  c.coldMigrations.Load(),
		DiffStreamPages: c.diffStreamPages.Load(),
	}
}

// MinVictimRounds returns the minimum number of times any single block has
// been garbage-collected, the paper's steady-state criterion ("garbage
// collection is invoked for each block at least ten times on the average
// after loading the database"). Like GCStats, it requires the caller's
// serialization against any background collector.
func (a *Allocator) MinVictimRounds() int64 {
	empty := true
	for ch := range a.chans {
		if len(a.chans[ch].gcVictims) > 0 {
			empty = false
			break
		}
	}
	if empty {
		return 0
	}
	var min int64 = 1<<63 - 1
	for b := range a.blocks {
		v := a.chans[a.chanOf(b)].gcVictims[b]
		if v < min {
			min = v
		}
	}
	return min
}

// MeanVictimRounds returns the mean number of garbage collections per
// block. Safe to call from any goroutine.
func (a *Allocator) MeanVictimRounds() float64 {
	return float64(a.gcRuns.Load()) / float64(len(a.blocks))
}

// ResetGCStats zeroes the garbage-collection accounting (used after the
// steady-state conditioning phase of an experiment).
func (a *Allocator) ResetGCStats() {
	a.gcRuns.Store(0)
	for ch := range a.chans {
		c := &a.chans[ch]
		c.gcStats = flash.Stats{}
		c.runs.Store(0)
		c.pagesMoved.Store(0)
		c.coldMigrations.Store(0)
		c.diffStreamPages.Store(0)
	}
}

// Alloc returns the physical page number of the next free page, running
// garbage collection first if the erased-block reserve would be violated.
// The returned page is accounted as written-and-valid; callers must
// program it exactly once. Single-channel form of AllocOn.
func (a *Allocator) Alloc() (flash.PPN, error) { return a.AllocOn(0) }

// AllocOn is Alloc against channel ch, from the hot stream. The caller
// holds channel ch's external serialization (and nothing else of the
// allocator's).
func (a *Allocator) AllocOn(ch int) (flash.PPN, error) {
	a.drainObsolete(ch)
	c := &a.chans[ch]
	// About to switch blocks: restore the erased-block reserve first.
	// collect may recursively allocate (relocation), which can itself roll
	// the active block over — so the rollover condition is re-checked
	// every iteration, not just once. That matters on small per-channel
	// geometries (few blocks above the reserve): a collection that
	// relocates into a fresh hot block leaves the free list AT the
	// reserve, but the new hot block has room, so no pop is needed and
	// the allocation must proceed rather than demand another victim.
	for a.tail(&c.ap[StreamHot]) == 0 && !c.inGC && len(c.freeList) <= a.chanReserve {
		if err := a.collectOn(ch, true); err != nil {
			return flash.NilPPN, err
		}
	}
	return a.take(ch, StreamHot)
}

// AllocBatchOn returns one free page of channel ch per element of kinds,
// in that order, each from the append point of its stream (StreamHot for
// a base page, StreamDiff for a differential page, StreamCold for a base
// page the caller expects to outlive its neighbours), restoring the
// erased-block reserve up front so that NO garbage collection runs
// between the first and the last page of the batch. That ordering
// matters: a batch's pages are programmed after all of them are
// allocated, and a collection in between could pick a block holding
// allocated-but-still-unprogrammed pages as its victim (relocation would
// skip them — their spare areas are erased — and the erase would hand
// them out a second time). Returns ErrNoSpace if the flash cannot provide
// the pages plus the reserve even after collecting everything
// reclaimable. Collected is the number of garbage collections the call
// ran.
func (a *Allocator) AllocBatchOn(ch int, kinds []Stream) (ppns []flash.PPN, collected int, err error) {
	if len(kinds) == 0 {
		return nil, 0, nil
	}
	a.drainObsolete(ch)
	c := &a.chans[ch]
	if !c.inGC {
		for a.blocksNeededFor(c, kinds)+a.chanReserve > len(c.freeList) {
			if err := a.collectOn(ch, true); err != nil {
				return nil, collected, err
			}
			collected++
		}
	}
	ppns = make([]flash.PPN, len(kinds))
	for i, st := range kinds {
		if ppns[i], err = a.take(ch, c.foreground(st)); err != nil {
			return nil, collected, err
		}
		if st == StreamDiff && a.streamOf(ppns[i]) == StreamDiff {
			c.diffStreamPages.Add(1)
		}
	}
	return ppns, collected, nil
}

// foreground returns the stream that serves a foreground page of kind st
// on this channel: its own where the channel runs the streams, the hot
// stream otherwise.
func (c *allocChan) foreground(st Stream) Stream {
	if c.streamsOn() {
		return st
	}
	return StreamHot
}

// streamOf returns the stream of the block holding ppn.
func (a *Allocator) streamOf(ppn flash.PPN) Stream { return a.blocks[a.params.BlockOf(ppn)].stream }

// tail returns how many pages ap's open block still has to hand out.
func (a *Allocator) tail(ap *appendPoint) int {
	if ap.active < 0 {
		return 0
	}
	return a.params.PagesPerBlock - ap.next
}

// blocksNeededFor returns how many free-list blocks handing out one page
// per element of kinds would consume on channel c, given the open blocks'
// remaining tails. Each page counts against the stream that will really
// serve it: demanding a block for a differential page that is going to
// ride the hot block would turn a three-block channel into a spurious
// ErrNoSpace.
func (a *Allocator) blocksNeededFor(c *allocChan, kinds []Stream) int {
	var n [numStreams]int
	for _, st := range kinds {
		n[c.foreground(st)]++
	}
	ppb := a.params.PagesPerBlock
	need := 0
	for st := range n {
		if over := n[st] - a.tail(&c.ap[st]); over > 0 {
			need += (over + ppb - 1) / ppb
		}
	}
	return need
}

// AllocGC hands out the destination page for one garbage-collection
// relocation on channel ch, from the cold stream. The caller is inside a
// relocation (collection is suppressed), holding channel ch's
// serialization; nobody reserved a block for it, so a full cold block
// rolls over only into a spare block and the page rides the hot stream
// otherwise (see take).
func (a *Allocator) AllocGC(ch int) (flash.PPN, error) {
	c := &a.chans[ch]
	c.pagesMoved.Add(1)
	ppn, err := a.take(ch, StreamCold)
	if err == nil && a.streamOf(ppn) == StreamCold {
		c.coldMigrations.Add(1)
	}
	return ppn, err
}

// activate moves blk out of the free state for stream st, stamping its
// activation sequence.
func (a *Allocator) activate(blk int, st Stream) {
	a.blocks[blk].state = blockActive
	a.blocks[blk].stream = st
	a.seq[blk].Store(a.seqCounter.Add(1))
}

// popFree pops channel ch's free-list tail, or ok == false when empty.
func (a *Allocator) popFree(ch int) (blk int, ok bool) {
	c := &a.chans[ch]
	if len(c.freeList) == 0 {
		return 0, false
	}
	blk = c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	c.freeCount.Store(int32(len(c.freeList)))
	return blk, true
}

// retire closes ap's open block, if any: the block becomes a victim
// candidate and the append point takes a fresh one at its next page.
func (a *Allocator) retire(ap *appendPoint) {
	if ap.active >= 0 {
		a.blocks[ap.active].state = blockFull
		ap.active = -1
	}
}

// take hands out the next page of stream st on channel ch, rolling over
// to a fresh free block when the open one is full: the one block-rollover
// routine of every stream. The hot stream always rolls over; its callers
// have ensured the reserve policy allows it. The cold and differential
// streams claim a block only when the channel has one to spare above its
// reserve floor, and hand the page to the hot stream otherwise; a caller
// that counted the stream's rollover in its reserve check (AllocBatchOn)
// always finds that spare block.
func (a *Allocator) take(ch int, st Stream) (flash.PPN, error) {
	c := &a.chans[ch]
	ap := &c.ap[st]
	if a.tail(ap) == 0 {
		a.retire(ap)
		if st != StreamHot && len(c.freeList) <= a.chanReserve {
			return a.take(ch, StreamHot)
		}
		blk, ok := a.popFree(ch)
		if !ok {
			return flash.NilPPN, ErrNoSpace
		}
		a.activate(blk, st)
		ap.active, ap.next = blk, 0
	}
	ppn := a.params.PPNOf(ap.active, ap.next)
	ap.next++
	a.blocks[ap.active].written++
	return ppn, nil
}

// CollectOnceOn performs at most one garbage-collection increment on
// channel ch (one victim block relocated and erased). It returns
// collected == false when no full block holds an obsolete page, i.e.
// there is nothing to reclaim. A background engine calls it repeatedly —
// under the same serialization as AllocOn — releasing the caller's lock
// between increments so foreground operations interleave with collection.
func (a *Allocator) CollectOnceOn(ch int) (collected bool, err error) {
	a.drainObsolete(ch)
	// collectOn picks its own victim and returns ErrNoSpace before any
	// side effect when none exists, so no separate (second) victim scan.
	// Nothing waits on this collection, so an empty scan is just that: the
	// open cold and differential blocks keep their tails.
	if err := a.collectOn(ch, false); err != nil {
		if errors.Is(err, ErrNoSpace) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// MarkObsolete physically sets the page obsolete by partially programming
// its spare area — which the paper counts as a write operation — and
// updates validity bookkeeping. It is for a method whose recovery has
// nothing but the flag to tell a dead page from a live one: OPU, which keeps
// no time stamps, and the one page of PDL that dies holding the newest time
// stamp of its pid (core's discardLostHeal). Everything a later time stamp
// supersedes is retired with NoteObsolete instead. The caller holds the
// serialization of the channel owning ppn (trivially true in single-channel
// mode).
func (a *Allocator) MarkObsolete(ppn flash.PPN) error {
	c := &a.chans[a.ChannelOf(ppn)]
	ObsoleteSpareInto(c.obsSpare)
	if err := a.dev.ProgramSpare(ppn, c.obsSpare); err != nil {
		return fmt.Errorf("marking ppn %d obsolete: %w", ppn, err)
	}
	a.NoteObsolete(ppn)
	return nil
}

// NoteObsolete counts ppn dead in its block's validity bookkeeping — DRAM
// state only, no device operation. PDL retires every superseded page this
// way: the allocator's counters pick the victims, the mapping table decides
// what a collection relocates, and recovery arbitrates co-existing versions
// by creation time stamp, so nobody would ever read the flag a spare
// program sets. The caller holds the owning channel's serialization (writers
// holding a DIFFERENT channel's lock use NoteObsoleteFrom) or runs
// pre-publication (recovery).
func (a *Allocator) NoteObsolete(ppn flash.PPN) {
	a.blocks[a.params.BlockOf(ppn)].obsolete++
}

// NoteObsoleteFrom is NoteObsolete for a caller holding channel heldCh's
// serialization. If heldCh owns ppn the count is bumped directly; otherwise
// the note is queued on the owning channel, which drains its queue — under
// its own lock — at its next allocation or collection entry. Queued notes
// record the block's activation sequence, so a note whose block was erased
// (and possibly reincarnated) before draining is dropped rather than charged
// to a reborn page.
func (a *Allocator) NoteObsoleteFrom(ppn flash.PPN, heldCh int) {
	ch := a.ChannelOf(ppn)
	if ch == heldCh {
		a.NoteObsolete(ppn)
		return
	}
	blk := a.params.BlockOf(ppn)
	c := &a.chans[ch]
	c.obsMu.Lock()
	c.obsPending = append(c.obsPending, obsEntry{ppn: ppn, seq: a.seq[blk].Load()})
	c.obsLen.Store(int32(len(c.obsPending)))
	c.obsMu.Unlock()
}

// drainObsolete applies channel ch's queued cross-channel obsolete notes.
// The caller holds channel ch's serialization, which guards the block
// counters against this channel's garbage collection.
func (a *Allocator) drainObsolete(ch int) {
	c := &a.chans[ch]
	if c.obsLen.Load() == 0 {
		return
	}
	c.obsMu.Lock()
	pending := c.obsPending
	c.obsPending = nil
	c.obsLen.Store(0)
	c.obsMu.Unlock()
	for _, e := range pending {
		blk := a.params.BlockOf(e.ppn)
		if a.blocks[blk].state == blockFree || a.seq[blk].Load() != e.seq {
			continue // block erased since the note was queued; the page is gone
		}
		a.NoteObsolete(e.ppn)
	}
}

// PendingObsolete returns the number of queued cross-channel obsolete
// notes on channel ch (tests and tooling).
func (a *Allocator) PendingObsolete(ch int) int { return int(a.chans[ch].obsLen.Load()) }

// NoteWritten informs the allocator that ppn was programmed outside Alloc
// (crash recovery rebuilding state from a chip image).
func (a *Allocator) NoteWritten(ppn flash.PPN) {
	a.blocks[a.params.BlockOf(ppn)].written++
}

// SeqOf returns the activation sequence number of blk (0 if never
// activated since the allocator's creation or adoption).
func (a *Allocator) SeqOf(blk int) uint64 { return a.seq[blk].Load() }

// AdoptSeq restores a block's activation sequence during recovery, and
// raises the counter so future activations stay monotone.
func (a *Allocator) AdoptSeq(blk int, seq uint64) {
	a.seq[blk].Store(seq)
	for {
		cur := a.seqCounter.Load()
		if seq <= cur || a.seqCounter.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// AdoptFullBlock marks blk as fully written during recovery scans.
func (a *Allocator) AdoptFullBlock(blk int) {
	if a.blocks[blk].state == blockFree {
		a.blocks[blk].state = blockFull
		c := &a.chans[a.chanOf(blk)]
		for i, b := range c.freeList {
			if b == blk {
				c.freeList = append(c.freeList[:i], c.freeList[i+1:]...)
				break
			}
		}
		c.freeCount.Store(int32(len(c.freeList)))
	}
}

// retireFullAppendPoints flips channel ch's open blocks to the full
// state when they have no pages left, exactly as take does at rollover —
// but eagerly, so that a collection entered BEFORE the rollover can see
// them as victim candidates. On a channel with few blocks above its
// reserve, the just-filled hot block is often the only block carrying
// obsolete pages; leaving it formally active until the next take would
// starve the victim scan.
func (a *Allocator) retireFullAppendPoints(ch int) {
	c := &a.chans[ch]
	for st := range c.ap {
		if a.tail(&c.ap[st]) == 0 {
			a.retire(&c.ap[st])
		}
	}
}

// retireSecondaryAppendPoints closes channel ch's partly filled cold and
// differential blocks that hold obsolete pages, giving up their unwritten
// tails, and reports whether it closed any. It is the last step before
// ErrNoSpace of an allocation whose victim scan came back empty: garbage in
// an open block is invisible to the scan, and on a channel this short of
// space the pages stranded behind an open secondary block are worth less
// than the block.
func (a *Allocator) retireSecondaryAppendPoints(ch int) bool {
	c := &a.chans[ch]
	closed := false
	for st := StreamHot + 1; st < numStreams; st++ {
		if ap := &c.ap[st]; ap.active >= 0 && a.blocks[ap.active].obsolete > 0 {
			a.retire(ap)
			closed = true
		}
	}
	return closed
}

// collectOn performs one garbage collection on channel ch: pick a victim
// block under the configured policy, have the method relocate its valid
// contents, erase it, and return it to the channel's free list. pressed
// says an allocation cannot proceed without the block (the synchronous
// paths): only then does an empty victim scan close the open secondary
// blocks and look again.
func (a *Allocator) collectOn(ch int, pressed bool) error {
	c := &a.chans[ch]
	a.retireFullAppendPoints(ch)
	victim := a.pickVictimOn(ch)
	if victim < 0 && pressed && a.retireSecondaryAppendPoints(ch) {
		victim = a.pickVictimOn(ch)
	}
	if victim < 0 {
		return ErrNoSpace
	}
	before := a.dev.Stats()
	c.inGC = true
	var err error
	bi := &a.blocks[victim]
	if bi.obsolete < bi.written && a.relocate != nil {
		err = a.relocate(victim)
	}
	if err == nil {
		err = a.dev.Erase(victim)
	}
	c.inGC = false
	c.gcStats = c.gcStats.Add(a.dev.Stats().Sub(before))
	if err != nil {
		return fmt.Errorf("garbage collecting block %d: %w", victim, err)
	}
	a.gcRuns.Add(1)
	c.runs.Add(1)
	c.gcVictims[victim]++
	bi.state = blockFree
	bi.written = 0
	bi.obsolete = 0
	c.freeList = append(c.freeList, victim)
	c.freeCount.Store(int32(len(c.freeList)))
	return nil
}

// pickVictim is pickVictimOn in single-channel mode (tests).
func (a *Allocator) pickVictim() int { return a.pickVictimOn(0) }

// pickVictimOn selects channel ch's garbage-collection victim, or -1 if
// no full block of the channel holds any obsolete page.
func (a *Allocator) pickVictimOn(ch int) int {
	c := &a.chans[ch]
	victim := -1
	best := float64(0)
	seqNow := a.seqCounter.Load()
	for _, b := range c.blocks {
		bi := &a.blocks[b]
		if bi.state != blockFull || bi.obsolete == 0 {
			continue
		}
		score := float64(bi.obsolete)
		if a.policy == VictimCostBenefit {
			// Age (activations since this block was filled) times invalid
			// ratio: old blocks whose garbage has stabilized win over hot
			// blocks still absorbing invalidations.
			score = float64(seqNow-a.seq[b].Load()+1) *
				float64(bi.obsolete) / float64(bi.written)
		}
		if score > best {
			best = score
			victim = b
		}
	}
	return victim
}

// BlockStats describes the allocator's bookkeeping for one block, exposed
// for tests and debugging tools.
type BlockStats struct {
	Free     bool
	Active   bool
	Written  int
	Obsolete int
	// Stream is the append point that filled (or is filling) the block;
	// meaningless while Free.
	Stream Stream
}

// BlockStats returns the bookkeeping for block blk.
func (a *Allocator) BlockStats(blk int) BlockStats {
	bi := &a.blocks[blk]
	return BlockStats{
		Free:     bi.state == blockFree,
		Active:   bi.state == blockActive,
		Written:  bi.written,
		Obsolete: bi.obsolete,
		Stream:   bi.stream,
	}
}
