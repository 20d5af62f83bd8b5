package core

import (
	"sync"
	"sync/atomic"
)

// baseImages keeps the last base page images the read path served, so the
// write that follows a read does not fetch the same page again. The paper's
// update operation is "read the page, change it, write it back", and
// PDL_Writing step 1 (Figure 7) starts by reading the base page the caller
// has just been given: on the driver-level workload that is one flash read
// of the 2.7 an update costs. ReadPage and ReadBatch copy each base image in
// here before they merge the differential onto it; stageWrite asks here
// before it asks flash.
//
// # Coherence
//
// An image is named by (pid, baseTS), the time stamp snapshotted with the
// mapping entry the image was read under, and it is the differential cache's
// rule over again (see diffCache): base time stamps come from the store's one
// monotone counter, garbage collection relocates a base page with its content
// and its stamp, and every new base page — an initial load, a Case 3
// rewrite, a heal, a rebase — draws a new stamp, so for the life of the store
// (pid, baseTS) names one content wherever in flash it lives. Nothing is ever
// invalidated: a superseded image cannot match a snapshot again and leaves
// when its slot comes round. The writer holds the pid's shard lock, under
// which the base stamp it snapshots cannot move.
//
// # Integrity
//
// Only an image that verified clean under a mapping that stayed stable goes
// in, so what a hit hands the writer is what a verified flash read would have
// (integrity.go says what that gives up: the write no longer re-checks the
// flash copy).
//
// # Memory and cost
//
// The window is a FIFO of n slots, each a page buffer allocated the first
// time the slot is filled: a store that never reads allocates nothing. The
// images are beside the differential cache's byte bound, sized by it (see
// Options.DiffCachePages). A lookup scans the keys from the newest: a
// single update finds its image at once, a batched one within the batch's
// width, and a write nobody read for pays the compares and no flash read more
// than before.
//
// Copying a page on every read is paid by readers that never write (7% of
// ReadPage's own time on the read-only serving workload, and the mutex is one
// more line for concurrent readers to pass around), so reads retain images
// only while the window has served a write, or a hold, within its last two
// laps (two, so that a batch wider than the window is not cut short): idle
// counts the reads since a write or a hold last found its page here, and at 2n
// the window goes dormant, which a read sees in one atomic load and nothing
// else. The window's images stay, and a write or a hold that still finds one
// wakes the window; so does every baseImagesProbe-th that finds none, for two
// laps, which is how a store that turns from serving reads to updating pages
// is noticed.
//
// # Held images
//
// A write-back that comes hundreds of reads after its page was fetched (a
// buffer pool's, at eviction) is beyond any window the store could afford to
// fill from every read. The store cannot tell at fetch time which pages will
// be written; the pool can, one call later, when the page is first dirtied
// (ftl.BaseRetainer): hold moves that page's image, if the window still has
// it, out of the window into the held region, a second FIFO of up to
// maxHeld slots under the same names and the same coherence rule. No bytes
// are copied: the two slots swap buffers, so the region grows by one page
// buffer for each slot it fills for the first time and by nothing after. get
// asks the window, then the held region, and leaves a held image where it is:
// a write that buffers a differential does not change the base, so the same
// image serves the page's next write-back too. put never touches the region.
// When the window goes dormant the region is released, so a store that has
// turned read-only gives the memory back.
//
// mu is a leaf lock, never held with any other. All methods are safe on a
// nil receiver (window off).
type baseImages struct {
	// dormant is read by put without mu and written under it.
	dormant atomic.Bool

	mu        sync.Mutex
	win, held imageFIFO
	idle      int // puts since a get or a hold last found its image
	// missed counts the gets and holds that found nothing while the window is
	// dormant.
	missed int
}

// imageFIFO is a ring of at most max page images, each named by the pageStamp
// it was read under.
type imageFIFO struct {
	keys []pageStamp // allocated by the first take; keys[i] names imgs[i], the zero key nothing
	imgs [][]byte
	max  int
	next int // the slot the next take hands out: the oldest once the ring is full
}

// find returns the slot of the image named want, or -1.
func (f *imageFIFO) find(want pageStamp) int {
	i := f.next
	for range f.keys { // from the newest back, round the ring
		if i == 0 {
			i = f.max
		}
		i--
		if f.keys[i] == want {
			return i
		}
	}
	return -1
}

// take returns the slot the next image goes into.
func (f *imageFIFO) take() int {
	if f.keys == nil {
		f.keys, f.imgs = make([]pageStamp, f.max), make([][]byte, f.max)
	}
	i := f.next
	if f.next++; f.next == f.max {
		f.next = 0
	}
	return i
}

// baseImagesProbe is the number of writes and holds a dormant window lets miss
// before it retains images again to see whether writes have started to follow
// reads.
const baseImagesProbe = 1024

// newBaseImages returns a window of n images beside a held region of at most
// held, nil (off) for n < 1.
func newBaseImages(n, held int) *baseImages {
	if n < 1 {
		return nil
	}
	return &baseImages{win: imageFIFO{max: n}, held: imageFIFO{max: held}}
}

// put retains img, the verified base page image of pid stamped ts, unless the
// window is dormant.
func (b *baseImages) put(pid uint32, ts uint64, img []byte) {
	if b == nil || b.dormant.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i := b.win.take()
	if b.win.imgs[i] == nil {
		b.win.imgs[i] = make([]byte, len(img))
	}
	copy(b.win.imgs[i], img)
	b.win.keys[i] = pageStamp{pid, ts}
	if b.idle++; b.idle >= 2*b.win.max {
		b.dormant.Store(true)
		b.held = imageFIFO{max: b.held.max}
	}
}

// get copies pid's base image stamped ts into dst if the window or the held
// region has it.
func (b *baseImages) get(pid uint32, ts uint64, dst []byte) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	want := pageStamp{pid, ts}
	if i := b.win.find(want); i >= 0 {
		copy(dst, b.win.imgs[i])
	} else if i := b.held.find(want); i >= 0 {
		copy(dst, b.held.imgs[i])
	} else {
		b.miss()
		return false
	}
	b.wake()
	return true
}

// hold moves pid's base image stamped ts from the window into the held
// region, where reads do not push it out, and reports whether the image is
// held now. The two slots swap buffers: the window gets back the buffer of the
// held image that left.
func (b *baseImages) hold(pid uint32, ts uint64) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	want := pageStamp{pid, ts}
	if i := b.win.find(want); i >= 0 {
		j := b.held.take()
		b.win.imgs[i], b.held.imgs[j] = b.held.imgs[j], b.win.imgs[i]
		b.win.keys[i], b.held.keys[j] = pageStamp{}, want
	} else if b.held.find(want) < 0 {
		b.miss()
		return false
	}
	b.wake()
	return true
}

// miss counts a get or a hold that found nothing toward the next probe. The
// caller holds mu.
func (b *baseImages) miss() {
	if b.dormant.Load() {
		if b.missed++; b.missed == baseImagesProbe {
			b.wake()
		}
	}
}

// wake gives reads two laps to retain images in. The caller holds mu.
func (b *baseImages) wake() {
	b.idle, b.missed = 0, 0
	if b.dormant.Load() { // every hit comes here: leave the line readers load alone
		b.dormant.Store(false)
	}
}

// len returns the number of images in the window, heldLen in the held region
// (for tests).
func (b *baseImages) len() int     { return b.count(false) }
func (b *baseImages) heldLen() int { return b.count(true) }

func (b *baseImages) count(held bool) (n int) {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	f := &b.win
	if held {
		f = &b.held
	}
	for _, key := range f.keys {
		if key != (pageStamp{}) {
			n++
		}
	}
	return n
}
