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
// and its stamp, and every new base page — a Case 3 rewrite, a whole-page
// route, a heal, a rebase — draws a new stamp, so for the life of the store
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
// width, and a write nobody read for pays n compares and no flash read more
// than before.
//
// Copying a page on every read is paid by readers that never write (7% of
// ReadPage's own time on the read-only serving workload, and the mutex is one
// more line for concurrent readers to pass around), so reads retain images
// only while the window has served a write within its last two laps (two, so
// that a batch wider than the window is not cut short): idle counts the reads
// since a write last found its page here, and at 2n the window goes dormant,
// which a read sees in one atomic load and nothing else. The images stay, and
// a write that still finds one wakes the window; so does every
// baseImagesProbe-th write that finds none, for two laps, which is how a
// store that turns from serving reads to updating pages is noticed. A
// write-back that comes hundreds of reads after its page was fetched (the KV
// pool's) never hits, and pays for 2n copies every baseImagesProbe writes.
//
// mu is a leaf lock, never held with any other. All methods are safe on a
// nil receiver (window off).
type baseImages struct {
	// dormant is read by put without mu and written under it.
	dormant atomic.Bool

	mu   sync.Mutex
	keys []pageStamp // allocated by the first put; keys[i] names imgs[i], the zero key nothing
	imgs [][]byte
	n    int
	next int // the slot the next put fills: the oldest once the window is full
	idle int // puts since a get last found its image
	// missed counts the gets that found nothing while the window is dormant.
	missed int
}

// baseImagesProbe is the number of writes a dormant window lets miss before
// it retains images again to see whether writes have started to follow reads.
const baseImagesProbe = 1024

// newBaseImages returns a window of n images, nil (off) for n < 1.
func newBaseImages(n int) *baseImages {
	if n < 1 {
		return nil
	}
	return &baseImages{n: n}
}

// put retains img, the verified base page image of pid stamped ts, unless the
// window is dormant.
func (b *baseImages) put(pid uint32, ts uint64, img []byte) {
	if b == nil || b.dormant.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keys == nil {
		b.keys, b.imgs = make([]pageStamp, b.n), make([][]byte, b.n)
	}
	if b.imgs[b.next] == nil {
		b.imgs[b.next] = make([]byte, len(img))
	}
	copy(b.imgs[b.next], img)
	b.keys[b.next] = pageStamp{pid, ts}
	if b.next++; b.next == b.n {
		b.next = 0
	}
	if b.idle++; b.idle >= 2*b.n {
		b.dormant.Store(true)
	}
}

// get copies pid's base image stamped ts into dst if the window holds it.
func (b *baseImages) get(pid uint32, ts uint64, dst []byte) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	want, i := pageStamp{pid, ts}, b.next
	for range b.keys { // from the newest back, round the ring
		if i == 0 {
			i = b.n
		}
		i--
		if b.keys[i] == want {
			copy(dst, b.imgs[i])
			b.wake()
			return true
		}
	}
	if b.dormant.Load() {
		if b.missed++; b.missed == baseImagesProbe {
			b.wake()
		}
	}
	return false
}

// wake gives reads two laps to retain images in. The caller holds mu.
func (b *baseImages) wake() {
	b.idle, b.missed = 0, 0
	if b.dormant.Load() { // every hit comes here: leave the line readers load alone
		b.dormant.Store(false)
	}
}

// len returns the number of images held (for tests and tooling).
func (b *baseImages) len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, img := range b.imgs {
		if img != nil {
			n++
		}
	}
	return n
}
