// Package lockorder is the lockorder analyzer's corpus: stub types
// mirroring the real tree's lock-bearing shapes (matched by type and
// field name), with seeded hierarchy violations and their corrected
// counterparts.
package lockorder

import (
	"sort"
	"sync"
)

type mapTable struct{ mu sync.RWMutex }

type diffCache struct{ mu sync.Mutex }

type baseImages struct{ mu sync.Mutex }

type shard struct{ mu sync.Mutex }

type storeChan struct{ mu sync.Mutex }

type Store struct {
	shards []shard
	chans  []storeChan
	mt     *mapTable
	dcache *diffCache
	bimg   *baseImages
}

// goodBaseImagesLeaf takes the retained base images' mutex last, alone.
func (s *Store) goodBaseImagesLeaf() {
	s.mt.mu.RLock()
	s.mt.mu.RUnlock()
	s.bimg.mu.Lock()
	defer s.bimg.mu.Unlock()
}

// badMapTableUnderBaseImages: the base images' mutex is a leaf, in the
// differential cache's class.
func (s *Store) badMapTableUnderBaseImages() {
	s.bimg.mu.Lock()
	defer s.bimg.mu.Unlock()
	s.mt.mu.RLock() // want `acquiring the maptable lock while holding the dcache lock inverts the lock hierarchy`
	s.mt.mu.RUnlock()
}

// badBothLeaves: the two leaf mutexes are one class, never held together.
func (s *Store) badBothLeaves() {
	s.dcache.mu.Lock()
	defer s.dcache.mu.Unlock()
	s.bimg.mu.Lock() // want `re-acquiring the dcache lock already held \(self-deadlock\)`
	s.bimg.mu.Unlock()
}

func (s *Store) badReacquire() {
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
	s.mt.mu.Lock() // want `re-acquiring the maptable lock already held \(self-deadlock\)`
}

func (s *Store) goodShardsAscendingConst() {
	s.shards[0].mu.Lock()
	s.shards[1].mu.Lock()
	s.shards[1].mu.Unlock()
	s.shards[0].mu.Unlock()
}

func (s *Store) badShardsDescendingConst() {
	s.shards[1].mu.Lock()
	s.shards[0].mu.Lock() // want `shard lock 0 acquired while shard lock 1 is held`
	s.shards[0].mu.Unlock()
	s.shards[1].mu.Unlock()
}

func (s *Store) badShardsUnknownOrder(i, j int) {
	s.shards[i].mu.Lock()
	s.shards[j].mu.Lock() // want `second shard lock acquired while one is held, in an order that cannot be proven ascending`
	s.shards[j].mu.Unlock()
	s.shards[i].mu.Unlock()
}

// goodShardsKeyRange locks every shard in index order: the range key
// ascends by construction.
func (s *Store) goodShardsKeyRange() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
}

// goodShardsSortedRange is the WriteBatch idiom: sort the involved
// indices, then lock in slice order.
func (s *Store) goodShardsSortedRange(involved []int) {
	sort.Ints(involved)
	for _, si := range involved {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.Unlock()
		}
	}()
}

func (s *Store) badShardsUnsortedRange(involved []int) {
	for _, si := range involved {
		s.shards[si].mu.Lock() // want `shard locks acquired in a loop whose index order cannot be proven ascending`
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.Unlock()
		}
	}()
}

func (s *Store) badLeak(cond bool) {
	s.mt.mu.Lock() // want `maptable lock acquired here is still held at the return on line \d+ without a deferred unlock`
	if cond {
		return
	}
	s.mt.mu.Unlock()
}

// routeLocked declares a caller-holds convention: its per-page state is
// read-modify-written only under the owning pid's shard lock.
//
//pdlvet:holds shard
func (s *Store) routeLocked() {}

func (s *Store) goodRouter(si int) {
	s.shards[si].mu.Lock()
	defer s.shards[si].mu.Unlock()
	s.routeLocked()
}

func (s *Store) badRouter() {
	s.routeLocked() // want `call to routeLocked requires holding the shard lock \(declared //pdlvet:holds shard\)`
}

func (s *Store) takesMapTable() {
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
}

func (s *Store) badIndirectInversion() {
	s.dcache.mu.Lock()
	defer s.dcache.mu.Unlock()
	s.takesMapTable() // want `call to takesMapTable may acquire the maptable lock while the dcache lock is held`
}

func (s *Store) badIndirectReacquire() {
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
	s.takesMapTable() // want `call to takesMapTable may re-acquire the maptable lock already held`
}

// suppressed shows a documented suppression: the inversion below is
// intentional corpus material and carries an ignore directive.
func (s *Store) suppressed() {
	s.dcache.mu.Lock()
	//pdlvet:ignore lockorder seeded violation kept quiet to exercise the directive
	s.mt.mu.Lock()
	s.mt.mu.Unlock()
	s.dcache.mu.Unlock()
}

// goodChannelUnderShard descends the hierarchy outer-to-inner with
// deferred releases: the channel lock sits directly below the shard lock.
func (s *Store) goodChannelUnderShard() {
	s.shards[0].mu.Lock()
	defer s.shards[0].mu.Unlock()
	s.chans[0].mu.Lock()
	defer s.chans[0].mu.Unlock()
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
}

func (s *Store) badChannelUnderMapTable() {
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
	s.chans[0].mu.Lock() // want `acquiring the channel lock while holding the maptable lock inverts the lock hierarchy`
	s.chans[0].mu.Unlock()
}

func (s *Store) badShardUnderChannel() {
	s.chans[0].mu.Lock()
	defer s.chans[0].mu.Unlock()
	s.shards[0].mu.Lock() // want `acquiring the shard lock while holding the channel lock inverts the lock hierarchy`
	s.shards[0].mu.Unlock()
}

func (s *Store) goodChannelsAscendingConst() {
	s.chans[0].mu.Lock()
	s.chans[1].mu.Lock()
	s.chans[1].mu.Unlock()
	s.chans[0].mu.Unlock()
}

func (s *Store) badChannelsDescendingConst() {
	s.chans[1].mu.Lock()
	s.chans[0].mu.Lock() // want `channel lock 0 acquired while channel lock 1 is held; channel locks must be taken in ascending index order`
	s.chans[0].mu.Unlock()
	s.chans[1].mu.Unlock()
}

// goodChannelsSortedRange is the programOps idiom: sort the involved
// channel indices, then lock in slice order.
func (s *Store) goodChannelsSortedRange(involved []int) {
	sort.Ints(involved)
	for _, ch := range involved {
		s.chans[ch].mu.Lock()
	}
	defer func() {
		for _, ch := range involved {
			s.chans[ch].mu.Unlock()
		}
	}()
}

func (s *Store) badChannelsUnsortedRange(involved []int) {
	for _, ch := range involved {
		s.chans[ch].mu.Lock() // want `channel locks acquired in a loop whose index order cannot be proven ascending`
	}
	defer func() {
		for _, ch := range involved {
			s.chans[ch].mu.Unlock()
		}
	}()
}

// goodChannelsCountingLoop proves ascent through a classic i++ loop,
// started from no held channel.
func (s *Store) goodChannelsCountingLoop(start int) {
	for ch := start; ch < len(s.chans); ch++ {
		s.chans[ch].mu.Lock()
	}
	defer func() {
		for ch := start; ch < len(s.chans); ch++ {
			s.chans[ch].mu.Unlock()
		}
	}()
}

// programOnChannel declares the caller-holds convention the per-channel
// program helpers (allocPagesOn, releaseDiffPage, relocate) and the
// mapping committers use.
//
//pdlvet:holds channel
func (s *Store) programOnChannel() {
	s.mt.mu.Lock()
	s.mt.mu.Unlock()
}

func (s *Store) goodChannelCaller() {
	s.chans[0].mu.Lock()
	defer s.chans[0].mu.Unlock()
	s.programOnChannel()
}

func (s *Store) badChannelCaller() {
	s.programOnChannel() // want `call to programOnChannel requires holding the channel lock \(declared //pdlvet:holds channel\)`
}

// runUnderChannel runs a callback under a channel lock the runner
// acquires, invisible at the literal's definition site.
func (s *Store) runUnderChannel(fn func()) {
	s.chans[0].mu.Lock()
	defer s.chans[0].mu.Unlock()
	fn()
}

// badLiteralUnderRunnersLock: a literal is walked with the locks held
// where it is written, so a convention only its runner satisfies is
// reported (name the function and declare //pdlvet:holds on it).
func (s *Store) badLiteralUnderRunnersLock() {
	s.runUnderChannel(func() {
		s.programOnChannel() // want `call to programOnChannel requires holding the channel lock \(declared //pdlvet:holds channel\)`
	})
}

// bucket mirrors the serving layer's per-bucket lock (internal/kv),
// the hierarchy's outermost tier: kv > shard > ... .
type bucket struct{ mu sync.Mutex }

type DB struct {
	buckets []bucket
	store   *Store
}

// goodBucketThenEngine descends the hierarchy: bucket lock first, the
// engine's locks below it.
func (d *DB) goodBucketThenEngine() {
	d.buckets[0].mu.Lock()
	defer d.buckets[0].mu.Unlock()
	d.store.chans[0].mu.Lock()
	defer d.store.chans[0].mu.Unlock()
}

func (d *DB) badBucketUnderChannel() {
	d.store.chans[0].mu.Lock()
	defer d.store.chans[0].mu.Unlock()
	d.buckets[0].mu.Lock() // want `acquiring the kv lock while holding the channel lock inverts the lock hierarchy`
	d.buckets[0].mu.Unlock()
}

func (d *DB) badBucketUnderShard() {
	d.store.shards[0].mu.Lock()
	defer d.store.shards[0].mu.Unlock()
	d.buckets[0].mu.Lock() // want `acquiring the kv lock while holding the shard lock inverts the lock hierarchy`
	d.buckets[0].mu.Unlock()
}

// goodBucketsKeyRange is the kv snapshot idiom: lock every bucket in
// index order before collecting, release in a deferred sweep.
func (d *DB) goodBucketsKeyRange() {
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
	}
	defer func() {
		for i := range d.buckets {
			d.buckets[i].mu.Unlock()
		}
	}()
}

// goodBucketsSortedRange is the kv PutBatch idiom: sort the involved
// bucket indices, then lock in slice order.
func (d *DB) goodBucketsSortedRange(involved []int) {
	sort.Ints(involved)
	for _, bi := range involved {
		d.buckets[bi].mu.Lock()
	}
	defer func() {
		for _, bi := range involved {
			d.buckets[bi].mu.Unlock()
		}
	}()
}

func (d *DB) badBucketsUnsortedRange(involved []int) {
	for _, bi := range involved {
		d.buckets[bi].mu.Lock() // want `kv locks acquired in a loop whose index order cannot be proven ascending`
	}
	defer func() {
		for _, bi := range involved {
			d.buckets[bi].mu.Unlock()
		}
	}()
}

func (d *DB) badBucketsDescendingConst() {
	d.buckets[1].mu.Lock()
	d.buckets[0].mu.Lock() // want `kv lock 0 acquired while kv lock 1 is held; kv locks must be taken in ascending index order`
	d.buckets[0].mu.Unlock()
	d.buckets[1].mu.Unlock()
}

// putLocked declares the caller-holds convention the kv bucket helpers
// (put, get, collectRange) use.
//
//pdlvet:holds kv
func (d *DB) putLocked() {}

func (d *DB) goodBucketCaller() {
	d.buckets[0].mu.Lock()
	defer d.buckets[0].mu.Unlock()
	d.putLocked()
}

func (d *DB) badBucketCaller() {
	d.putLocked() // want `call to putLocked requires holding the kv lock \(declared //pdlvet:holds kv\)`
}
