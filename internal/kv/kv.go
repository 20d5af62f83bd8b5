// Package kv is the serving layer: a concurrent ordered key-value store
// built from the module's storage engine — one B+-tree per hash bucket,
// whose leaves hold the records, all sharing one page-update method
// (PDL or a baseline) over one flash device. It exists to exercise the
// engine the way a database serving layer would (YCSB-style mixes of
// point reads, updates, inserts, and range scans from many client
// goroutines) rather than through the page-level microbenchmarks the
// earlier experiments use.
//
// # Concurrency model
//
// Keys are hash-partitioned across buckets. Each bucket owns an
// exclusive lock, a private buffer pool, and a B+-tree whose leaves hold
// the (key, value) records, so a Get faults at most the pages of one
// root-to-leaf path; the pools of every bucket share the method
// underneath. The method is the only layer below the bucket lock that
// sees real concurrency: the PDL store is
// concurrency-safe (sharded) and takes cross-bucket operations in
// parallel, while the baselines (OPU/IPU/IPL) are wrapped in a
// serializing adapter (newMethod). Bucket locks rank above every engine lock
// (kv > shard > channel > bus > mapTable > caches); multi-bucket
// operations acquire them in ascending index order, and pdlvet's
// lockorder pass proves both facts.
//
// # Snapshot scans
//
// Scan is snapshot-consistent: it locks every bucket (ascending),
// collects the matching entries as copies, unlocks, and only then
// invokes the caller's function. Because Put, PutBatch, and Delete hold
// their buckets' locks for the whole mutation — and PutBatch locks all
// involved buckets before touching any — a scan observes either all or
// none of any concurrent batch, and never a torn multi-key write.
//
// # Durability
//
// Sync flushes every bucket's pool, persists the per-bucket recovery
// states (tree roots, allocation cursors, sizes) into a metadata page,
// flushes the method, and syncs the device. Reopen reads the metadata page
// back and rebuilds every bucket without replaying anything.
//
// Like any steal-policy buffer-pool database without a redo log, a
// crash between Syncs loses unsynced writes still sitting in the pools
// but may retain unsynced updates that eviction had already written
// back. What Reopen then guarantees depends on those writes. If they
// were same-size overwrites, which change no page's shape, every synced
// key is present, carrying its synced value or a later unsynced
// overwrite. An insert, or a value that grows, can split a leaf or move
// records between siblings and their parent's separators, and eviction
// writes those pages back one at a time: a crash can leave some of them
// new and some as the Sync left them, and synced keys can be lost too.
// Sync at the points that must be crash-atomic; between Syncs, only
// same-size overwrites leave every synced key safe.
//
// The paper's own recovery story concerns the FTL mapping below this
// layer, which each method already rebuilds from flash spare areas
// (see core.Recover).
package kv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pdl/internal/btree"
	"pdl/internal/buffer"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var (
	// ErrNotFound reports a Get or Delete of a key that is not present.
	ErrNotFound = errors.New("kv: key not found")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("kv: store is closed")
	// ErrValueTooLarge reports a value over MaxValueSize.
	ErrValueTooLarge = errors.New("kv: value too large")
	// ErrFull reports that a bucket's tree ran out of pages.
	ErrFull = errors.New("kv: store is full")
)

// numBuckets is the hash-partition count, the store's write concurrency
// width. Every store has this many; Reopen refuses metadata naming another.
const numBuckets = 8

// Options tunes a store. The zero value picks serviceable defaults.
type Options struct {
	// PoolPages is each bucket's buffer-pool capacity in pages.
	// Default 64, minimum 8.
	PoolPages int
}

func (o Options) withDefaults() Options {
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
	if o.PoolPages < 8 {
		o.PoolPages = 8
	}
	return o
}

// Entry is one key-value pair, as PutBatch consumes and Scan produces.
type Entry struct {
	Key   uint64
	Value []byte
}

// bucket is one hash partition: an exclusive lock over a private buffer
// pool and a B+-tree whose leaves hold the records. The type and field
// names are load-bearing: pdlvet's lockModel maps (bucket, mu) to the kv
// lock class, the top of the module's lock hierarchy.
type bucket struct {
	mu   sync.Mutex
	pool *buffer.Pool
	tree *btree.Tree
}

// DB is a concurrent key-value store over one page-update method. All
// methods are safe for concurrent use by multiple goroutines.
type DB struct {
	method   ftl.Method // possibly a serializing wrapper; see newMethod
	buckets  []bucket
	numPages uint32
	span     uint32 // pages per bucket, all of them its tree's
	closed   atomic.Bool
}

// concurrencySafe is the advertisement the PDL store makes (and the
// baselines do not); newMethod is its one prober.
type concurrencySafe interface{ ConcurrencySafe() bool }

// serialMethod funnels every method call through one mutex, making a
// single-threaded baseline safe under the concurrent serving layer at
// the cost of serializing its device work.
type serialMethod struct {
	mu sync.Mutex
	m  ftl.Method
}

func (s *serialMethod) Name() string { return s.m.Name() }

func (s *serialMethod) ReadPage(pid uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadPage(pid, buf)
}

func (s *serialMethod) WritePage(pid uint32, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.WritePage(pid, data)
}

func (s *serialMethod) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Flush()
}

func (s *serialMethod) Device() flash.Device { return s.m.Device() }

func (s *serialMethod) PageSize() int { return s.m.PageSize() }

func (s *serialMethod) Stats() flash.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Stats()
}

// newMethod returns m itself when it is safe under concurrency, or a
// serializing wrapper when it is not.
func newMethod(m ftl.Method) ftl.Method {
	if cs, ok := m.(concurrencySafe); ok && cs.ConcurrencySafe() {
		return m
	}
	return &serialMethod{m: m}
}

// mix is MurmurHash3's 64-bit finalizer (fmix64): a full-avalanche integer
// hash, so dense or strided key spaces still spread evenly across buckets.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (d *DB) bucketOf(k uint64) int { return int(mix(k) % uint64(len(d.buckets))) }

// bucketSpan is how many of numPages each of the buckets gets, page 0 being
// the metadata's. A layout needs at least 4.
func bucketSpan(numPages uint32) uint32 {
	if numPages < 2 {
		return 0
	}
	return (numPages - 1) / numBuckets
}

// Open creates a fresh store over the first numPages logical pages of
// method's device. Page 0 is reserved for recovery metadata; the rest is
// split into equal per-bucket spans, each one bucket's B+-tree. Nothing is
// durable until Sync.
func Open(method ftl.Method, numPages uint32, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	span := bucketSpan(numPages)
	if span < 4 {
		return nil, fmt.Errorf("kv: %d pages cannot hold %d buckets (need >= %d)",
			numPages, numBuckets, 1+4*numBuckets)
	}
	d := &DB{
		method:   newMethod(method),
		buckets:  make([]bucket, numBuckets),
		numPages: numPages,
		span:     span,
	}
	if err := checkMetaFits(d.method.PageSize()); err != nil {
		return nil, err
	}
	for i := range d.buckets {
		pool, err := buffer.NewPool(d.method, opts.PoolPages)
		if err != nil {
			return nil, err
		}
		tree, err := btree.New(pool, d.first(i), span)
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d: %w", i, err)
		}
		d.buckets[i] = bucket{pool: pool, tree: tree}
	}
	return d, nil
}

// first is bucket i's first page.
func (d *DB) first(i int) uint32 { return 1 + uint32(i)*d.span }

// Reopen rebuilds a store from the recovery metadata its last Sync
// persisted; opts supplies only PoolPages. numPages must match the value
// the store was opened with, and the metadata must name the page split
// Open lays out over it.
func Reopen(method ftl.Method, numPages uint32, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	m := newMethod(method)
	meta, err := readMeta(m)
	if err != nil {
		return nil, err
	}
	if meta.numPages != numPages {
		return nil, fmt.Errorf("kv: store was created over %d pages, reopened with %d",
			meta.numPages, numPages)
	}
	// The checksum covers the bucket records only: the split is checked here,
	// against what Open lays out, before any page id is computed from it.
	span := bucketSpan(numPages)
	if span < 4 || meta.treePages != span {
		return nil, fmt.Errorf("kv: metadata names %d tree pages a bucket, Open lays out %d",
			meta.treePages, span)
	}
	d := &DB{
		method:   m,
		buckets:  make([]bucket, numBuckets),
		numPages: meta.numPages,
		span:     span,
	}
	for i := range d.buckets {
		pool, err := buffer.NewPool(d.method, opts.PoolPages)
		if err != nil {
			return nil, err
		}
		tree, err := btree.Open(pool, d.first(i), span, meta.states[i])
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d: %w", i, err)
		}
		d.buckets[i] = bucket{pool: pool, tree: tree}
	}
	return d, nil
}

// PagesNeeded returns a logical page count that comfortably holds
// records values of valueSize bytes under opts, including the metadata
// page, internal nodes, hash imbalance across buckets, and leaves left
// part full by splits. Size the device's logical capacity to at least this.
func PagesNeeded(records int, valueSize, pageSize int, opts Options) uint32 {
	opts = opts.withDefaults()
	if records < 1 {
		records = 1
	}
	// Expected records per bucket, plus 25% hash-imbalance headroom.
	perBucket := records/numBuckets + 1
	perBucket += perBucket / 4
	// Leaves packed full: a record costs its key, its value and a slot, and
	// a leaf loses its header, about 8 bytes. 30% more for leaves that
	// splits leave part full and for dead bytes under resizing updates.
	recsPerLeaf := max(1, (pageSize-8)/(8+valueSize+4))
	leaves := perBucket/recsPerLeaf + 1
	leaves += leaves*3/10 + 2
	// Internal nodes: two pages for every leaf of 16-byte entries, which is
	// far more than they take. Then the span grows by eighths until three
	// quarters of it hold the leaves and a quarter the internal nodes. This
	// is the arithmetic of the heap-and-index layout the leaves replaced,
	// kept so that a device sized for a store keeps its size.
	internal := 2*(perBucket/((pageSize-7)/16)+1) + 4
	span := leaves + internal
	for {
		quarter := max(2, span/4)
		if quarter >= internal && span-quarter >= leaves {
			break
		}
		span += span/8 + 1
	}
	return 1 + numBuckets*uint32(max(4, span))
}

// MaxValueSize returns the largest storable value: the largest of which a
// leaf page holds two.
func (d *DB) MaxValueSize() int { return d.buckets[0].tree.MaxValueSize() }

// NumPages returns the logical page span the store occupies.
func (d *DB) NumPages() uint32 { return d.numPages }

// put applies one upsert inside a locked bucket.
//
//pdlvet:holds kv
func (b *bucket) put(k uint64, v []byte) error {
	err := b.tree.Put(k, v)
	if errors.Is(err, btree.ErrNoSpace) {
		return fmt.Errorf("%w: %v", ErrFull, err)
	}
	return err
}

// Put inserts or overwrites one key.
func (d *DB) Put(k uint64, v []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if len(v) > d.MaxValueSize() {
		return fmt.Errorf("%w: %d bytes, max %d", ErrValueTooLarge, len(v), d.MaxValueSize())
	}
	b := &d.buckets[d.bucketOf(k)]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.put(k, v)
}

// PutBatch applies every entry as one atomic unit with respect to Scan:
// all involved buckets are locked (in ascending order) before the first
// entry lands, so a concurrent snapshot observes either none or all of
// the batch. Entries for the same key apply in slice order.
func (d *DB) PutBatch(entries []Entry) error {
	if d.closed.Load() {
		return ErrClosed
	}
	for _, e := range entries {
		if len(e.Value) > d.MaxValueSize() {
			return fmt.Errorf("%w: %d bytes, max %d", ErrValueTooLarge, len(e.Value), d.MaxValueSize())
		}
	}
	var want [numBuckets]bool
	for _, e := range entries {
		want[d.bucketOf(e.Key)] = true
	}
	idxs := make([]int, 0, len(d.buckets))
	for i := range d.buckets {
		if want[i] {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		d.buckets[i].mu.Lock()
	}
	defer func() {
		for _, i := range idxs {
			d.buckets[i].mu.Unlock()
		}
	}()
	for _, e := range entries {
		if err := d.buckets[d.bucketOf(e.Key)].put(e.Key, e.Value); err != nil {
			return err
		}
	}
	return nil
}

// lockAll locks every bucket, in ascending index order, and returns the
// unlock; callers take it as `defer d.lockAll()()`.
//
//pdlvet:acquires kv
func (d *DB) lockAll() (unlock func()) {
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
	}
	return func() {
		for i := range d.buckets {
			d.buckets[i].mu.Unlock()
		}
	}
}

// Get returns the value of k, in buf's storage when it has the capacity
// (pass nil to allocate). Returns ErrNotFound for absent keys.
func (d *DB) Get(k uint64, buf []byte) ([]byte, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	b := &d.buckets[d.bucketOf(k)]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.get(k, buf)
}

//pdlvet:holds kv
func (b *bucket) get(k uint64, buf []byte) ([]byte, error) {
	v, err := b.tree.Get(k, buf[:0])
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, k)
	}
	return v, err
}

// Delete removes k, returning ErrNotFound when absent.
func (d *DB) Delete(k uint64) error {
	if d.closed.Load() {
		return ErrClosed
	}
	b := &d.buckets[d.bucketOf(k)]
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.tree.Delete(k)
	if errors.Is(err, btree.ErrNotFound) {
		return fmt.Errorf("%w: %d", ErrNotFound, k)
	}
	return err
}

// Scan streams the entries with lo <= key <= hi in ascending key order,
// stopping after limit entries (limit <= 0 means no limit) or when fn
// returns false. The entries are a snapshot: fn runs after every bucket
// lock is released, on copies, so it may take as long as it likes and
// may itself call back into the store.
func (d *DB) Scan(lo, hi uint64, limit int, fn func(k uint64, v []byte) bool) error {
	ents, err := d.snapshot(lo, hi, limit)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !fn(e.Key, e.Value) {
			return nil
		}
	}
	return nil
}

// snapshot collects the range under all bucket locks. Each bucket may
// contribute up to limit entries (any bucket could own the range's
// smallest keys), and the merged result is cut to limit after sorting.
func (d *DB) snapshot(lo, hi uint64, limit int) ([]Entry, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	defer d.lockAll()()
	var ents []Entry
	for i := range d.buckets {
		var err error
		ents, err = d.buckets[i].collectRange(lo, hi, limit, ents)
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	if limit > 0 && len(ents) > limit {
		ents = ents[:limit]
	}
	return ents, nil
}

// collectRange appends this bucket's slice of [lo, hi] to ents as
// copies, contributing at most limit entries.
//
//pdlvet:holds kv
func (b *bucket) collectRange(lo, hi uint64, limit int, ents []Entry) ([]Entry, error) {
	start := len(ents)
	err := b.tree.Range(lo, hi, func(k uint64, v []byte) bool {
		ents = append(ents, Entry{Key: k, Value: append([]byte(nil), v...)})
		return limit <= 0 || len(ents)-start < limit
	})
	if err != nil {
		return nil, err
	}
	return ents, nil
}

// Len returns the number of live keys.
func (d *DB) Len() int {
	if d.closed.Load() {
		return 0
	}
	defer d.lockAll()()
	n := 0
	for i := range d.buckets {
		n += d.buckets[i].tree.Size()
	}
	return n
}

// PoolStats returns the bucket pools' counters, summed.
func (d *DB) PoolStats() buffer.Stats {
	defer d.lockAll()()
	var total buffer.Stats
	for i := range d.buckets {
		s := d.buckets[i].pool.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
		total.Writebacks += s.Writebacks
	}
	return total
}

// Sync makes the current contents durable: every bucket pool's dirty
// pages are written back, the per-bucket recovery states are persisted
// to the metadata page, the method's buffers are flushed, and the device
// is synced. A Reopen after a crash starts from the metadata the last
// successful Sync wrote (the package comment says what that keeps).
func (d *DB) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.sync()
}

func (d *DB) sync() error {
	defer d.lockAll()()
	states := make([]btree.State, len(d.buckets))
	for i := range d.buckets {
		b := &d.buckets[i]
		if err := b.pool.Flush(); err != nil {
			return fmt.Errorf("kv: sync bucket %d: %w", i, err)
		}
		states[i] = b.tree.State()
	}
	if err := writeMeta(d.method, metaState{
		numPages:  d.numPages,
		treePages: d.span,
		states:    states,
	}); err != nil {
		return fmt.Errorf("kv: sync metadata: %w", err)
	}
	if err := d.method.Flush(); err != nil {
		return err
	}
	return d.method.Device().Sync()
}

// Close syncs and marks the store closed; every later call fails with
// ErrClosed. Close does not close the method or device.
func (d *DB) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	return d.sync()
}
