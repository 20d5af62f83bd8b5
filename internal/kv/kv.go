// Package kv is the serving layer: a concurrent ordered key-value store
// built from the module's storage engine — a B+-tree index and a
// slotted-page heap per hash bucket, all sharing one page-update method
// (PDL or a baseline) over one flash device. It exists to exercise the
// engine the way a database serving layer would (YCSB-style mixes of
// point reads, updates, inserts, and range scans from many client
// goroutines) rather than through the page-level microbenchmarks the
// earlier experiments use.
//
// # Concurrency model
//
// Keys are hash-partitioned across buckets. Each bucket owns an
// exclusive lock, a private buffer pool, a B+-tree mapping key -> record
// id, and a heap holding the record bytes; the pools of every bucket
// share the method underneath. The method is the only layer below the
// bucket lock that sees real concurrency: the PDL store is
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
// The store is durable to its last successful Sync: Sync flushes every
// bucket's pool, persists the per-bucket recovery states (tree roots,
// allocation cursors, heap insert hints) into a metadata page, flushes
// the method, and syncs the device. Reopen reads the metadata page back
// and rebuilds every bucket without replaying anything.
//
// Like any steal-policy buffer-pool database without a redo log, a
// crash between Syncs loses unsynced writes still sitting in the pools
// but may retain unsynced updates that eviction had already written
// back; what Reopen guarantees is the structure of the last successful
// Sync (every synced key present, carrying its synced value or a later
// unsynced overwrite). Sync at the points that must be crash-atomic.
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
	"pdl/internal/storage"
)

var (
	// ErrNotFound reports a Get or Delete of a key that is not present.
	ErrNotFound = errors.New("kv: key not found")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("kv: store is closed")
	// ErrValueTooLarge reports a value that cannot fit one heap page.
	ErrValueTooLarge = errors.New("kv: value too large")
	// ErrFull reports that a bucket's heap or tree ran out of pages.
	ErrFull = errors.New("kv: store is full")
)

// Options tunes a store. The zero value picks serviceable defaults.
type Options struct {
	// Buckets is the hash-partition count — the store's write
	// concurrency width. Default 8, clamped to [1, 64].
	Buckets int
	// PoolPages is each bucket's buffer-pool capacity in pages.
	// Default 64, minimum 8.
	PoolPages int
}

func (o Options) withDefaults() Options {
	if o.Buckets <= 0 {
		o.Buckets = 8
	}
	if o.Buckets > maxBuckets {
		o.Buckets = maxBuckets
	}
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
// pool, a B+-tree index (key -> packed record id), and a heap holding
// the record bytes. The type and field names are load-bearing: pdlvet's
// lockModel maps (bucket, mu) to the kv lock class, the top of the
// module's lock hierarchy.
type bucket struct {
	mu   sync.Mutex
	pool *buffer.Pool
	tree *btree.Tree
	heap *storage.Heap
}

// DB is a concurrent key-value store over one page-update method. All
// methods are safe for concurrent use by multiple goroutines.
type DB struct {
	method    ftl.Method // possibly a serializing wrapper; see newMethod
	buckets   []bucket
	numPages  uint32
	treePages uint32 // per bucket
	span      uint32 // pages per bucket (tree + heap)
	closed    atomic.Bool
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

// mix is the splitmix64 finalizer: a full-avalanche integer hash, so
// dense or strided key spaces still spread evenly across buckets.
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
func bucketSpan(numPages uint32, buckets int) uint32 {
	if numPages < 2 {
		return 0
	}
	return (numPages - 1) / uint32(buckets)
}

// indexPages is how many pages of a bucket's span hold its B+-tree index: a
// quarter, and at least 2. The rest holds the heap, which a span of 4 or more
// leaves at least 2 pages as well.
func indexPages(span uint32) uint32 { return max(2, span/4) }

// Open creates a fresh store over the first numPages logical pages of
// method's device. Page 0 is reserved for recovery metadata; the rest is
// split into equal per-bucket spans. Nothing is durable until Sync.
func Open(method ftl.Method, numPages uint32, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	span := bucketSpan(numPages, opts.Buckets)
	if span < 4 {
		return nil, fmt.Errorf("kv: %d pages cannot hold %d buckets (need >= %d)",
			numPages, opts.Buckets, 1+4*opts.Buckets)
	}
	treePages := indexPages(span)
	d := &DB{
		method:    newMethod(method),
		buckets:   make([]bucket, opts.Buckets),
		numPages:  numPages,
		treePages: treePages,
		span:      span,
	}
	if err := checkMetaFits(d.method.PageSize(), opts.Buckets); err != nil {
		return nil, err
	}
	for i := range d.buckets {
		first := 1 + uint32(i)*span
		pool, err := buffer.NewPool(d.method, opts.PoolPages)
		if err != nil {
			return nil, err
		}
		tree, err := btree.New(pool, first, treePages)
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d index: %w", i, err)
		}
		heap, err := storage.NewHeap(pool, first+treePages, span-treePages)
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d heap: %w", i, err)
		}
		d.buckets[i] = bucket{pool: pool, tree: tree, heap: heap}
	}
	return d, nil
}

// Reopen rebuilds a store from the recovery metadata its last Sync
// persisted. The layout (bucket count, page split) comes from the
// metadata page; opts supplies only PoolPages. numPages must match the
// value the store was opened with.
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
	// against what Open can lay out, before any page id is computed from it.
	span := bucketSpan(numPages, len(meta.states))
	if span < 4 || meta.treePages < 2 || meta.treePages > span-2 {
		return nil, fmt.Errorf("kv: metadata names %d index pages in a bucket span of %d",
			meta.treePages, span)
	}
	d := &DB{
		method:    m,
		buckets:   make([]bucket, len(meta.states)),
		numPages:  meta.numPages,
		treePages: meta.treePages,
		span:      span,
	}
	for i := range d.buckets {
		first := 1 + uint32(i)*d.span
		pool, err := buffer.NewPool(d.method, opts.PoolPages)
		if err != nil {
			return nil, err
		}
		tree, err := btree.Open(pool, first, d.treePages, meta.states[i].tree)
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d index: %w", i, err)
		}
		heap, err := storage.NewHeap(pool, first+d.treePages, d.span-d.treePages)
		if err != nil {
			return nil, fmt.Errorf("kv: bucket %d heap: %w", i, err)
		}
		heap.SetInsertHint(meta.states[i].heapHint)
		d.buckets[i] = bucket{pool: pool, tree: tree, heap: heap}
	}
	return d, nil
}

// PagesNeeded returns a logical page count that comfortably holds
// records values of valueSize bytes under opts, including the metadata
// page, index fan-out, hash imbalance across buckets, and slotted-page
// slack. Size the device's logical capacity to at least this.
func PagesNeeded(records int, valueSize, pageSize int, opts Options) uint32 {
	opts = opts.withDefaults()
	if records < 1 {
		records = 1
	}
	// Expected records per bucket, plus 25% hash-imbalance headroom.
	perBucket := records/opts.Buckets + 1
	perBucket += perBucket / 4
	// Heap: each record costs a key prefix plus a slot; each page loses a
	// header. 30% slack for fragmentation under updates.
	recSize := valueSize + recKeySize + 4
	recsPerPage := (pageSize - 8) / recSize
	if recsPerPage < 1 {
		recsPerPage = 1
	}
	heapPages := perBucket/recsPerPage + 1
	heapPages += heapPages*3/10 + 2
	// Tree: leaves average ~2/3 full after splits; double the packed
	// count covers leaves plus internals with room to spare.
	leafCap := (pageSize - 7) / 16
	treePages := 2*(perBucket/leafCap+1) + 4
	span := heapPages + treePages
	// Respect Open's split: grow the span until both halves fit their side.
	fracSpan := span
	for {
		tp := int(indexPages(uint32(fracSpan)))
		if tp >= treePages && fracSpan-tp >= heapPages {
			break
		}
		fracSpan += fracSpan/8 + 1
	}
	if fracSpan < 4 {
		fracSpan = 4
	}
	return 1 + uint32(opts.Buckets)*uint32(fracSpan)
}

// recKeySize is the big-endian key prefix stored ahead of every heap
// record, making records self-describing (and letting Get verify that
// the index and heap agree).
const recKeySize = 8

// MaxValueSize returns the largest storable value.
func (d *DB) MaxValueSize() int { return d.buckets[0].heap.MaxRecordSize() - recKeySize }

// Buckets returns the hash-partition count.
func (d *DB) Buckets() int { return len(d.buckets) }

// NumPages returns the logical page span the store occupies.
func (d *DB) NumPages() uint32 { return d.numPages }

func packRID(rid storage.RID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }

func unpackRID(v uint64) storage.RID {
	return storage.RID{Page: uint32(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// put applies one upsert inside a locked bucket.
//
//pdlvet:holds kv
func (b *bucket) put(k uint64, v []byte) error {
	rec := make([]byte, recKeySize+len(v))
	putKeyPrefix(rec, k)
	copy(rec[recKeySize:], v)
	old, err := b.tree.Get(k)
	switch {
	case err == nil:
		rid := unpackRID(old)
		uerr := b.heap.Update(rid, rec)
		if uerr == nil {
			return nil
		}
		if !errors.Is(uerr, storage.ErrNoSpace) {
			return uerr
		}
		// The grown record no longer fits its page: relocate it and
		// repoint the index.
		if derr := b.heap.Delete(rid); derr != nil {
			return derr
		}
		nrid, ierr := b.heap.Insert(rec)
		if ierr != nil {
			return wrapFull(ierr)
		}
		return b.tree.Update(k, packRID(nrid))
	case errors.Is(err, btree.ErrNotFound):
		rid, ierr := b.heap.Insert(rec)
		if ierr != nil {
			return wrapFull(ierr)
		}
		if terr := b.tree.Insert(k, packRID(rid)); terr != nil {
			// Undo the heap insert so a full index does not leak a record.
			_ = b.heap.Delete(rid)
			return wrapFull(terr)
		}
		return nil
	default:
		return err
	}
}

func wrapFull(err error) error {
	if errors.Is(err, storage.ErrNoSpace) || errors.Is(err, btree.ErrNoSpace) {
		return fmt.Errorf("%w: %v", ErrFull, err)
	}
	return err
}

func putKeyPrefix(rec []byte, k uint64) {
	for i := 0; i < recKeySize; i++ {
		rec[i] = byte(k >> (56 - 8*i))
	}
}

func keyPrefix(rec []byte) uint64 {
	var k uint64
	for i := 0; i < recKeySize; i++ {
		k = k<<8 | uint64(rec[i])
	}
	return k
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
	var want [maxBuckets]bool
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

// Get returns the value of k, appended into buf when it has capacity
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
	packed, err := b.tree.Get(k)
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, k)
	}
	if err != nil {
		return nil, err
	}
	rec, err := b.heap.Get(unpackRID(packed), buf)
	if err != nil {
		return nil, err
	}
	if len(rec) < recKeySize || keyPrefix(rec) != k {
		return nil, fmt.Errorf("kv: index and heap disagree on key %d", k)
	}
	return append(rec[:0], rec[recKeySize:]...), nil
}

// Delete removes k, returning ErrNotFound when absent.
func (d *DB) Delete(k uint64) error {
	if d.closed.Load() {
		return ErrClosed
	}
	b := &d.buckets[d.bucketOf(k)]
	b.mu.Lock()
	defer b.mu.Unlock()
	packed, err := b.tree.Get(k)
	if errors.Is(err, btree.ErrNotFound) {
		return fmt.Errorf("%w: %d", ErrNotFound, k)
	}
	if err != nil {
		return err
	}
	if err := b.heap.Delete(unpackRID(packed)); err != nil {
		return err
	}
	return b.tree.Delete(k)
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
	held := make([]bool, len(d.buckets))
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
		held[i] = true
	}
	defer func() {
		for i := range d.buckets {
			if held[i] {
				d.buckets[i].mu.Unlock()
			}
		}
	}()
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
	var inner error
	err := b.tree.Range(lo, hi, func(k, packed uint64) bool {
		rec, err := b.heap.Get(unpackRID(packed), nil)
		if err != nil {
			inner = err
			return false
		}
		if len(rec) < recKeySize || keyPrefix(rec) != k {
			inner = fmt.Errorf("kv: index and heap disagree on key %d", k)
			return false
		}
		val := make([]byte, len(rec)-recKeySize)
		copy(val, rec[recKeySize:])
		ents = append(ents, Entry{Key: k, Value: val})
		return limit <= 0 || len(ents)-start < limit
	})
	if inner != nil {
		return nil, inner
	}
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
	n := 0
	held := make([]bool, len(d.buckets))
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
		held[i] = true
	}
	defer func() {
		for i := range d.buckets {
			if held[i] {
				d.buckets[i].mu.Unlock()
			}
		}
	}()
	for i := range d.buckets {
		n += d.buckets[i].tree.Size()
	}
	return n
}

// PoolStats returns the bucket pools' counters, summed.
func (d *DB) PoolStats() buffer.Stats {
	var total buffer.Stats
	held := make([]bool, len(d.buckets))
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
		held[i] = true
	}
	defer func() {
		for i := range d.buckets {
			if held[i] {
				d.buckets[i].mu.Unlock()
			}
		}
	}()
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
// is synced. A Reopen after a crash recovers the structure of the last
// successful Sync (see the package comment for the exact contract).
func (d *DB) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.sync()
}

func (d *DB) sync() error {
	held := make([]bool, len(d.buckets))
	for i := range d.buckets {
		d.buckets[i].mu.Lock()
		held[i] = true
	}
	defer func() {
		for i := range d.buckets {
			if held[i] {
				d.buckets[i].mu.Unlock()
			}
		}
	}()
	states := make([]bucketState, len(d.buckets))
	for i := range d.buckets {
		b := &d.buckets[i]
		if err := b.pool.Flush(); err != nil {
			return fmt.Errorf("kv: sync bucket %d: %w", i, err)
		}
		states[i] = bucketState{tree: b.tree.State(), heapHint: b.heap.InsertHint()}
	}
	if err := writeMeta(d.method, metaState{
		numPages:  d.numPages,
		treePages: d.treePages,
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
