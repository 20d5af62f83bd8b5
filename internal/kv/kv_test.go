package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/opu"
)

// newPDL builds a PDL store sized for numPages logical pages over dev.
func newPDL(t *testing.T, dev flash.Device, numPages int, bg bool) ftl.Method {
	t.Helper()
	s, err := core.New(dev, numPages, core.Options{
		MaxDifferentialSize: dev.Params().DataSize / 4,
		Shards:              4,
		BackgroundGC:        bg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func val(k uint64, ver uint64, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, ver)
	binary.LittleEndian.PutUint64(v[8:], k)
	return v
}

func TestPutGetDeleteScanLen(t *testing.T) {
	const records = 600
	opts := Options{PoolPages: 32}
	numPages := PagesNeeded(records, 40, 512, opts)
	chip := flash.NewChip(ftltest.SmallParams(int(numPages)/16 + 24))
	db, err := Open(newPDL(t, chip, int(numPages), false), numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < records; k++ {
		if err := db.Put(k*3, val(k*3, 1, 40)); err != nil {
			t.Fatalf("put %d: %v", k*3, err)
		}
	}
	if db.Len() != records {
		t.Fatalf("Len = %d, want %d", db.Len(), records)
	}
	// Point reads, present and absent.
	got, err := db.Get(3*7, nil)
	if err != nil || !equalBytes(got, val(3*7, 1, 40)) {
		t.Fatalf("Get(21) = %x, %v", got, err)
	}
	if _, err := db.Get(1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
	}
	// Overwrites, including one that grows the value.
	if err := db.Put(3*7, val(3*7, 2, 40)); err != nil {
		t.Fatal(err)
	}
	big := val(3*8, 2, 200)
	if err := db.Put(3*8, big); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get(3*8, nil); !equalBytes(got, big) {
		t.Fatalf("grown value mismatch")
	}
	if db.Len() != records {
		t.Fatalf("Len after overwrite = %d, want %d", db.Len(), records)
	}
	// Values go in the leaves: the largest is what a 512-byte leaf holds two of.
	if got := db.MaxValueSize(); got != (512-9)/2-12 {
		t.Fatalf("MaxValueSize = %d at 512-byte pages", got)
	}
	if err := db.Put(3*9, make([]byte, db.MaxValueSize())); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(3*9, make([]byte, db.MaxValueSize()+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized Put err = %v", err)
	}
	// Range scan with bounds and limit.
	var keys []uint64
	err = db.Scan(30, 60, 0, func(k uint64, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("Scan(30,60) keys = %v, want %v", keys, want)
	}
	keys = keys[:0]
	if err := db.Scan(0, ^uint64(0), 5, func(k uint64, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != fmt.Sprint([]uint64{0, 3, 6, 9, 12}) {
		t.Fatalf("limited scan = %v", keys)
	}
	// Delete.
	if err := db.Delete(30); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(30); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if _, err := db.Get(30, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) err = %v", err)
	}
	if db.Len() != records-1 {
		t.Fatalf("Len after delete = %d", db.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close err = %v", err)
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanSnapshotNoTornBatch is the snapshot-consistency proof: writer
// goroutines overwrite 4-key groups atomically via PutBatch (every key
// of a group carries the same version) while scanners snapshot the full
// key space; a scanner observing two versions inside one group would
// mean Scan saw a torn batch. Background GC runs throughout, and churn
// writers keep the method's collector busy. Run with -race.
func TestScanSnapshotNoTornBatch(t *testing.T) {
	const (
		groups    = 48
		groupSize = 4
		churnKeys = 128
		rounds    = 120
		writers   = 2
		scanners  = 2
		valSize   = 16
	)
	records := groups*groupSize + churnKeys
	opts := Options{PoolPages: 24}
	numPages := PagesNeeded(records, valSize, 512, opts)
	chip := flash.NewChip(ftltest.SmallParams(int(numPages)/16 + 24))
	db, err := Open(newPDL(t, chip, int(numPages), true), numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	groupKey := func(g, j int) uint64 { return uint64(g*groupSize + j) }
	writeGroup := func(g int, ver uint64) error {
		ents := make([]Entry, groupSize)
		for j := 0; j < groupSize; j++ {
			ents[j] = Entry{Key: groupKey(g, j), Value: val(groupKey(g, j), ver, valSize)}
		}
		return db.PutBatch(ents)
	}
	for g := 0; g < groups; g++ {
		if err := writeGroup(g, 1); err != nil {
			t.Fatal(err)
		}
	}

	var (
		version atomic.Uint64
		wg      sync.WaitGroup
		failed  atomic.Bool
		fail    = func(format string, args ...any) {
			if failed.CompareAndSwap(false, true) {
				t.Errorf(format, args...)
			}
		}
	)
	version.Store(1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 977))
			for r := 0; r < rounds && !failed.Load(); r++ {
				if err := writeGroup(rng.Intn(groups), version.Add(1)); err != nil {
					fail("writer %d: %v", w, err)
					return
				}
				// Churn in a disjoint high key range to keep GC busy
				// without touching the group invariant.
				ck := uint64(1 << 20)
				ck += uint64(rng.Intn(churnKeys))
				if err := db.Put(ck, val(ck, uint64(r), valSize)); err != nil {
					fail("churn writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for sc := 0; sc < scanners; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			for r := 0; r < rounds && !failed.Load(); r++ {
				vers := make(map[int]uint64, groups)
				seen := make(map[int]int, groups)
				err := db.Scan(0, uint64(groups*groupSize)-1, 0, func(k uint64, v []byte) bool {
					g := int(k) / groupSize
					ver := binary.LittleEndian.Uint64(v)
					if prev, ok := vers[g]; ok && prev != ver {
						fail("scanner %d: torn group %d: versions %d and %d in one snapshot", sc, g, prev, ver)
						return false
					}
					vers[g] = ver
					seen[g]++
					return true
				})
				if err != nil {
					fail("scanner %d: %v", sc, err)
					return
				}
				for g, n := range seen {
					if n != groupSize {
						fail("scanner %d: group %d has %d of %d keys", sc, g, n, groupSize)
					}
				}
			}
		}(sc)
	}
	wg.Wait()
}

// TestConcurrentHammer drives concurrent Put/Get/Delete/Scan traffic on
// disjoint key partitions with background GC, then verifies every
// partition against its shadow map. Run with -race.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 4
		keys    = 160 // per worker
		ops     = 400 // per worker
		valSize = 24
	)
	opts := Options{PoolPages: 24}
	numPages := PagesNeeded(workers*keys, valSize, 512, opts)
	chip := flash.NewChip(ftltest.SmallParams(int(numPages)/16 + 24))
	db, err := Open(newPDL(t, chip, int(numPages), true), numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	shadows := make([]map[uint64]uint64, workers) // key -> version
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*0x9E37 + 7))
			shadow := make(map[uint64]uint64)
			shadows[w] = shadow
			key := func() uint64 { return uint64(rng.Intn(keys)*workers + w) }
			for i := 0; i < ops; i++ {
				k := key()
				switch op := rng.Intn(10); {
				case op < 5: // put
					ver := uint64(i + 1)
					if err := db.Put(k, val(k, ver, valSize)); err != nil {
						errs[w] = err
						return
					}
					shadow[k] = ver
				case op < 8: // get
					got, err := db.Get(k, nil)
					ver, live := shadow[k]
					switch {
					case live && err != nil:
						errs[w] = fmt.Errorf("get %d: %w", k, err)
						return
					case live && binary.LittleEndian.Uint64(got) != ver:
						errs[w] = fmt.Errorf("get %d: version %d, want %d", k, binary.LittleEndian.Uint64(got), ver)
						return
					case !live && !errors.Is(err, ErrNotFound):
						errs[w] = fmt.Errorf("get dead %d: %v", k, err)
						return
					}
				case op < 9: // delete
					err := db.Delete(k)
					if _, live := shadow[k]; live {
						if err != nil {
							errs[w] = fmt.Errorf("delete %d: %w", k, err)
							return
						}
						delete(shadow, k)
					} else if !errors.Is(err, ErrNotFound) {
						errs[w] = fmt.Errorf("delete dead %d: %v", k, err)
						return
					}
				default: // scan a window
					if err := db.Scan(k, k+64, 16, func(uint64, []byte) bool { return true }); err != nil {
						errs[w] = fmt.Errorf("scan: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += len(shadows[w])
		for k, ver := range shadows[w] {
			got, err := db.Get(k, nil)
			if err != nil {
				t.Fatalf("final get %d: %v", k, err)
			}
			if binary.LittleEndian.Uint64(got) != ver {
				t.Fatalf("final get %d: version %d, want %d", k, binary.LittleEndian.Uint64(got), ver)
			}
		}
	}
	if db.Len() != total {
		t.Fatalf("final Len = %d, want %d", db.Len(), total)
	}
	n := 0
	if err := db.Scan(0, ^uint64(0), 0, func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("final scan saw %d entries, want %d", n, total)
	}
}

// killReopenDump runs the deterministic kill-and-reopen scenario over
// dev: load, Sync, unsynced same-size overwrites, crash (abandon the
// store without closing), FTL-level recovery, kv-level Reopen. It
// verifies the recovery contract (every synced key present with its
// synced or post-sync version) and returns the full reopened contents
// so backends can be compared for equivalence.
func killReopenDump(t *testing.T, dev flash.Device, reopen func() flash.Device) []Entry {
	t.Helper()
	const (
		records  = 400
		valSize  = 32
		syncVer  = uint64(1)
		crashVer = uint64(2)
	)
	opts := Options{PoolPages: 16}
	numPages := PagesNeeded(records, valSize, 512, opts)
	coreOpts := core.Options{
		MaxDifferentialSize: 128,
		Shards:              2,
	}
	s, err := core.New(dev, int(numPages), coreOpts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(s, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < records; k++ {
		if err := db.Put(k, val(k, syncVer, valSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced same-size overwrites: structure untouched, so the
	// recovery contract fully determines the reopened key set.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < records/2; i++ {
		k := uint64(rng.Intn(records))
		if err := db.Put(k, val(k, crashVer, valSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon both layers without Close/Flush.
	rdev := reopen()
	r, err := core.Recover(rdev, int(numPages), coreOpts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	rdb, err := Reopen(r, numPages, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rdb.Close()
	if rdb.Len() != records {
		t.Fatalf("reopened Len = %d, want %d", rdb.Len(), records)
	}
	var dump []Entry
	err = rdb.Scan(0, ^uint64(0), 0, func(k uint64, v []byte) bool {
		dump = append(dump, Entry{Key: k, Value: append([]byte(nil), v...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != records {
		t.Fatalf("reopened scan saw %d keys, want %d", len(dump), records)
	}
	for i, e := range dump {
		if e.Key != uint64(i) {
			t.Fatalf("reopened key %d = %d", i, e.Key)
		}
		ver := binary.LittleEndian.Uint64(e.Value)
		if ver != syncVer && ver != crashVer {
			t.Fatalf("key %d has version %d, want %d or %d", e.Key, ver, syncVer, crashVer)
		}
		if got := binary.LittleEndian.Uint64(e.Value[8:]); got != e.Key {
			t.Fatalf("key %d record names key %d", e.Key, got)
		}
	}
	return dump
}

// TestKillAndReopen proves recovery equivalence at the kv layer: the
// same deterministic load + sync + crash sequence over the in-memory
// emulator and the persistent file backend must reopen to byte-identical
// contents (and both must satisfy the recovery contract).
func TestKillAndReopen(t *testing.T) {
	const blocks = 64
	var emuDump []Entry
	t.Run("emu", func(t *testing.T) {
		chip := flash.NewChip(ftltest.SmallParams(blocks))
		// The emulator's "kill" is simply abandoning the stores: the chip
		// retains exactly what was physically programmed.
		emuDump = killReopenDump(t, chip, func() flash.Device { return chip })
	})
	t.Run("file", func(t *testing.T) {
		if emuDump == nil {
			t.Skip("emu ground truth unavailable")
		}
		path := filepath.Join(t.TempDir(), "kv.flash")
		fdev, err := filedev.Open(path, filedev.Options{Params: ftltest.SmallParams(blocks), Reset: true})
		if err != nil {
			t.Fatal(err)
		}
		fileDump := killReopenDump(t, fdev, func() flash.Device {
			// A process kill never calls Close; reopening the path picks
			// up whatever the device had made durable.
			reopened, err := filedev.Open(path, filedev.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reopened.Close() })
			return reopened
		})
		if len(fileDump) != len(emuDump) {
			t.Fatalf("file backend reopened %d keys, emu %d", len(fileDump), len(emuDump))
		}
		for i := range emuDump {
			if fileDump[i].Key != emuDump[i].Key || !equalBytes(fileDump[i].Value, emuDump[i].Value) {
				t.Fatalf("recovery divergence at key %d: file %x, emu %x",
					emuDump[i].Key, fileDump[i].Value, emuDump[i].Value)
			}
		}
	})
}

// TestReopenRejectsFresh ensures Reopen refuses a device that was never
// synced (no metadata page).
func TestReopenRejectsFresh(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(32))
	m := newPDL(t, chip, 200, false)
	if _, err := Reopen(m, 200, Options{}); err == nil {
		t.Fatal("Reopen of a fresh device succeeded")
	}
}

// TestReopenRejectsBadLayout: the metadata checksum covers the bucket records
// only, so a page 0 with a valid magic and checksum can still name a layout no
// Open makes. Reopen refuses it: a bucket's tree takes exactly its span (a
// smaller range would hide pages the tree allocated, a larger one hand it the
// pages of the bucket that follows), and a version-1 page, the layout of heap
// pages beside an index, or any other version is refused by name, and so is
// a bucket count other than the one every store has.
func TestReopenRejectsBadLayout(t *testing.T) {
	const numPages = 200
	opts := Options{PoolPages: 8}
	chip := flash.NewChip(ftltest.SmallParams(32))
	m := newPDL(t, chip, numPages, false)
	db, err := Open(m, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, val(1, 1, 32)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	page0 := make([]byte, m.PageSize())
	if err := m.ReadPage(0, page0); err != nil {
		t.Fatal(err)
	}
	span := bucketSpan(numPages)
	if got := binary.LittleEndian.Uint32(page0[20:]); got != span {
		t.Fatalf("Sync wrote %d tree pages a bucket, want the span %d", got, span)
	}
	if got := binary.LittleEndian.Uint32(page0[8:]); got != metaVersion {
		t.Fatalf("Sync wrote version %d, want %d", got, metaVersion)
	}
	reopen := func(version, treePages uint32) error {
		t.Helper()
		binary.LittleEndian.PutUint32(page0[8:], version)
		binary.LittleEndian.PutUint32(page0[20:], treePages)
		if err := m.WritePage(0, page0); err != nil {
			t.Fatal(err)
		}
		_, err := Reopen(m, numPages, opts)
		return err
	}
	for _, treePages := range []uint32{0, 1, 2, span / 4, span - 1, span + 1, ^uint32(0)} {
		if err := reopen(metaVersion, treePages); err == nil {
			t.Errorf("Reopen accepted %d tree pages in a bucket span of %d", treePages, span)
		}
	}
	for _, version := range []uint32{0, 1, metaVersion + 1} {
		err := reopen(version, span)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Errorf("Reopen of a version-%d page: %v", version, err)
		}
	}
	for _, buckets := range []uint32{0, 1, numBuckets / 2, numBuckets + 1, 64} {
		binary.LittleEndian.PutUint32(page0[12:], buckets)
		err := reopen(metaVersion, span)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("names %d buckets", buckets)) {
			t.Errorf("Reopen of a page naming %d buckets: %v", buckets, err)
		}
	}
	binary.LittleEndian.PutUint32(page0[12:], numBuckets)
	if err := reopen(metaVersion, span); err != nil {
		t.Fatalf("Reopen of the synced page: %v", err)
	}
	rdb, err := Reopen(m, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rdb.Get(1, nil); err != nil || !equalBytes(v, val(1, 1, 32)) {
		t.Fatalf("Get(1) after Reopen = %v, %v", v, err)
	}
}

// TestPagesNeededPinned: the benchmark sizes its device, its pools and its
// space amplification from PagesNeeded, so the count at its sizes stays put.
func TestPagesNeededPinned(t *testing.T) {
	if got := PagesNeeded(100000, 100, 2048, Options{}); got != 12449 {
		t.Fatalf("PagesNeeded(100000, 100, 2048) = %d, want 12449", got)
	}
}

// TestSerializedBaseline runs concurrent clients over OPU — a method
// with no internal locking — relying on the serializing wrapper.
func TestSerializedBaseline(t *testing.T) {
	const records = 240
	opts := Options{PoolPages: 16}
	numPages := PagesNeeded(records, 24, 512, opts)
	chip := flash.NewChip(ftltest.SmallParams(int(numPages)/16 + 24))
	m, err := opu.New(chip, int(numPages), 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(m, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.method.(*serialMethod); !ok {
		t.Fatalf("OPU was not wrapped: %T", db.method)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(w); k < records; k += 4 {
				if err := db.Put(k, val(k, 1, 24)); err != nil {
					errs[w] = err
					return
				}
				if _, err := db.Get(k, nil); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if db.Len() != records {
		t.Fatalf("Len = %d, want %d", db.Len(), records)
	}
}

// TestPagesNeededHolds proves the sizing helper's promise: a store
// opened at exactly PagesNeeded accepts the declared record count.
func TestPagesNeededHolds(t *testing.T) {
	for _, tc := range []struct {
		records, valSize int
	}{
		{500, 40}, {2000, 16}, {300, 120},
	} {
		opts := Options{PoolPages: 32}
		numPages := PagesNeeded(tc.records, tc.valSize, 512, opts)
		chip := flash.NewChip(ftltest.SmallParams(int(numPages)/16 + 24))
		db, err := Open(newPDL(t, chip, int(numPages), false), numPages, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < tc.records; k++ {
			if err := db.Put(uint64(k)*2654435761, val(uint64(k), 1, tc.valSize)); err != nil {
				t.Fatalf("records=%d valSize=%d: put %d/%d: %v",
					tc.records, tc.valSize, k, tc.records, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// leaves counts the leaves of every bucket's tree.
func leaves(t *testing.T, db *DB) int {
	t.Helper()
	n := 0
	for i := range db.buckets {
		l, err := db.buckets[i].tree.Leaves()
		if err != nil {
			t.Fatal(err)
		}
		n += l
	}
	return n
}

// TestLeafFillTwoLoaders loads ascending keys the way the benchmark's two
// load clients do, one putting the even keys and one the odd ones, here
// interleaved by a seeded coin in one goroutine so that the run repeats.
// Whichever stream lags inserts between the other's keys, into leaves it
// has filled. The pools hold the whole store, and the leaves must end at
// least 17.5 records full of 18: an overflowing leaf moves its tail into
// its right sibling, and splits full when both siblings are full.
func TestLeafFillTwoLoaders(t *testing.T) {
	const (
		records = 100000
		valSize = 100
	)
	opts := Options{}
	numPages := PagesNeeded(records, valSize, flash.DefaultDataSize, opts)
	opts.PoolPages = int(numPages)/numBuckets + 1
	chip := flash.NewChip(flash.ScaledParams(int(numPages)/flash.DefaultPagesPerBlock*5/4 + 8))
	db, err := Open(newPDL(t, chip, int(numPages), false), numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, valSize)
	rng := rand.New(rand.NewSource(1))
	for next := [2]uint64{0, 1}; next[0] < records || next[1] < records; {
		c := rng.Intn(2)
		if next[c] >= records {
			c = 1 - c
		}
		if err := db.Put(next[c], v); err != nil {
			t.Fatalf("put %d: %v", next[c], err)
		}
		next[c] += 2
	}
	perLeaf := float64(records) / float64(leaves(t, db))
	t.Logf("%.2f records a leaf", perLeaf)
	if perLeaf < 17.5 {
		t.Errorf("%.2f records a leaf of 18, want at least 17.5", perLeaf)
	}
}
