package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdl/internal/buffer"
	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

func buildTree(poolFrames int, treePages uint32) (*Tree, error) {
	chip := flash.NewChip(ftltest.SmallParams(40))
	m, err := core.New(chip, int(treePages), core.Options{})
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPool(m, poolFrames)
	if err != nil {
		return nil, err
	}
	return New(pool, 0, treePages)
}

func newTree(t *testing.T, poolFrames int, treePages uint32) *Tree {
	t.Helper()
	tr, err := buildTree(poolFrames, treePages)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(1); k <= 10; k++ {
		if err := tr.Insert(k, k*100); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 10; k++ {
		v, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if v != k*100 {
			t.Errorf("Get(%d) = %d, want %d", k, v, k*100)
		}
	}
	if _, err := tr.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
	if tr.Size() != 10 {
		t.Errorf("Size = %d", tr.Size())
	}
}

func TestDuplicateInsert(t *testing.T) {
	tr := newTree(t, 8, 64)
	if err := tr.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, 2); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestSplitsAndHeight(t *testing.T) {
	tr := newTree(t, 16, 256)
	// Suite pages are 512 B: leafCap = (512-7)/16 = 31. Insert enough to
	// force multiple levels.
	n := uint64(2000)
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want >= 3 after %d sequential inserts", tr.Height(), n)
	}
	for k := uint64(0); k < n; k += 37 {
		v, err := tr.Get(k)
		if err != nil || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
}

func TestRandomOrderInsert(t *testing.T) {
	tr := newTree(t, 16, 128)
	rng := rand.New(rand.NewSource(77))
	keys := rng.Perm(1500)
	for _, k := range keys {
		if err := tr.Insert(uint64(k), uint64(k)*3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for _, k := range keys {
		v, err := tr.Get(uint64(k))
		if err != nil || v != uint64(k)*3 {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
}

func TestUpdate(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k += 2 {
		if err := tr.Update(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k
		if k%2 == 0 {
			want = k + 1000
		}
		v, err := tr.Get(k)
		if err != nil || v != want {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
	if err := tr.Update(9999, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k += 3 {
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k++ {
		_, err := tr.Get(k)
		if k%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%d) after delete: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
	}
	if err := tr.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestRange(t *testing.T) {
	tr := newTree(t, 16, 128)
	for k := uint64(0); k < 500; k += 5 {
		if err := tr.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Range(100, 200, func(k, v uint64) bool {
		if v != k*2 {
			t.Errorf("value of %d = %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 21 { // 100, 105, ..., 200
		t.Errorf("range returned %d keys, want 21", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("range not ascending")
	}
	// Early stop.
	count := 0
	if err := tr.Range(0, 1<<60, func(k, v uint64) bool { count++; return count < 7 }); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestPersistsThroughFlush(t *testing.T) {
	tr := newTree(t, 2, 128) // tiny pool forces constant eviction
	for k := uint64(0); k < 600; k++ {
		if err := tr.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 600; k++ {
		v, err := tr.Get(k)
		if err != nil || v != k^0xABCD {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
}

func TestPageRangeExhaustion(t *testing.T) {
	tr := newTree(t, 8, 3) // root leaf + 2 pages: splits quickly exhaust
	var err error
	for k := uint64(0); k < 1000; k++ {
		if err = tr.Insert(k, k); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

// Property: the tree agrees with a map reference under random ops.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := buildTree(8, 256)
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				err := tr.Insert(k, k+1)
				if _, exists := ref[k]; exists {
					if !errors.Is(err, ErrDuplicate) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					ref[k] = k + 1
				}
			case 1:
				err := tr.Delete(k)
				if _, exists := ref[k]; exists {
					if err != nil {
						return false
					}
					delete(ref, k)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				err := tr.Update(k, k+7)
				if _, exists := ref[k]; exists {
					if err != nil {
						return false
					}
					ref[k] = k + 7
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 3:
				v, err := tr.Get(k)
				want, exists := ref[k]
				if exists && (err != nil || v != want) {
					return false
				}
				if !exists && !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		if tr.Size() != len(ref) {
			return false
		}
		// Full range walk agrees with sorted reference.
		var keys []uint64
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var walked []uint64
		if err := tr.Range(0, 1<<62, func(k, v uint64) bool {
			walked = append(walked, k)
			return true
		}); err != nil {
			return false
		}
		if len(walked) != len(keys) {
			return false
		}
		for i := range keys {
			if walked[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOpenFromState(t *testing.T) {
	chip := flash.NewChip(flash.ScaledParams(64))
	m, err := core.New(chip, 512, core.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k*7, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tr.State()
	if st.Height < 2 {
		t.Fatalf("tree too small to be interesting: height %d", st.Height)
	}

	// Reopen over a fresh pool (fresh cache) and verify contents and that
	// the bump allocator continues where it left off.
	pool2, err := buffer.NewPool(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pool2, 0, 256, st)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Size() != n || tr2.Height() != st.Height {
		t.Fatalf("reopened size/height = %d/%d, want %d/%d", tr2.Size(), tr2.Height(), n, st.Height)
	}
	for k := uint64(0); k < n; k++ {
		v, err := tr2.Get(k * 7)
		if err != nil {
			t.Fatalf("get %d after reopen: %v", k*7, err)
		}
		if v != k {
			t.Fatalf("get %d = %d, want %d", k*7, v, k)
		}
	}
	// Mutations keep working (allocator must not hand out used pages).
	for k := uint64(0); k < 500; k++ {
		if err := tr2.Insert(1_000_000+k, k); err != nil {
			t.Fatalf("post-reopen insert: %v", err)
		}
	}
	got := 0
	if err := tr2.Range(0, ^uint64(0), func(k, v uint64) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != n+500 {
		t.Fatalf("post-reopen range saw %d keys, want %d", got, n+500)
	}
}

func TestOpenRejectsBadState(t *testing.T) {
	chip := flash.NewChip(flash.ScaledParams(64))
	m, err := core.New(chip, 512, core.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []State{
		{Root: 0, NextAlloc: 0, Height: 1},
		{Root: 9, NextAlloc: 4, Height: 1},
		{Root: 0, NextAlloc: 300, Height: 1},
		{Root: 0, NextAlloc: 1, Height: 0},
		{Root: 0, NextAlloc: 1, Height: 1, Size: -1},
	} {
		if _, err := Open(pool, 0, 256, st); err == nil {
			t.Errorf("Open accepted invalid state %+v", st)
		}
	}
}

// TestRangeCallbackMayUseThePool: kv's scan reads the heap, through the
// tree's own pool, from inside Range's callback, and each of those reads may
// evict the leaf the walk is on — under the pool's policy a page seen once can
// be the very next victim. The walk must not read a frame it no longer owns.
func TestRangeCallbackMayUseThePool(t *testing.T) {
	const keys = 1500
	chip := flash.NewChip(ftltest.SmallParams(48))
	m, err := core.New(chip, 256, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		if err := tr.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	// Pages 128..255 stand for the heap: created here, faulted from the callback.
	for pid := uint32(128); pid < 256; pid++ {
		if _, err := pool.GetNew(pid); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(0)
	err = tr.Range(0, keys, func(k, v uint64) bool {
		if k != next || v != k+7 {
			t.Fatalf("Range delivered (%d, %d), want (%d, %d)", k, v, next, next+7)
		}
		next++
		for i := uint32(0); i < 2; i++ { // two faults: more than an LRU of 4 forgives, too
			if _, err := pool.Get(128 + (uint32(k)*2+i)%128); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if err != nil || next != keys {
		t.Fatalf("Range = %v after %d of %d keys", err, next, keys)
	}
}
