package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// u64 is the 8-byte value most tests store.
func u64(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }

// get returns the 8-byte value under k.
func get(t *testing.T, tr *Tree, k uint64) uint64 {
	t.Helper()
	v, err := tr.Get(k, nil)
	if err != nil || len(v) != 8 {
		t.Fatalf("Get(%d) = %x, %v", k, v, err)
	}
	return binary.LittleEndian.Uint64(v)
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(1); k <= 10; k++ {
		if err := tr.Insert(k, u64(k*100)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 10; k++ {
		if v := get(t, tr, k); v != k*100 {
			t.Errorf("Get(%d) = %d, want %d", k, v, k*100)
		}
	}
	if _, err := tr.Get(999, nil); err != ErrNotFound {
		t.Errorf("missing key: %v, want the bare ErrNotFound", err)
	}
	if tr.Size() != 10 {
		t.Errorf("Size = %d", tr.Size())
	}
	// Get appends to out.
	if v, err := tr.Get(3, []byte("x")); err != nil || !bytes.Equal(v, append([]byte("x"), u64(300)...)) {
		t.Errorf("Get(3, \"x\") = %x, %v", v, err)
	}
}

func TestDuplicateInsert(t *testing.T) {
	tr := newTree(t, 8, 64)
	if err := tr.Insert(5, u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, u64(2)); err != ErrDuplicate {
		t.Errorf("duplicate: %v, want the bare ErrDuplicate", err)
	}
	if err := tr.Put(5, u64(3)); err != nil || get(t, tr, 5) != 3 || tr.Size() != 1 {
		t.Errorf("Put over an existing key: %v, Size %d", err, tr.Size())
	}
	if err := tr.Put(5, make([]byte, tr.MaxValueSize()+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversized value: %v", err)
	}
}

func TestSplitsAndHeight(t *testing.T) {
	tr := newTree(t, 16, 256)
	// Suite pages are 512 B: a leaf holds (512-9)/20 = 25 8-byte values and
	// an internal node 41 keys. Insert enough to force three levels.
	n := uint64(2000)
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, u64(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want >= 3 after %d sequential inserts", tr.Height(), n)
	}
	for k := uint64(0); k < n; k += 37 {
		if v := get(t, tr, k); v != k {
			t.Fatalf("Get(%d) = %d", k, v)
		}
	}
}

func TestRandomOrderInsert(t *testing.T) {
	tr := newTree(t, 16, 128)
	rng := rand.New(rand.NewSource(77))
	keys := rng.Perm(1500)
	for _, k := range keys {
		if err := tr.Insert(uint64(k), u64(uint64(k)*3)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for _, k := range keys {
		if v := get(t, tr, uint64(k)); v != uint64(k)*3 {
			t.Fatalf("Get(%d) = %d", k, v)
		}
	}
}

func TestUpdate(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k, u64(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k += 2 {
		if err := tr.Update(k, u64(k+1000)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k
		if k%2 == 0 {
			want = k + 1000
		}
		if v := get(t, tr, k); v != want {
			t.Fatalf("Get(%d) = %d, want %d", k, v, want)
		}
	}
	if err := tr.Update(9999, u64(1)); err != ErrNotFound {
		t.Errorf("update missing: %v, want the bare ErrNotFound", err)
	}
	// Resizing overwrites: shrink in place, grow into the gap or a rebuild.
	for k := uint64(0); k < 100; k++ {
		v := bytes.Repeat([]byte{byte(k)}, 1+int(k*7%60))
		if err := tr.Update(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		v, err := tr.Get(k, nil)
		if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(k)}, 1+int(k*7%60))) {
			t.Fatalf("Get(%d) after resize = %x, %v", k, v, err)
		}
	}
	if tr.Size() != 100 {
		t.Errorf("Size = %d after overwrites", tr.Size())
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 8, 64)
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(k, u64(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k += 3 {
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k++ {
		_, err := tr.Get(k, nil)
		if k%3 == 0 {
			if err != ErrNotFound {
				t.Fatalf("Get(%d) after delete: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
	}
	if err := tr.Delete(0); err != ErrNotFound {
		t.Errorf("double delete: %v", err)
	}
}

func TestRange(t *testing.T) {
	tr := newTree(t, 16, 128)
	for k := uint64(0); k < 500; k += 5 {
		if err := tr.Insert(k, u64(k*2)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Range(100, 200, func(k uint64, v []byte) bool {
		if binary.LittleEndian.Uint64(v) != k*2 {
			t.Errorf("value of %d = %x", k, v)
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
	if err := tr.Range(0, 1<<60, func(uint64, []byte) bool { count++; return count < 7 }); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestPersistsThroughFlush(t *testing.T) {
	tr := newTree(t, 2, 128) // tiny pool forces constant eviction
	for k := uint64(0); k < 600; k++ {
		if err := tr.Insert(k, u64(k^0xABCD)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 600; k++ {
		if v := get(t, tr, k); v != k^0xABCD {
			t.Fatalf("Get(%d) = %d", k, v)
		}
	}
}

func TestPageRangeExhaustion(t *testing.T) {
	tr := newTree(t, 8, 3) // root leaf + 2 pages: splits quickly exhaust
	var err error
	k := uint64(0)
	for ; k < 1000; k++ {
		if err = tr.Insert(k, u64(k)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// A split is refused before it writes anything: every key that went in
	// is still there.
	if tr.Size() != int(k) {
		t.Errorf("Size = %d after %d inserts", tr.Size(), k)
	}
	for j := uint64(0); j < k; j++ {
		if v := get(t, tr, j); v != j {
			t.Fatalf("Get(%d) = %d", j, v)
		}
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
				err := tr.Insert(k, u64(k+1))
				if _, exists := ref[k]; exists {
					if err != ErrDuplicate {
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
				} else if err != ErrNotFound {
					return false
				}
			case 2:
				err := tr.Update(k, u64(k+7))
				if _, exists := ref[k]; exists {
					if err != nil {
						return false
					}
					ref[k] = k + 7
				} else if err != ErrNotFound {
					return false
				}
			case 3:
				v, err := tr.Get(k, nil)
				want, exists := ref[k]
				if exists && (err != nil || binary.LittleEndian.Uint64(v) != want) {
					return false
				}
				if !exists && err != ErrNotFound {
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
		if err := tr.Range(0, 1<<62, func(k uint64, _ []byte) bool {
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

// TestModelAgainstMap drives random Puts, Deletes and resizing overwrites,
// with values from 1 byte to MaxValueSize, through pools of 3, 4 and 64
// frames, and after every batch requires Get, Range and Size to match a map.
// The value sizes mix small and large so that leaves carry dead bytes, get
// rebuilt, move entries into their siblings and split by bytes. Every third
// batch is a load instead: two ascending streams of fresh keys, interleaved
// by a coin, whose overflowing leaves move their tails into resident right
// siblings and split full.
func TestModelAgainstMap(t *testing.T) {
	for _, frames := range []int{3, 4, 64} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("frames=%d/seed=%d", frames, seed), func(t *testing.T) {
				tr := newTree(t, frames, 256)
				maxV := tr.MaxValueSize()
				rng := rand.New(rand.NewSource(seed))
				size := func() int {
					switch r := rng.Intn(20); {
					case r < 10:
						return 1 + rng.Intn(16)
					case r < 17:
						return 17 + rng.Intn(48)
					case r < 19:
						return 65 + rng.Intn(maxV-65)
					}
					return maxV
				}
				ref := map[uint64][]byte{}
				put := func(k uint64, v []byte) {
					rng.Read(v)
					if err := tr.Put(k, v); err != nil {
						t.Fatalf("Put(%d, %d bytes): %v", k, len(v), err)
					}
					ref[k] = v
				}
				for batch := 0; batch < 12; batch++ {
					if batch%3 == 2 {
						// Multiples of 3 above the random keys, 1200 a load.
						base := 1500 + 1200*uint64(batch)
						next := [2]uint64{base, base + 3}
						for range 200 {
							c := rng.Intn(2)
							put(next[c], make([]byte, 1+rng.Intn(16)))
							next[c] += 6
						}
						checkModel(t, tr, ref)
						continue
					}
					for range 250 {
						k := uint64(rng.Intn(500)) * 3
						if rng.Intn(4) == 0 {
							err := tr.Delete(k)
							if _, ok := ref[k]; ok != (err == nil) || (!ok && err != ErrNotFound) {
								t.Fatalf("Delete(%d) = %v, present %v", k, err, ok)
							}
							delete(ref, k)
							continue
						}
						put(k, make([]byte, size()))
					}
					checkModel(t, tr, ref)
				}
			})
		}
	}
}

// checkModel requires tr to hold exactly ref.
func checkModel(t *testing.T, tr *Tree, ref map[uint64][]byte) {
	t.Helper()
	if tr.Size() != len(ref) {
		t.Fatalf("Size = %d, model has %d", tr.Size(), len(ref))
	}
	keys := make([]uint64, 0, len(ref))
	for k, want := range ref {
		keys = append(keys, k)
		if got, err := tr.Get(k, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %d bytes, %v; model has %d bytes", k, len(got), err, len(want))
		}
		if _, err := tr.Get(k+1, nil); err != ErrNotFound {
			t.Fatalf("Get(%d) of an absent key: %v", k+1, err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	if err := tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
		if i >= len(keys) || k != keys[i] || !bytes.Equal(v, ref[k]) {
			t.Fatalf("Range entry %d is key %d (%d bytes), model's is %v", i, k, len(v), keys[i:min(i+1, len(keys))])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("Range gave %d entries, model has %d", i, len(keys))
	}
}

// leafFill walks the leaf chain and returns the leaves and the entries they
// hold.
func leafFill(t *testing.T, tr *Tree) (leaves, entries int) {
	t.Helper()
	_, buf, err := tr.descend(0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		leaves++
		entries += nodeN(buf)
		next := leafNext(buf)
		if next == noPage {
			return leaves, entries
		}
		if buf, err = tr.pool.Get(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeafFill loads ascending keys the way the benchmark's two load
// clients do: two interleaved streams, one lagging the other by several
// leaves or by a random walk, and then one ascending stream alone. Every
// way the leaves must end at least 98% full: an overflowing leaf fills its
// left sibling, then moves its tail into its right sibling, and splits full
// when both are full.
func TestLeafFill(t *testing.T) {
	const (
		valSize = 20 // 15 entries a leaf
		records = 3000
	)
	for _, tc := range []struct {
		name string
		lag  int // in records of the lagging stream; 0: a coin picks; -1: one stream
	}{{"interleaved", 60}, {"random-walk", 0}, {"ascending", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, 64, 512)
			perLeaf := (tr.pageSize - leafHdrSize) / entrySize(valSize)
			v := make([]byte, valSize)
			put := func(k uint64) {
				if err := tr.Insert(k, v); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			switch {
			case tc.lag < 0:
				for k := uint64(0); k < records; k++ {
					put(k)
				}
			case tc.lag == 0:
				// The even and the odd stream, the lag between them a
				// random walk.
				rng := rand.New(rand.NewSource(2))
				for next := [2]uint64{0, 1}; next[0] < records || next[1] < records; {
					c := rng.Intn(2)
					if next[c] >= records {
						c = 1 - c
					}
					put(next[c])
					next[c] += 2
				}
			default:
				// Stream A puts the even keys, stream B the odd ones, tc.lag
				// of its keys behind: about tc.lag/perLeaf*2 leaves.
				for i := 0; i < records/2+tc.lag; i++ {
					if i < records/2 {
						put(uint64(2 * i))
					}
					if j := i - tc.lag; j >= 0 {
						put(uint64(2*j + 1))
					}
				}
			}
			leaves, entries := leafFill(t, tr)
			if entries != records {
				t.Fatalf("leaves hold %d entries, want %d", entries, records)
			}
			fill := float64(entries) / float64(leaves*perLeaf)
			t.Logf("%d leaves of %d entries each at most: %.1f%% full", leaves, perLeaf, 100*fill)
			if fill < 0.98 {
				t.Errorf("leaves %.1f%% full, want at least 98%%", 100*fill)
			}
		})
	}
}

// TestLeafFillRandomOrder inserts keys in random order through a pool that
// holds a few percent of the tree, where a leaf's right sibling is seldom
// resident. Moving entries right and splitting full are for the loads of
// TestLeafFill; here the leaves must stay 77% full, and the pool may write
// back at most 2% more than a tree whose leaves fill only their left
// siblings does (36,332 pages).
func TestLeafFillRandomOrder(t *testing.T) {
	const (
		keys    = 30000
		valSize = 100 // 18 entries a leaf of 2 KB
		pages   = 6000
	)
	chip := flash.NewChip(flash.ScaledParams(160))
	m, err := core.New(chip, pages, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 0, pages)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, valSize)
	for _, k := range rand.New(rand.NewSource(1)).Perm(keys) {
		if err := tr.Insert(uint64(k), v); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	leaves, entries := leafFill(t, tr)
	if entries != keys {
		t.Fatalf("leaves hold %d entries, want %d", entries, keys)
	}
	perLeaf := (tr.pageSize - leafHdrSize) / entrySize(valSize)
	fill := float64(entries) / float64(leaves*perLeaf)
	wb := pool.Stats().Writebacks
	t.Logf("%d leaves, %.1f%% full; %d write-backs, %d sim-us", leaves, 100*fill, wb, chip.Stats().TimeMicros)
	if fill < 0.77 {
		t.Errorf("leaves %.1f%% full, want at least 77%%", 100*fill)
	}
	if wb > 37058 {
		t.Errorf("%d pool write-backs, want at most 37058", wb)
	}
}

// TestRightSiblingNeverFaultedIn: an overflowing leaf whose right sibling
// has room but is not in the pool splits; the rotation that would fill the
// sibling does not fault it in.
func TestRightSiblingNeverFaultedIn(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(40))
	m, err := core.New(chip, 64, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pool, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 25 entries a leaf: two full leaves and a third of 10.
	for k := uint64(0); k < 60; k++ {
		if err := tr.Insert(10*k, u64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var leaves [3]uint32
	pid, buf, err := tr.descend(0)
	for i := range leaves {
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = pid
		if pid = leafNext(buf); i < 2 {
			buf, err = pool.Get(pid)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen the tree on an empty pool and fault in the root and the first
	// two leaves.
	if pool, err = buffer.NewPool(m, 4); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(pool, 0, 32, tr.State()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint32{tr.root, leaves[0], leaves[1]} {
		if _, err := pool.Get(p); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Resident(leaves[2]) || !pool.Resident(leaves[0]) || !pool.Resident(leaves[1]) {
		t.Fatalf("set-up: leaves resident %v %v %v, want true true false",
			pool.Resident(leaves[0]), pool.Resident(leaves[1]), pool.Resident(leaves[2]))
	}
	if err := tr.Insert(305, u64(1)); err != nil { // into the full middle leaf
		t.Fatal(err)
	}
	if pool.Resident(leaves[2]) {
		t.Error("the right sibling was faulted in")
	}
	if n, err := tr.Leaves(); err != nil || n != 4 {
		t.Errorf("Leaves = %d, %v; want 4 after a split", n, err)
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
		if err := tr.Insert(k*7, u64(k)); err != nil {
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
		if v := get(t, tr2, k*7); v != k {
			t.Fatalf("get %d = %d, want %d", k*7, v, k)
		}
	}
	// Mutations keep working (allocator must not hand out used pages).
	for k := uint64(0); k < 500; k++ {
		if err := tr2.Insert(1_000_000+k, u64(k)); err != nil {
			t.Fatalf("post-reopen insert: %v", err)
		}
	}
	got := 0
	if err := tr2.Range(0, ^uint64(0), func(uint64, []byte) bool { got++; return true }); err != nil {
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

// TestRangeCallbackMayUseThePool: Range's callback may fault pages through
// the tree's own pool, and each of those faults may evict the leaf the walk
// is on — under the pool's policy a page seen once can be the very next
// victim. The walk must not read a frame it no longer owns.
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
		if err := tr.Insert(k, u64(k+7)); err != nil {
			t.Fatal(err)
		}
	}
	// Pages 128..255 are other pages of the pool: created here, faulted from
	// the callback.
	for pid := uint32(128); pid < 256; pid++ {
		if _, err := pool.GetNew(pid); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(0)
	err = tr.Range(0, keys, func(k uint64, v []byte) bool {
		if k != next || binary.LittleEndian.Uint64(v) != k+7 {
			t.Fatalf("Range delivered (%d, %x), want (%d, %d)", k, v, next, next+7)
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
