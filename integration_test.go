package pdl_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl"
)

// methodsUnderTest builds one instance of every method family over its
// own chip.
func methodsUnderTest(t *testing.T, blocks, numPages int) map[string]pdl.Method {
	t.Helper()
	out := map[string]pdl.Method{}
	{
		chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
		m, err := pdl.Open(chip, numPages, pdl.Options{MaxDifferentialSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		out["PDL(256B)"] = m
	}
	{
		chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
		m, err := pdl.OpenOPU(chip, numPages)
		if err != nil {
			t.Fatal(err)
		}
		out["OPU"] = m
	}
	{
		chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
		m, err := pdl.OpenIPU(chip, numPages)
		if err != nil {
			t.Fatal(err)
		}
		out["IPU"] = m
	}
	{
		chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
		m, err := pdl.OpenIPL(chip, numPages, pdl.IPLOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out["IPL"] = m
	}
	return out
}

// TestHeapOverEveryMethod runs the same record workload over all four
// page-update methods through the full pool+heap stack; contents must be
// identical (the DBMS-independence claim, executed).
func TestHeapOverEveryMethod(t *testing.T) {
	const numPages = 512
	results := map[string][]byte{}
	for name, m := range methodsUnderTest(t, 48, numPages) {
		name, m := name, m
		t.Run(name, func(t *testing.T) {
			pool, err := pdl.NewPool(m, 16)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := pdl.NewHeap(pool, 0, 256)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1234)) // same workload per method
			var rids []pdl.RID
			for i := 0; i < 500; i++ {
				rec := make([]byte, 48)
				rng.Read(rec)
				rid, err := heap.Insert(rec)
				if err != nil {
					t.Fatal(err)
				}
				rids = append(rids, rid)
			}
			for i := 0; i < 800; i++ {
				rid := rids[rng.Intn(len(rids))]
				rec, err := heap.Get(rid, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng.Read(rec[:8])
				if err := heap.Update(rid, rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := pool.Flush(); err != nil {
				t.Fatal(err)
			}
			// Digest the full content in rid order.
			var digest []byte
			for _, rid := range rids {
				rec, err := heap.Get(rid, nil)
				if err != nil {
					t.Fatal(err)
				}
				digest = append(digest, rec...)
			}
			results[name] = digest
		})
	}
	want := results["OPU"]
	for name, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("method %s produced different contents than OPU", name)
		}
	}
}

// TestBTreeOverPDLWithEviction stresses the index through a tiny pool so
// every split and update round-trips through the differential machinery.
func TestBTreeOverPDLWithEviction(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(64))
	store, err := pdl.Open(chip, 1024, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pdl.NewPool(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pdl.NewBTree(pool, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(3000)
	for _, k := range keys {
		if err := tree.Insert(uint64(k), uint64(k)*7); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, err := tree.Get(uint64(k))
		if err != nil || v != uint64(k)*7 {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
	if chip.Stats().Erases == 0 {
		t.Log("note: workload did not trigger GC (acceptable, pool was tiny)")
	}
}

// TestTPCCDeterminism: the same seed must produce identical flash I/O
// counts — the property the benchmark harness depends on.
func TestTPCCDeterminism(t *testing.T) {
	run := func() pdl.FlashStats {
		scale := pdl.TPCCScale{
			Warehouses:               1,
			ItemCount:                150,
			DistrictsPerWarehouse:    3,
			CustomersPerDistrict:     15,
			InitialOrdersPerDistrict: 15,
			MaxNewTransactions:       2000,
		}
		pages, err := pdl.TPCCPagesNeeded(scale, pdl.DefaultFlashParams().DataSize)
		if err != nil {
			t.Fatal(err)
		}
		blocks := pages*5/2/64 + 4
		chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
		m, err := pdl.Open(chip, pages, pdl.Options{MaxDifferentialSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		db, err := pdl.LoadTPCC(m, scale, 32, 99)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := db.Run(db.NextTx()); err != nil {
				t.Fatal(err)
			}
		}
		return chip.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed TPC-C runs diverged: %+v vs %+v", a, b)
	}
}

// TestIPLLogUpdateMatchesWritePage: feeding IPL individual update logs
// (tightly coupled) and feeding it whole pages (loosely coupled) must
// converge to the same logical content.
func TestIPLLogUpdateMatchesWritePage(t *testing.T) {
	const numPages = 32
	size := pdl.DefaultFlashParams().DataSize
	mkStore := func() (*pdl.IPLStore, [][]byte) {
		chip := pdl.NewChip(pdl.ScaledFlashParams(16))
		m, err := pdl.OpenIPL(chip, numPages, pdl.IPLOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		shadow := make([][]byte, numPages)
		for pid := 0; pid < numPages; pid++ {
			shadow[pid] = make([]byte, size)
			rng.Read(shadow[pid])
			if err := m.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		return m, shadow
	}
	tight, shadowT := mkStore()
	loose, shadowL := mkStore()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		pid := uint32(rng.Intn(numPages))
		off := rng.Intn(size - 20)
		var chunk [20]byte
		rng.Read(chunk[:])
		// Tightly coupled: log the update, then evict.
		copy(shadowT[pid][off:], chunk[:])
		if err := tight.LogUpdate(pid, off, chunk[:]); err != nil {
			t.Fatal(err)
		}
		if err := tight.Evict(pid); err != nil {
			t.Fatal(err)
		}
		// Loosely coupled: hand over the whole updated page.
		copy(shadowL[pid][off:], chunk[:])
		if err := loose.WritePage(pid, shadowL[pid]); err != nil {
			t.Fatal(err)
		}
	}
	bufT := make([]byte, size)
	bufL := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := tight.ReadPage(uint32(pid), bufT); err != nil {
			t.Fatal(err)
		}
		if err := loose.ReadPage(uint32(pid), bufL); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufT, shadowT[pid]) {
			t.Fatalf("pid %d: tightly-coupled content wrong", pid)
		}
		if !bytes.Equal(bufL, shadowL[pid]) {
			t.Fatalf("pid %d: loosely-coupled content wrong", pid)
		}
		if !bytes.Equal(bufT, bufL) {
			t.Fatalf("pid %d: coupling modes diverged", pid)
		}
	}
}

// TestMixedMethodsShareNothing: two methods on separate chips never
// interfere (regression guard for accidental global state).
func TestMixedMethodsShareNothing(t *testing.T) {
	ms := methodsUnderTest(t, 16, 64)
	size := pdl.DefaultFlashParams().DataSize
	for name, m := range ms {
		page := bytes.Repeat([]byte(name), size/len(name)+1)[:size]
		if err := m.WritePage(7, page); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, size)
	for name, m := range ms {
		if err := m.ReadPage(7, buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(buf, []byte(name)) {
			t.Errorf("%s: content cross-contaminated: %q", name, buf[:16])
		}
	}
}
