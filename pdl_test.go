package pdl_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pdl"
)

func TestPublicAPIQuickstart(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(32))
	store, err := pdl.Open(chip, 256, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	page := make([]byte, size)
	rng := rand.New(rand.NewSource(1))
	rng.Read(page)
	if err := store.WritePage(42, page); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := store.ReadPage(42, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("round trip failed")
	}
	if chip.Stats().Ops() == 0 {
		t.Error("no simulated I/O recorded")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	size := pdl.DefaultFlashParams().DataSize
	page := make([]byte, size)
	builders := map[string]func(*pdl.Chip) (pdl.Method, error){
		"PDL": func(c *pdl.Chip) (pdl.Method, error) { return pdl.Open(c, 64, pdl.Options{}) },
		"OPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenOPU(c, 64) },
		"IPU": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenIPU(c, 64) },
		"IPL": func(c *pdl.Chip) (pdl.Method, error) { return pdl.OpenIPL(c, 64, pdl.IPLOptions{}) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			chip := pdl.NewChip(pdl.ScaledFlashParams(8))
			m, err := build(chip)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WritePage(0, page); err != nil {
				t.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, size)
			if err := m.ReadPage(0, got); err != nil {
				t.Fatal(err)
			}
			if err := m.ReadPage(63, got); !errors.Is(err, pdl.ErrNotWritten) {
				t.Errorf("unwritten read: %v", err)
			}
			if m.Name() == "" {
				t.Error("empty method name")
			}
		})
	}
}

func TestPublicAPIRecover(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(16))
	store, err := pdl.Open(chip, 64, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	pages := make([][]byte, 64)
	rng := rand.New(rand.NewSource(2))
	for pid := range pages {
		pages[pid] = make([]byte, size)
		rng.Read(pages[pid])
		if err := store.WritePage(uint32(pid), pages[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered, err := pdl.Recover(chip, 64, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	for pid := range pages {
		if err := recovered.ReadPage(uint32(pid), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[pid]) {
			t.Fatalf("pid %d mismatch after recovery", pid)
		}
	}
}

func TestPublicAPIPoolHeapBTree(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(32))
	store, err := pdl.Open(chip, 1024, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pdl.NewPool(store, 32)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pdl.NewHeap(pool, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pdl.NewBTree(pool, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Index heap records by key through the tree.
	for k := uint64(0); k < 300; k++ {
		rid, err := heap.Insert([]byte{byte(k), byte(k >> 8), 0xEE})
		if err != nil {
			t.Fatal(err)
		}
		packed := uint64(rid.Page)<<16 | uint64(rid.Slot)
		if err := tree.Insert(k, packed); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k += 17 {
		packed, err := tree.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		rid := pdl.RID{Page: uint32(packed >> 16), Slot: uint16(packed & 0xFFFF)}
		rec, err := heap.Get(rid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] != byte(k) || rec[1] != byte(k>>8) {
			t.Fatalf("key %d resolved to wrong record", k)
		}
	}
}

func TestFacadeWriteBatch(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(16))
	store, err := pdl.Open(chip, 64, pdl.Options{MaxDifferentialSize: 256, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	size := store.PageSize()
	batch := make([]pdl.PageWrite, 8)
	for i := range batch {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i + j)
		}
		batch[i] = pdl.PageWrite{PID: uint32(i * 5), Data: data}
	}
	var bw pdl.BatchWriter = store // the store advertises batch support
	if err := bw.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for _, w := range batch {
		if err := store.ReadPage(w.PID, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w.Data) {
			t.Fatalf("pid %d: batch write not visible", w.PID)
		}
	}
	tel := store.Telemetry()
	if tel.BatchWrites == 0 || tel.BatchedPages == 0 {
		t.Errorf("batch telemetry not counted: %+v", tel)
	}

	// A pool over the store flushes through the batch path.
	pool, err := pdl.NewPool(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 8; pid++ {
		d, err := pool.GetNew(40 + pid)
		if err != nil {
			t.Fatal(err)
		}
		d[0] = byte(pid)
		if err := pool.MarkDirty(40 + pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 8; pid++ {
		if err := store.ReadPage(40+pid, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(pid) {
			t.Fatalf("pool page %d lost", 40+pid)
		}
	}
}

func TestFacadeReadBatchAndDiffCache(t *testing.T) {
	chip := pdl.NewChip(pdl.ScaledFlashParams(16))
	store, err := pdl.Open(chip, 64, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	size := store.PageSize()
	rng := rand.New(rand.NewSource(9))
	shadow := make([][]byte, 64)
	for pid := range shadow {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// Small updates + Flush make every page diff-bearing (base + diff).
	for pid := range shadow {
		shadow[pid][7] ^= 0xFF
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	var br pdl.BatchReader = store // the store advertises batch reads
	pids := []uint32{3, 9, 27, 9}
	bufs := make([][]byte, len(pids))
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	if err := br.ReadBatch(pids, bufs); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if !bytes.Equal(bufs[i], shadow[pid]) {
			t.Fatalf("batch element %d (pid %d) wrong", i, pid)
		}
	}
	tel := store.Telemetry()
	if tel.BatchReads == 0 || tel.BatchedReads == 0 {
		t.Errorf("read-batch telemetry not counted: %+v", tel)
	}
	// Re-reading a pid hits the decoded-differential cache: one device
	// read instead of two.
	chip.ResetStats()
	if err := store.ReadPage(3, bufs[0]); err != nil {
		t.Fatal(err)
	}
	if got := chip.Stats().Reads; got != 1 {
		t.Errorf("hot read cost %d device reads, want 1 (cache hit)", got)
	}
	if store.Telemetry().DiffCacheHits == 0 {
		t.Error("no cache hit recorded")
	}

	// DiffCacheOff restores the paper's two-read PDL_Reading.
	off, err := pdl.Recover(chip, 64, pdl.Options{MaxDifferentialSize: 256, DiffCachePages: pdl.DiffCacheOff})
	if err != nil {
		t.Fatal(err)
	}
	chip.ResetStats()
	if err := off.ReadPage(3, bufs[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufs[0], shadow[3]) {
		t.Fatal("recovered cache-off read wrong content")
	}
	if got := chip.Stats().Reads; got != 2 {
		t.Errorf("cache-off read cost %d device reads, want 2", got)
	}

}
