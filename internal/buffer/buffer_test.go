package buffer

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftltest"
	"pdl/internal/opu"
)

func newPool(t *testing.T, capacity, numPages int) (*Pool, *flash.Chip) {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(16))
	m, err := core.New(chip, numPages, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(m, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p, chip
}

func TestNewPoolValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(4))
	m, err := opu.New(chip, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(m, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestGetNewAndReadBack(t *testing.T) {
	p, _ := newPool(t, 4, 16)
	data, err := p.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("hello buffer"))
	if err := p.MarkDirty(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello buffer")) {
		t.Error("content lost")
	}
}

func TestHitAvoidsFlashIO(t *testing.T) {
	p, chip := newPool(t, 4, 16)
	d, err := p.GetNew(1)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 7
	_ = p.MarkDirty(1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	before := chip.Stats()
	for i := 0; i < 10; i++ {
		if _, err := p.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	if diff := chip.Stats().Sub(before); diff.Ops() != 0 {
		t.Errorf("10 hits cost %+v flash ops, want 0", diff)
	}
	st := p.Stats()
	if st.Hits < 10 {
		t.Errorf("hits = %d, want >= 10", st.Hits)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, chip := newPool(t, 2, 16)
	for pid := uint32(0); pid < 2; pid++ {
		d, err := p.GetNew(pid)
		if err != nil {
			t.Fatal(err)
		}
		d[0] = byte(pid + 1)
		_ = p.MarkDirty(pid)
	}
	before := chip.Stats()
	// Faulting a third page evicts the LRU (pid 0), which is dirty.
	if _, err := p.GetNew(2); err != nil {
		t.Fatal(err)
	}
	if chip.Stats().Sub(before).Ops() == 0 {
		t.Error("dirty eviction caused no flash I/O")
	}
	if p.Stats().Evictions != 1 || p.Stats().Writebacks != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want capacity 2", p.Len())
	}
	// Evicted page still reads back with its data.
	got, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("evicted page content lost")
	}
}

// TestResidentCountsNoUse: Resident answers without faulting, and without
// the use a Get would count: two pools fed the same calls, one of them also
// asked about every page, hold the same pages after the next fault.
func TestResidentCountsNoUse(t *testing.T) {
	p, chip := newPool(t, 2, 16)
	for pid := uint32(0); pid < 2; pid++ {
		if _, err := p.GetNew(pid); err != nil {
			t.Fatal(err)
		}
	}
	before, stats := chip.Stats(), p.Stats()
	if !p.Resident(0) || !p.Resident(1) || p.Resident(2) {
		t.Fatalf("Resident(0, 1, 2) = %v %v %v, want true true false", p.Resident(0), p.Resident(1), p.Resident(2))
	}
	if p.Stats() != stats || chip.Stats().Sub(before).Ops() != 0 {
		t.Fatalf("Resident moved the counters: pool %+v -> %+v", stats, p.Stats())
	}

	const capacity = 8
	asked := stubPool(t, &stubMethod{failing: noPage}, capacity)
	plain := stubPool(t, &stubMethod{failing: noPage}, capacity)
	pids := append(seq(0, 2*capacity), 3, 3, 12, 5, 14, 15, 15, 20)
	for i, pid := range pids {
		get(t, asked, pid)
		get(t, plain, pid)
		for q := range uint32(32) {
			asked.Resident(q)
		}
		get(t, asked, 100+uint32(i))
		get(t, plain, 100+uint32(i))
		if in, want := resident(asked, seq(0, 200)...), resident(plain, seq(0, 200)...); !slices.Equal(in, want) {
			t.Fatalf("call %d: the pool asked Resident holds %v, the other %v", i, in, want)
		}
	}
	if asked.Stats() != plain.Stats() {
		t.Errorf("the pool asked Resident counted %+v, the other %+v", asked.Stats(), plain.Stats())
	}
}

// TestPoolThatNeverEvictsHasNoSketch: a pool whose pages all fit counts no
// accesses, allocates nothing to count them and keeps its window at a tenth of
// its frames; its first eviction allocates the sketch, four rows of the next
// power of two at least 16 x capacity.
func TestPoolThatNeverEvictsHasNoSketch(t *testing.T) {
	const capacity = 24
	p := stubPool(t, &stubMethod{failing: noPage}, capacity)
	for range 11 { // not a whole number of samples: a count would show
		get(t, p, seq(0, capacity)...)
	}
	dirty(t, p, seq(0, capacity)...)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.sketch.table != nil {
		t.Fatalf("a pool that never evicted holds a sketch of %d words", len(p.sketch.table))
	}
	if p.windowCap != 2 || p.size.accesses != 0 {
		t.Fatalf("a pool that never evicted has a window of %d frames and counted %d accesses, want 2 and 0", p.windowCap, p.size.accesses)
	}
	get(t, p, capacity)
	if p.sketch.width != 512 || len(p.sketch.table) != 4*512/16 {
		t.Errorf("after the first eviction the sketch is %d wide in %d words, want 512 in 128", p.sketch.width, len(p.sketch.table))
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	p, _ := newPool(t, 2, 16)
	// Create two pages, flush so they're clean.
	for pid := uint32(0); pid < 2; pid++ {
		if _, err := p.GetNew(pid); err != nil {
			t.Fatal(err)
		}
		_ = p.MarkDirty(pid)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	wb := p.Stats().Writebacks
	if _, err := p.GetNew(3); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Writebacks != wb {
		t.Error("clean eviction triggered a writeback")
	}
}

func TestMarkDirtyNonResident(t *testing.T) {
	p, _ := newPool(t, 2, 16)
	if err := p.MarkDirty(5); err == nil {
		t.Error("MarkDirty of non-resident page succeeded")
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	p, _ := newPool(t, 2, 16)
	d, err := p.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 9
	_ = p.MarkDirty(0)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(0); err != ErrClosed {
		t.Errorf("Get after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRandomWorkloadMatchesShadow(t *testing.T) {
	const numPages = 32
	p, _ := newPool(t, 5, numPages)
	size := p.PageSize()
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		d, err := p.GetNew(uint32(pid))
		if err != nil {
			t.Fatal(err)
		}
		copy(d, shadow[pid])
		_ = p.MarkDirty(uint32(pid))
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 800; i++ {
		pid := uint32(rng.Intn(numPages))
		d, err := p.Get(pid)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(d, shadow[pid]) {
			t.Fatalf("op %d: pid %d diverged", i, pid)
		}
		off := rng.Intn(size - 4)
		rng.Read(d[off : off+4])
		copy(shadow[pid], d)
		_ = p.MarkDirty(pid)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < numPages; pid++ {
		d, err := p.Get(uint32(pid))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, shadow[pid]) {
			t.Fatalf("pid %d final mismatch", pid)
		}
	}
}
