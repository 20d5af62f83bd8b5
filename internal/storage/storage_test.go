package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pdl/internal/buffer"
	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

func newHeap(t *testing.T, poolPages int, heapPages uint32) *Heap {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(16))
	m, err := core.New(chip, int(heapPages)+4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(m, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(pool, 0, heapPages)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSlottedPageBasics(t *testing.T) {
	buf := make([]byte, 512)
	p := initPage(buf)
	if p.slotCount() != 0 || p.freeTail() != 512 {
		t.Fatalf("fresh page: slots=%d tail=%d", p.slotCount(), p.freeTail())
	}
	s0 := p.insert([]byte("alpha"))
	s1 := p.insert([]byte("beta"))
	if s0 != 0 || s1 != 1 {
		t.Fatalf("slots = %d, %d", s0, s1)
	}
	r0, err := p.get(0)
	if err != nil || string(r0) != "alpha" {
		t.Fatalf("get(0) = %q, %v", r0, err)
	}
	if err := p.del(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(0); err == nil {
		t.Error("get of dead slot succeeded")
	}
	// Dead slot is reused.
	s2 := p.insert([]byte("gamma"))
	if s2 != 0 {
		t.Errorf("reused slot = %d, want 0", s2)
	}
}

func TestSlottedPageFull(t *testing.T) {
	buf := make([]byte, 64)
	p := initPage(buf)
	rec := make([]byte, 16)
	n := 0
	for p.insert(rec) >= 0 {
		n++
		if n > 10 {
			t.Fatal("page never filled")
		}
	}
	// 64 bytes: header 4, per record 16+4 slot = 20 -> 3 records.
	if n != 3 {
		t.Errorf("inserted %d records into 64-byte page, want 3", n)
	}
}

func TestSlottedCompact(t *testing.T) {
	buf := make([]byte, 128)
	p := initPage(buf)
	a := p.insert(bytes.Repeat([]byte{1}, 30))
	b := p.insert(bytes.Repeat([]byte{2}, 30))
	c := p.insert(bytes.Repeat([]byte{3}, 30))
	if a < 0 || b < 0 || c < 0 {
		t.Fatal("setup inserts failed")
	}
	if err := p.del(b); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 128)
	p.compact(scratch)
	ra, err := p.get(a)
	if err != nil || !bytes.Equal(ra, bytes.Repeat([]byte{1}, 30)) {
		t.Errorf("record a corrupted by compaction: %v", err)
	}
	rc, err := p.get(c)
	if err != nil || !bytes.Equal(rc, bytes.Repeat([]byte{3}, 30)) {
		t.Errorf("record c corrupted by compaction: %v", err)
	}
	// Freed space is usable again.
	if p.insert(bytes.Repeat([]byte{4}, 30)) < 0 {
		t.Error("compaction did not reclaim dead space")
	}
}

func TestHeapInsertGet(t *testing.T) {
	h := newHeap(t, 4, 8)
	rid, err := h.Insert([]byte("hello record"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello record" {
		t.Errorf("got %q", got)
	}
}

func TestHeapUpdateSameSize(t *testing.T) {
	h := newHeap(t, 4, 8)
	rid, err := h.Insert([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Update(rid, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid, nil)
	if err != nil || string(got) != "bbbb" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestHeapUpdateGrow(t *testing.T) {
	h := newHeap(t, 4, 8)
	rid, err := h.Insert([]byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("x"), 100)
	if err := h.Update(rid, long); err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid, nil)
	if err != nil || !bytes.Equal(got, long) {
		t.Fatalf("grown update mismatch: %v", err)
	}
}

func TestHeapUpdateGrowTriggersCompaction(t *testing.T) {
	h := newHeap(t, 4, 1) // single page
	// Fill most of the page, then repeatedly grow-update one record so
	// dead space accumulates and compaction must kick in.
	rid, err := h.Insert(make([]byte, 40))
	if err != nil {
		t.Fatal(err)
	}
	filler, err := h.Insert(make([]byte, 200))
	if err != nil {
		t.Fatal(err)
	}
	_ = filler
	for n := 41; n <= 48; n++ {
		if err := h.Update(rid, make([]byte, n)); err != nil {
			t.Fatalf("update to %d bytes: %v", n, err)
		}
	}
	got, err := h.Get(rid, nil)
	if err != nil || len(got) != 48 {
		t.Fatalf("final record %d bytes, %v", len(got), err)
	}
}

func TestHeapDelete(t *testing.T) {
	h := newHeap(t, 4, 8)
	rid, err := h.Insert([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid, nil); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("get deleted: %v", err)
	}
	if err := h.Delete(rid); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("double delete: %v", err)
	}
}

func TestHeapRIDValidation(t *testing.T) {
	h := newHeap(t, 4, 4)
	if _, err := h.Get(RID{Page: 99, Slot: 0}, nil); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("foreign page: %v", err)
	}
	if err := h.Update(RID{Page: 0, Slot: 7}, []byte("x")); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("bad slot: %v", err)
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h := newHeap(t, 4, 4)
	if _, err := h.Insert(make([]byte, h.MaxRecordSize()+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized insert: %v", err)
	}
}

func TestHeapFull(t *testing.T) {
	h := newHeap(t, 4, 1)
	var err error
	for i := 0; i < 1000; i++ {
		if _, err = h.Insert(make([]byte, 64)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

func TestHeapSurvivesFlushAndEviction(t *testing.T) {
	// Tiny pool (2 frames) over many pages: every operation churns through
	// flash; contents must persist.
	h := newHeap(t, 2, 16)
	rng := rand.New(rand.NewSource(17))
	type entry struct {
		rid RID
		val []byte
	}
	var entries []entry
	for i := 0; i < 120; i++ {
		rec := make([]byte, 20+rng.Intn(40))
		rng.Read(rec)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{rid, append([]byte(nil), rec...)})
	}
	// Random updates.
	for i := 0; i < 200; i++ {
		e := &entries[rng.Intn(len(entries))]
		rng.Read(e.val)
		if err := h.Update(e.rid, e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got, err := h.Get(e.rid, nil)
		if err != nil {
			t.Fatalf("%v: %v", e.rid, err)
		}
		if !bytes.Equal(got, e.val) {
			t.Fatalf("%v content mismatch", e.rid)
		}
	}
}

// Property: any sequence of insert/delete pairs leaves the page internally
// consistent: live records readable, free space non-negative.
func TestQuickSlottedPageConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		buf := make([]byte, 256)
		p := initPage(buf)
		type rec struct {
			slot int
			val  []byte
		}
		var live []rec
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				val := bytes.Repeat([]byte{op}, int(op%23)+1)
				s := p.insert(val)
				if s >= 0 {
					live = append(live, rec{s, val})
				}
			} else {
				i := int(op) % len(live)
				if err := p.del(live[i].slot); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if p.freeSpace() < 0 {
				return false
			}
		}
		for _, r := range live {
			got, err := p.get(r.slot)
			if err != nil || !bytes.Equal(got, r.val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
