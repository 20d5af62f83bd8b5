package core

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// TestMapEntryIs24Bytes pins the mapping table's row: the mapping state is
// 24 bytes a logical page.
func TestMapEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(mapEntry{}); n != 24 {
		t.Fatalf("a mapEntry is %d bytes, want 24", n)
	}
}

// TestMapTableAllocatesPerLogicalPage checks that the mapping of an
// 8,192-page store, the size of the page_file benchmark's (over 16,384
// physical pages there), costs its entries and a constant: nothing in it is
// sized by the device.
func TestMapTableAllocatesPerLogicalPage(t *testing.T) {
	const numPages = 8192
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mt := newMapTable(numPages)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(mt)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(numPages*24+4096); got > limit {
		t.Fatalf("newMapTable(%d) allocated %d bytes, want at most %d", numPages, got, limit)
	}
	if got := mt.bytes(); got != numPages*24 {
		t.Fatalf("an empty mapping reports %d bytes, want %d", got, numPages*24)
	}
	mt.setBasePage(0, 1, 1, nil)
	mt.setDiffPage(2, record(0, 2, 1))
	if got := mt.bytes(); got != numPages*24+12 {
		t.Fatalf("a mapping with one valid differential page reports %d bytes, want %d", got, numPages*24+12)
	}
}

// record encodes pid's differential of time stamp ts against the base of time
// stamp base: one changed byte.
func record(pid uint32, ts, base uint64) []byte {
	d := diff.Differential{PID: pid, TS: ts, Base: base, Ranges: []diff.Range{{Off: 0, Data: []byte{1}}}}
	return d.AppendTo(nil)
}

// TestSnapshotUnstableAfterEveryRepoint checks the reader protocol on each
// mutation of an entry, one that leaves it at its old pages included: a
// relocation there and back, a flushed differential and a compaction's
// repoint each fail a snapshot taken before them, and the heal's pin.
func TestSnapshotUnstableAfterEveryRepoint(t *testing.T) {
	const pid, a, b, dp, dst = 1, flash.PPN(10), flash.PPN(20), flash.PPN(30), flash.PPN(40)
	mt := newMapTable(4)
	if _, ok := mt.setBasePage(pid, a, 5, nil); !ok {
		t.Fatal("unpinned setBasePage refused")
	}
	snap := mt.snapshot(pid)
	if !mt.stable(pid, snap) {
		t.Fatal("a fresh snapshot is not stable")
	}
	if !mt.relocateBaseFrom(pid, a, b) || !mt.relocateBaseFrom(pid, b, a) {
		t.Fatal("relocateBaseFrom refused the current base")
	}
	if e := mt.snapshot(pid); e.base != a || e.baseTS != snap.baseTS {
		t.Fatalf("after A->B->A the entry is %+v, want base %d at ts %d", e, a, snap.baseTS)
	}
	if mt.stable(pid, snap) {
		t.Error("a snapshot stayed stable across a relocation A->B and back B->A")
	}
	if _, ok := mt.setBasePage(pid, 50, 6, &snap); ok {
		t.Error("a heal pinned before A->B->A committed")
	}

	rec := record(pid, 7, 5)
	snap = mt.snapshot(pid)
	if old, _ := mt.setDiffPage(dp, rec); old != flash.NilPPN {
		t.Fatalf("setDiffPage replaced differential page %d, want none", old)
	}
	if mt.stable(pid, snap) {
		t.Error("a snapshot stayed stable across setDiffPage")
	}
	if e := mt.snapshot(pid); e.dif != dp || e.diffTS() != 7 || e.recLen != uint16(len(rec)) {
		t.Fatalf("after setDiffPage the entry is %+v, want differential page %d at ts 7", e, dp)
	}

	snap = mt.snapshot(pid)
	if valid, lost := mt.repointCompacted(dst, rec, []flash.PPN{dp}); valid != 1 || lost != 0 {
		t.Fatalf("repointCompacted = %d valid, %d lost, want 1, 0", valid, lost)
	}
	if mt.stable(pid, snap) {
		t.Error("a snapshot stayed stable across repointCompacted")
	}
	if e := mt.snapshot(pid); e.dif != dst || e.diffTS() != 7 || e.recLen != uint16(len(rec)) {
		t.Fatalf("after the compaction the entry is %+v, want differential page %d at ts 7", e, dst)
	}
}

// TestBasesInFindsEveryBase checks the victim scan: each base page in the
// block is named at its offset, and pages that are no one's base are not.
func TestBasesInFindsEveryBase(t *testing.T) {
	mt := newMapTable(6)
	for pid, ppn := range []flash.PPN{3, 8, 9, 2, 15, 4} {
		mt.setBasePage(uint32(pid), ppn, uint64(pid+1), nil)
	}
	owners := mt.basesIn(8, 8) // pages 8..15
	want := map[int]uint32{0: 1, 1: 2, 7: 4}
	for i, pid := range owners {
		if w, ok := want[i]; ok != (pid != ftl.NoPID) || ok && pid != w {
			t.Errorf("page %d: owner %d, want %d (present %v)", 8+i, pid, w, ok)
		}
	}
}

// TestDifferentialAtMaxBaseDistance writes a differential exactly
// diff.MaxBaseDistance time stamps past its base, the widest distance an
// entry and a record carry, and reads it back before and after a restart.
func TestDifferentialAtMaxBaseDistance(t *testing.T) {
	const numPages = 8
	chip := flash.NewChip(ftltest.SmallParams(16))
	opts := Options{MaxDifferentialSize: 128}
	s, err := New(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, chip.Params().DataSize)
	for pid := range uint32(numPages) {
		page[0] = byte(pid)
		if err := s.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
	}
	const pid = 3
	base := entryOf(s, pid).baseTS
	s.ts.Store(base + diff.MaxBaseDistance - 1)
	want := bytes.Clone(page)
	want[0], want[100] = pid, 0xAB
	bases := s.Telemetry().NewBasePages
	if err := s.WritePage(pid, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e := entryOf(s, pid)
	if n := s.Telemetry().NewBasePages - bases; n != 0 || e.difDist != diff.MaxBaseDistance || e.diffTS() != base+diff.MaxBaseDistance {
		t.Fatalf("the write made %d base pages and the entry %+v, want a differential at distance %d", n, e, uint32(diff.MaxBaseDistance))
	}
	mustReadEqual(t, s, pid, want)

	r, err := Recover(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := entryOf(r, pid); got.base != e.base || got.dif != e.dif || got.baseTS != e.baseTS || got.difDist != e.difDist || got.recLen != e.recLen {
		t.Fatalf("recovered entry %+v, want %+v", got, e)
	}
	mustReadEqual(t, r, pid, want)
}
