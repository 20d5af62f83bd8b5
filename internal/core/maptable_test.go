package core

import (
	"bytes"
	"errors"
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
// block is named at its offset, by owners on both sides of the scan's chunk
// boundaries, and pages that are no one's base are not.
func TestBasesInFindsEveryBase(t *testing.T) {
	mt := newMapTable(2*basesInChunk + 1)
	for pid, ppn := range []flash.PPN{3, 8, 9, 2, 15, 4} {
		mt.setBasePage(uint32(pid), ppn, uint64(pid+1), nil)
	}
	for pid, ppn := range map[uint32]flash.PPN{basesInChunk - 1: 11, basesInChunk: 12, 2 * basesInChunk: 13, basesInChunk + 1: 40} {
		mt.setBasePage(pid, ppn, 1, nil)
	}
	owners := mt.basesIn(8, 8) // pages 8..15
	want := map[int]uint32{0: 1, 1: 2, 3: basesInChunk - 1, 4: basesInChunk, 5: 2 * basesInChunk, 7: 4}
	for i, pid := range owners {
		if w, ok := want[i]; ok != (pid != ftl.NoPID) || ok && pid != w {
			t.Errorf("page %d: owner %d, want %d (present %v)", 8+i, pid, w, ok)
		}
	}
}

// boundStore returns a store over a small chip whose logical pages were each
// loaded once as a page of zeros but for the first byte, its pid, and that
// page of pid 3.
func boundStore(t *testing.T) (*flash.Chip, *Store, Options, []byte) {
	t.Helper()
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
	page[0] = 3
	return chip, s, opts, page
}

// recoverEntry restarts the store over chip and checks that pid's entry
// comes back as e, its pages and stamps, and reads as want.
func recoverEntry(t *testing.T, chip *flash.Chip, opts Options, pid uint32, e mapEntry, want []byte) *Store {
	t.Helper()
	r, err := Recover(chip, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if got := entryOf(r, pid); got.base != e.base || got.dif != e.dif || got.baseTS != e.baseTS || got.difDist != e.difDist || got.recLen != e.recLen {
		t.Fatalf("recovered entry %+v, want %+v", got, e)
	}
	mustReadEqual(t, r, pid, want)
	return r
}

// TestDifferentialAtMaxBaseDistance writes a differential exactly
// diff.MaxBaseDistance (2^24 - 1) time stamps past its base, the widest
// distance an entry and a record carry, and reads it back before and after a
// restart.
func TestDifferentialAtMaxBaseDistance(t *testing.T) {
	if diff.MaxBaseDistance != 1<<24-1 {
		t.Fatalf("diff.MaxBaseDistance = %d, want 2^24 - 1", diff.MaxBaseDistance)
	}
	chip, s, opts, page := boundStore(t)
	defer s.Close()
	const pid = 3
	base := entryOf(s, pid).baseTS
	s.ts.Store(base + diff.MaxBaseDistance - 1)
	want := bytes.Clone(page)
	want[100] = 0xAB
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
	recoverEntry(t, chip, opts, pid, e, want)
}

// TestDifferentialPastMaxBaseDistanceIsCase3 writes a small change one time
// stamp further from its base than a record can name: it becomes a new base
// page (Case 3), which a restart recovers.
func TestDifferentialPastMaxBaseDistanceIsCase3(t *testing.T) {
	chip, s, opts, page := boundStore(t)
	defer s.Close()
	const pid = 3
	base := entryOf(s, pid).baseTS
	s.ts.Store(base + diff.MaxBaseDistance)
	want := bytes.Clone(page)
	want[100] = 0xAB
	bases := s.Telemetry().NewBasePages
	if err := s.WritePage(pid, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e := entryOf(s, pid)
	if n := s.Telemetry().NewBasePages - bases; n != 1 || e.dif != flash.NilPPN || e.baseTS != base+diff.MaxBaseDistance+1 {
		t.Fatalf("the write made %d base pages and the entry %+v, want a new base page of ts %d", n, e, base+diff.MaxBaseDistance+1)
	}
	mustReadEqual(t, s, pid, want)
	recoverEntry(t, chip, opts, pid, e, want)
}

// TestWritePastMaxTimeStampRefused runs the store up to diff.MaxTimeStamp
// (2^48 - 1): a differential stamped with it is written and recovered, and a
// write or batch that would be stamped past it returns
// ErrTimeStampsExhausted with nothing programmed, read or buffered.
func TestWritePastMaxTimeStampRefused(t *testing.T) {
	if diff.MaxTimeStamp != 1<<48-1 {
		t.Fatalf("diff.MaxTimeStamp = %d, want 2^48 - 1", uint64(diff.MaxTimeStamp))
	}
	chip, s, opts, page := boundStore(t)
	defer s.Close()
	const pid = 3
	// refused checks that the write of batch is refused and changes nothing.
	refused := func(st *Store, batch []ftl.PageWrite, want []byte) {
		t.Helper()
		stats, tel, buffered := st.Stats(), st.Telemetry(), st.WriteBufferLen()
		if err := st.WriteBatch(batch); !errors.Is(err, ErrTimeStampsExhausted) {
			t.Fatalf("a write of %d pages at time stamp %d returned %v, want ErrTimeStampsExhausted", len(batch), st.ts.Load(), err)
		}
		if got := st.Stats(); got != stats {
			t.Fatalf("the refused write moved the device counters %+v -> %+v", stats, got)
		}
		if got := st.Telemetry(); got != tel || st.WriteBufferLen() != buffered {
			t.Fatalf("the refused write moved the store's counters %+v -> %+v, or its buffer %d -> %d", tel, got, buffered, st.WriteBufferLen())
		}
		mustReadEqual(t, st, pid, want)
	}

	// A new base page two stamps short of the last, then a differential of
	// it one stamp short.
	s.ts.Store(diff.MaxTimeStamp - 3)
	v1 := bytes.Clone(page)
	v1[100] = 1
	if err := s.WritePage(pid, v1); err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Clone(v1)
	v2[200] = 2
	if err := s.WritePage(pid, v2); err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Clone(v2)
	v3[300] = 3
	refused(s, []ftl.PageWrite{{PID: pid, Data: v3}, {PID: 5, Data: v3}}, v2)

	// The last stamp fits, in a record of distance 2.
	if err := s.WritePage(pid, v3); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e := entryOf(s, pid)
	if e.dif == flash.NilPPN || e.diffTS() != diff.MaxTimeStamp || e.baseTS != diff.MaxTimeStamp-2 {
		t.Fatalf("the entry is %+v, want a differential of ts %d over the base of ts %d", e, uint64(diff.MaxTimeStamp), uint64(diff.MaxTimeStamp-2))
	}
	mustReadEqual(t, s, pid, v3)
	refused(s, []ftl.PageWrite{{PID: pid, Data: page}}, v3)

	r := recoverEntry(t, chip, opts, pid, e, v3)
	refused(r, []ftl.PageWrite{{PID: pid, Data: page}}, v3)
}
