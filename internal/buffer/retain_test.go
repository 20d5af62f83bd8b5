package buffer

// Tests for the pool's two dealings with a method beyond reads and writes:
// the first-dirty hint (ftl.BaseRetainer) and the reuse of a victim's frame.

import (
	"errors"
	"slices"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// stubMethod serves page pid as a page of byte(pid), fails the reads of
// failing, and records what the pool tells it.
type stubMethod struct {
	ftl.Method // nil: the pool must call nothing else
	failing    uint32
	written    []uint32
}

var errStubRead = errors.New("stub: unreadable page")

func (m *stubMethod) PageSize() int { return 256 }

func (m *stubMethod) ReadPage(pid uint32, buf []byte) error {
	if pid == m.failing {
		return errStubRead
	}
	for i := range buf {
		buf[i] = byte(pid)
	}
	return nil
}

func (m *stubMethod) WritePage(pid uint32, data []byte) error {
	m.written = append(m.written, pid)
	return nil
}

func (m *stubMethod) Flush() error       { return nil }
func (m *stubMethod) Stats() flash.Stats { return flash.Stats{} }

// hintedMethod is a stubMethod that takes the first-dirty hint.
type hintedMethod struct {
	stubMethod
	named []uint32
}

func (m *hintedMethod) RetainBase(pid uint32) { m.named = append(m.named, pid) }

const noPage = ^uint32(0)

// TestMarkDirtyNamesThePageAtFirstDirty: the method hears of a page when its
// clean frame is first marked dirty and not again until it has been written
// back; a created page is never named; a method without the interface is left
// alone.
func TestMarkDirtyNamesThePageAtFirstDirty(t *testing.T) {
	m := &hintedMethod{stubMethod: stubMethod{failing: noPage}}
	p, err := NewPool(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	mark := func(pid uint32) {
		t.Helper()
		if err := p.MarkDirty(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if len(m.named) != 0 {
		t.Fatalf("a fault named %v", m.named)
	}
	mark(1)
	mark(1)
	if _, err := p.GetNew(2); err != nil {
		t.Fatal(err)
	}
	mark(2)
	if want := []uint32{1}; !slices.Equal(m.named, want) {
		t.Fatalf("two MarkDirty of a fetched page and one of a created page named %v, want %v", m.named, want)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mark(2) // clean again, and now it has a previous image
	mark(1)
	if want := []uint32{1, 2, 1}; !slices.Equal(m.named, want) {
		t.Fatalf("after the write-back: named %v, want %v", m.named, want)
	}
	if err := p.MarkDirty(9); err == nil || len(m.named) != 3 {
		t.Fatalf("MarkDirty of a page not resident: %v, named %v", err, m.named)
	}

	plain := &stubMethod{failing: noPage}
	q, err := NewPool(plain, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); err != nil || !slices.Equal(plain.written, []uint32{1}) {
		t.Fatalf("a method without the hint: Flush = %v, wrote %v", err, plain.written)
	}
}

// TestPoolMissAllocations: a miss on a full pool takes over the victim's page
// buffer and a node the directory already owns (its own ghost's, a forgotten
// ghost's, or one of those the first eviction set aside), and a hit moves a
// node between lists: neither allocates, whichever list gives up the victim.
func TestPoolMissAllocations(t *testing.T) {
	const capacity = 8
	p, err := NewPool(&stubMethod{failing: noPage}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	pid := uint32(0)
	fetch := func(pid uint32) {
		buf, err := p.Get(pid)
		if err != nil || buf[0] != byte(pid) || buf[len(buf)-1] != byte(pid) {
			t.Fatalf("Get(%d) = %v, %v", pid, buf[:1], err)
		}
	}
	miss := func() { fetch(pid); pid++ }
	for i := 0; i < 3*capacity; i++ {
		miss()
	}
	before := p.Stats()
	if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
		t.Errorf("a Get miss on a full pool allocates %v times, want 0", allocs)
	}
	if after := p.Stats(); after.Hits != before.Hits || after.Evictions-before.Evictions != 201 {
		t.Errorf("the measured calls were not all evicting misses: %+v then %+v", before, after)
	}

	// Misses on ghosts: with two pages seen again, evictions leave ghosts, and
	// fetching the latest ghost of B1 and of B2 in turn evicts the next one.
	fetch(pid - 1)
	fetch(pid - 2)
	ghosts := 0
	ghostMiss := func() {
		for _, l := range []int{listB1 + ghosts%2, listB2 - ghosts%2} {
			if g := &p.lists[l]; g.len > 0 {
				fetch(g.root.next.pid)
				ghosts++
				return
			}
		}
		miss()
	}
	for i := 0; i < 3*capacity; i++ {
		ghostMiss()
	}
	before, ghosts = p.Stats(), 0
	if allocs := testing.AllocsPerRun(200, ghostMiss); allocs != 0 {
		t.Errorf("a Get miss on a ghost allocates %v times, want 0", allocs)
	}
	if after := p.Stats(); after.Hits != before.Hits || ghosts != 201 {
		t.Errorf("%d of the 201 measured calls were misses on ghosts: %+v then %+v", ghosts, before, after)
	}

	hit := func() { fetch(pid % capacity); pid++ }
	for i := 0; i < 2*capacity; i++ {
		hit()
	}
	before = p.Stats()
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Errorf("a Get hit allocates %v times, want 0", allocs)
	}
	if after := p.Stats(); after.Misses != before.Misses {
		t.Errorf("the measured calls were not all hits: %+v then %+v", before, after)
	}
}

// TestFailedFaultKeepsItsFrame: a fault whose read fails leaves nothing
// resident, and the next miss gets the frame it gave up, with nothing of the
// page that was evicted for it.
func TestFailedFaultKeepsItsFrame(t *testing.T) {
	m := &stubMethod{failing: 7}
	p, err := NewPool(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(1); pid <= 2; pid++ {
		if _, err := p.Get(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Get(7); !errors.Is(err, errStubRead) {
		t.Fatalf("Get of the unreadable page = %v", err)
	}
	if p.Len() != 1 || len(p.spare) != 1 {
		t.Fatalf("after the failed fault: %d resident and %d spare frames, want 1 and 1", p.Len(), len(p.spare))
	}
	spare := &p.spare[0][0]
	buf, err := p.Get(3)
	if err != nil || buf[0] != 3 || &buf[0] != spare {
		t.Fatalf("the next miss: %v, page starts %d, took the spare buffer: %v", err, buf[0], &buf[0] == spare)
	}
	if err := p.MarkDirty(3); err != nil {
		t.Fatal(err)
	}
	// The failed page left no ghost behind, nor did the page evicted for it,
	// which T1 gave up while it filled the pool alone.
	if p.Len() != 2 || len(p.spare) != 0 || len(p.dir) != 2 {
		t.Fatalf("%d resident, %d spare, %d in the directory; want 2, 0, 2", p.Len(), len(p.spare), len(p.dir))
	}
	// Page 2 is still resident and intact; page 3's frame is not clean by
	// inheritance from the frame's last tenant, nor dirty by it.
	if buf, err := p.Get(2); err != nil || buf[0] != 2 {
		t.Fatalf("Get(2) = %v, %v", buf[:1], err)
	}
	if err := p.Flush(); err != nil || !slices.Equal(m.written, []uint32{3}) {
		t.Fatalf("Flush = %v, wrote %v, want [3]", err, m.written)
	}
}
