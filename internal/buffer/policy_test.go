package buffer

// Tests of the replacement policy: what stays, what leaves, in which order,
// and what is written back when.

import (
	"fmt"
	"slices"
	"testing"

	"pdl/internal/ftl"
)

// logMethod is a stubMethod that records its reads and writes in order.
type logMethod struct {
	stubMethod
	log []string
}

func (m *logMethod) ReadPage(pid uint32, buf []byte) error {
	m.log = append(m.log, fmt.Sprint("read ", pid))
	return m.stubMethod.ReadPage(pid, buf)
}

func (m *logMethod) WritePage(pid uint32, data []byte) error {
	m.log = append(m.log, fmt.Sprint("write ", pid))
	return m.stubMethod.WritePage(pid, data)
}

func stubPool(t *testing.T, m ftl.Method, capacity int) *Pool {
	t.Helper()
	p, err := NewPool(m, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// get fetches each of pids, in order; a stub's page pid is full of byte(pid).
func get(t *testing.T, p *Pool, pids ...uint32) {
	t.Helper()
	for _, pid := range pids {
		if buf, err := p.Get(pid); err != nil || buf[0] != byte(pid) {
			t.Fatalf("Get(%d) = %v, %v", pid, buf[:1], err)
		}
	}
}

func dirty(t *testing.T, p *Pool, pids ...uint32) {
	t.Helper()
	for _, pid := range pids {
		if err := p.MarkDirty(pid); err != nil {
			t.Fatal(err)
		}
	}
}

// resident lists which of pids the pool holds.
func resident(p *Pool, pids ...uint32) []uint32 {
	var in []uint32
	for _, pid := range pids {
		if p.frame(pid) != nil {
			in = append(in, pid)
		}
	}
	return in
}

func seq(from, to uint32) []uint32 {
	var pids []uint32
	for pid := from; pid < to; pid++ {
		pids = append(pids, pid)
	}
	return pids
}

// TestTwiceTouchedPageSurvivesAScan: a scan of once-touched pages, twice the
// pool long, flows through T1 and leaves a page that was used again where it
// is. (An LRU of 8 has forgotten the page after 8 of the 16.)
func TestTwiceTouchedPageSurvivesAScan(t *testing.T) {
	const capacity = 8
	p := stubPool(t, &stubMethod{failing: noPage}, capacity)
	get(t, p, 1, 1)
	get(t, p, seq(100, 100+2*capacity)...)
	before := p.Stats()
	get(t, p, 1)
	if after := p.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Errorf("the page touched twice was evicted by a scan of once-touched pages: %+v then %+v", before, after)
	}
}

// TestOnceTouchedPagesLeaveInArrivalOrder: with nothing seen twice and nothing
// dirty, the policy is first in, first out.
func TestOnceTouchedPagesLeaveInArrivalOrder(t *testing.T) {
	const capacity = 8
	p := stubPool(t, &stubMethod{failing: noPage}, capacity)
	get(t, p, seq(0, capacity)...)
	for next := uint32(0); next < 3*capacity; next++ {
		get(t, p, capacity+next)
		if want, got := seq(next+1, next+1+capacity), resident(p, seq(0, 4*capacity)...); !slices.Equal(got, want) {
			t.Fatalf("after %d evictions pages %v are resident, want %v", next+1, got, want)
		}
	}
}

// TestCleanPageInTheTailQuarterLeavesFirst: a dirty tail page stays while a
// clean page sits among the capacity/4 coldest of its list, and costs nothing;
// when none does, the tail page is written back before its frame is reused.
func TestCleanPageInTheTailQuarterLeavesFirst(t *testing.T) {
	const capacity = 8 // the tail quarter is 2 frames
	m := &logMethod{stubMethod: stubMethod{failing: noPage}}
	p := stubPool(t, m, capacity)
	get(t, p, seq(0, capacity)...) // coldest first: 0, 1, 2, ...
	dirty(t, p, 0, 2, 3)
	m.log = nil

	get(t, p, 20) // the tail quarter is 0 (dirty) and 1 (clean)
	if got, want := resident(p, seq(0, capacity)...), []uint32{0, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("resident after the first miss: %v, want %v (the clean page 1 evicted, the dirty tail 0 kept)", got, want)
	}
	if want := []string{"read 20"}; !slices.Equal(m.log, want) {
		t.Fatalf("the first miss did %v, want %v", m.log, want)
	}

	get(t, p, 21) // the tail quarter is 0 and 2, both dirty: 0 goes, written back first
	if got, want := resident(p, seq(0, capacity)...), []uint32{2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("resident after the second miss: %v, want %v", got, want)
	}
	if want := []string{"read 20", "write 0", "read 21"}; !slices.Equal(m.log, want) {
		t.Fatalf("the two misses did %v, want %v", m.log, want)
	}
	if st := p.Stats(); st.Evictions != 2 || st.Writebacks != 1 {
		t.Errorf("stats %+v, want 2 evictions and 1 write-back", st)
	}

	get(t, p, 22) // 2 and 3 are dirty, and 4, the third coldest, is outside the quarter
	if want := []string{"read 20", "write 0", "read 21", "write 2", "read 22"}; !slices.Equal(m.log, want) {
		t.Fatalf("the three misses did %v, want %v", m.log, want)
	}
}

// TestGhostHitsMoveTheTarget: a miss on a page T1 evicted grows T1's target,
// a miss on a page T2 evicted shrinks it, and both come back as seen again.
func TestGhostHitsMoveTheTarget(t *testing.T) {
	const capacity = 4
	p := stubPool(t, &stubMethod{failing: noPage}, capacity)
	get(t, p, 1, 1, 2, 3, 4) // T2: 1; T1: 2, 3, 4
	get(t, p, 5)             // 2 leaves T1 for B1
	if p.target != 0 || p.dir[2] == nil || p.dir[2].list != listB1 || p.dir[2].data != nil {
		t.Fatalf("target %d, page 2's node %+v; want 0 and a ghost in B1", p.target, p.dir[2])
	}
	get(t, p, 2)
	if p.target != 1 || p.dir[2].list != listT2 {
		t.Fatalf("after a miss in B1: target %d, page 2 in list %d; want 1 and T2", p.target, p.dir[2].list)
	}
	// With 4 seen again, T1 (5 alone) is not over its target any more: T2's
	// coldest page, 1, goes.
	get(t, p, 4, 6)
	if n := p.dir[1]; n == nil || n.list != listB2 {
		t.Fatalf("page 1's node %+v, want a ghost in B2", n)
	}
	get(t, p, 1)
	if p.target != 0 || p.dir[1].list != listT2 {
		t.Fatalf("after a miss in B2: target %d, page 1 in list %d; want 0 and T2", p.target, p.dir[1].list)
	}
}
