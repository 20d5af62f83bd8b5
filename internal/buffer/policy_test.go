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
// pool long, flows through the window and leaves a page that was used again
// where it is, whether it was used again before the sketch counted (it went
// to protected) or after (its count wins the admission contest). An LRU of 8
// has forgotten the page after 8 of the 16.
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

	get(t, p, 2, 2)
	get(t, p, seq(200, 200+2*capacity)...)
	before = p.Stats()
	get(t, p, 2, 1)
	if after := p.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+2 {
		t.Errorf("a page touched twice once the sketch counts was evicted by a scan of once-touched pages: %+v then %+v", before, after)
	}
}

// TestFrequentPageWinsAdmission: once-seen candidates never displace a page
// used more, in either direction of the contest. A page used four times
// leaves the window for probation in place of probation's once-seen victim;
// once it is probation's victim itself, every once-seen page the window
// pushes out is evicted instead of it.
func TestFrequentPageWinsAdmission(t *testing.T) {
	const capacity = 10 // a window of 1 frame, 9 in the main segment
	p := stubPool(t, &stubMethod{failing: noPage}, capacity)
	get(t, p, seq(0, 2*capacity)...) // the sketch counts from the first eviction on
	const used = 100
	get(t, p, used, used, used, used)
	if n := p.dir[used]; n == nil || n.list != listWindow {
		t.Fatalf("the page used four times is not in the window: %+v", n)
	}
	victim := p.coldest(listProbation).pid
	get(t, p, 200)
	if !p.Resident(used) || p.Resident(victim) {
		t.Fatalf("the page used four times left the window: resident %v; probation's once-seen victim %d resident %v",
			p.Resident(used), victim, p.Resident(victim))
	}
	wasVictim := false
	for pid := uint32(201); pid < 201+3*capacity; pid++ {
		wasVictim = wasVictim || p.coldest(listProbation).pid == used
		get(t, p, pid)
		if !p.Resident(used) {
			t.Fatalf("the once-seen page %d displaced the page used four times", pid)
		}
	}
	if !wasVictim {
		t.Error("the page used four times was never probation's victim")
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
