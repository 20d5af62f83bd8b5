package buffer

// Tests for the batched fault path: GetMany must behave exactly like a
// loop of Get calls (contents, hit/miss accounting, eviction safety) while
// collapsing its misses into one method ReadBatch when available, and
// Readahead must prefetch without promoting or changing results.

import (
	"bytes"
	"fmt"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// countingMethod wraps a method and counts the read calls reaching it.
type countingMethod struct {
	ftl.Method
	readPages  int
	readBatch  int
	batchPages int
}

func (c *countingMethod) ReadPage(pid uint32, buf []byte) error {
	c.readPages++
	return c.Method.ReadPage(pid, buf)
}

func (c *countingMethod) ReadBatch(pids []uint32, bufs [][]byte) error {
	br, ok := c.Method.(ftl.BatchReader)
	if !ok {
		panic("countingMethod.ReadBatch on non-batch method")
	}
	c.readBatch++
	c.batchPages += len(pids)
	return br.ReadBatch(pids, bufs)
}

// serialOnly hides the batch interfaces of a method, forcing fallbacks,
// while counting the per-page reads that reach it.
type serialOnly struct {
	ftl.Method
	readPages int
}

func (c *serialOnly) ReadPage(pid uint32, buf []byte) error {
	c.readPages++
	return c.Method.ReadPage(pid, buf)
}

func newStore(t *testing.T, numPages int) (*core.Store, [][]byte) {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(16))
	s, err := core.New(chip, numPages, core.Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		for i := range shadow[pid] {
			shadow[pid][i] = byte(pid) ^ byte(i)
		}
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, shadow
}

func TestGetManyBatchesMisses(t *testing.T) {
	s, shadow := newStore(t, 32)
	cm := &countingMethod{Method: s}
	p, err := NewPool(cm, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Warm two pages; then a GetMany mixing hits, misses, and a duplicate.
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(2); err != nil {
		t.Fatal(err)
	}
	cm.readPages, cm.readBatch, cm.batchPages = 0, 0, 0
	pids := []uint32{1, 5, 2, 6, 7, 5}
	out, err := p.GetMany(pids)
	if err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if !bytes.Equal(out[i], shadow[pid]) {
			t.Fatalf("element %d (pid %d): wrong content", i, pid)
		}
	}
	if cm.readPages != 0 {
		t.Errorf("GetMany used %d per-page reads, want 0", cm.readPages)
	}
	if cm.readBatch != 1 || cm.batchPages != 3 {
		t.Errorf("GetMany issued %d batches over %d pages, want 1 over 3 (pids 5,6,7)", cm.readBatch, cm.batchPages)
	}
	st := p.Stats()
	// The two warming Gets were misses; GetMany adds 2 hits (1, 2) and 3
	// misses (5, 6, 7) — the duplicate 5 aliases an in-flight miss and is
	// neither.
	if st.Hits != 2 || st.Misses != 5 {
		t.Errorf("stats hits=%d misses=%d, want 2/5 (duplicate of an in-flight miss counts as neither)", st.Hits, st.Misses)
	}

	// Oversized requests are rejected before touching the pool.
	if _, err := p.GetMany(make([]uint32, 17)); err == nil {
		t.Error("GetMany beyond capacity accepted")
	}
}

func TestGetManyFallsBackPerPage(t *testing.T) {
	s, shadow := newStore(t, 16)
	cm := &serialOnly{Method: s}
	p, err := NewPool(cm, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.GetMany([]uint32{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, pid := range []uint32{3, 4, 5} {
		if !bytes.Equal(out[i], shadow[pid]) {
			t.Fatalf("pid %d: wrong content", pid)
		}
	}
	if cm.readPages != 3 {
		t.Errorf("fallback used %d per-page reads, want 3", cm.readPages)
	}
}

func TestGetManyErrorLeavesNoGarbageResident(t *testing.T) {
	s, _ := newStore(t, 8)
	p, err := NewPool(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	// pid 20 is out of range: the whole call fails and none of the batch's
	// pages may stay resident (their frames were never filled).
	if _, err := p.GetMany([]uint32{1, 20}); err == nil {
		t.Fatal("GetMany with invalid pid succeeded")
	}
	if p.Len() != 0 {
		t.Errorf("%d frames resident after failed GetMany, want 0", p.Len())
	}
	// The pool still works.
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
}

func TestReadaheadPrefetchesWithoutPromoting(t *testing.T) {
	s, shadow := newStore(t, 32)
	cm := &countingMethod{Method: s}
	p, err := NewPoolOpts(cm, 8, Options{Readahead: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.ReadaheadWindow() != 4 {
		t.Fatalf("ReadaheadWindow = %d, want 4", p.ReadaheadWindow())
	}
	n, err := p.Readahead([]uint32{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Readahead faulted %d pages, want 3", n)
	}
	if cm.readBatch != 1 || cm.batchPages != 3 {
		t.Errorf("Readahead issued %d batches over %d pages, want 1 over 3", cm.readBatch, cm.batchPages)
	}
	st := p.Stats()
	if st.Readaheads != 3 || st.Misses != 0 {
		t.Errorf("stats readaheads=%d misses=%d, want 3/0", st.Readaheads, st.Misses)
	}
	// The prefetched pages are now hits, with correct content.
	cm.readBatch, cm.batchPages = 0, 0
	buf, err := p.Get(11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, shadow[11]) {
		t.Fatal("prefetched page has wrong content")
	}
	if got := p.Stats(); got.Hits != 1 || got.Misses != 0 {
		t.Errorf("post-prefetch Get: hits=%d misses=%d, want 1/0", got.Hits, got.Misses)
	}
	// Re-readahead of resident pages faults nothing but reports them
	// covered, so window-advancing callers skip them.
	if n, err := p.Readahead([]uint32{10, 11, 12}); err != nil || n != 3 {
		t.Errorf("repeat Readahead = (%d, %v), want (3, nil)", n, err)
	}
	if st := p.Stats(); st.Readaheads != 3 {
		t.Errorf("readaheads=%d after resident repeat, want still 3 (nothing faulted)", st.Readaheads)
	}
	// The capacity/2 cap bounds one speculation and is reported honestly:
	// only the covered prefix is claimed.
	if n, err := p.Readahead([]uint32{20, 21, 22, 23, 24, 25}); err != nil || n != 4 {
		t.Errorf("capped Readahead = (%d, %v), want (4, nil) on a capacity-8 pool", n, err)
	}
}

// fullPoolAt returns a full pool at one end of the policy's range: T1's
// target 0 with a single once-seen page in T1, or the target at the capacity
// (raised by misses on B1's ghosts) with T2 down to a page or two.
func fullPoolAt(t *testing.T, capacity, target int) *Pool {
	t.Helper()
	p := stubPool(t, &stubMethod{failing: noPage}, capacity, Options{})
	if target == 0 {
		get(t, p, seq(1, uint32(capacity))...)
		get(t, p, seq(1, uint32(capacity))...)
		get(t, p, 0)
	}
	fresh := uint32(1 << 20)
	for steps := 0; p.target != target; steps++ {
		if steps > 100*capacity {
			t.Fatalf("T1's target is %d after %d fetches, want %d", p.target, steps, target)
		}
		if b1 := &p.lists[listB1]; b1.len > 0 {
			get(t, p, b1.root.next.pid)
			continue
		}
		get(t, p, fresh)
		if p.lists[listT2].len == 0 {
			get(t, p, fresh) // T1 leaves ghosts only while T2 holds something
		}
		fresh++
	}
	if p.Len() != capacity || p.target != target {
		t.Fatalf("%d resident and a target of %d, want %d and %d", p.Len(), p.target, capacity, target)
	}
	return p
}

// TestCallsPinTheFramesTheyHandOut: under the adaptive policy the frame a
// fault has just filled can be the next fault's victim (T1 of one page with a
// target of 0), and so can a frame just hit (T2 of one page with a target of
// the capacity). GetMany and Readahead must not let one call do that to
// itself: every frame of a GetMany is resident, distinct and intact when it
// returns, duplicates alias one frame, and a window read ahead is all there.
func TestCallsPinTheFramesTheyHandOut(t *testing.T) {
	const capacity = 8
	for _, target := range []int{0, capacity} {
		t.Run(fmt.Sprint("target=", target), func(t *testing.T) {
			checkMany := func(p *Pool, pids []uint32) {
				t.Helper()
				out, err := p.GetMany(pids)
				if err != nil {
					t.Fatal(err)
				}
				for i, pid := range pids {
					n := p.frame(pid)
					if n == nil || &n.data[0] != &out[i][0] || n.pinned || n.loading {
						t.Fatalf("element %d (pid %d): frame %+v does not hold the slice returned, unpinned", i, pid, n)
					}
					if out[i][0] != byte(pid) || out[i][len(out[i])-1] != byte(pid) {
						t.Fatalf("element %d (pid %d) holds page %d", i, pid, out[i][0])
					}
				}
			}
			newPool := func() *Pool { return fullPoolAt(t, capacity, target) }

			// All misses, as many as the pool holds.
			p := newPool()
			checkMany(p, seq(100, 100+capacity))

			// Hits first — the coldest frame of each list, which the misses
			// that follow would take — then misses, then duplicates of both.
			p = newPool()
			var pids []uint32
			for l := listT1; l <= listT2; l++ {
				if p.lists[l].len > 0 {
					pids = append(pids, p.lists[l].root.prev.pid)
				}
			}
			pids = append(pids, 200, 201, 202, pids[0], 201, 203)
			checkMany(p, pids[:capacity])

			// A window read ahead in one batch: every page of it arrives.
			p = newPool()
			window := seq(300, 300+capacity/2)
			if n, err := p.Readahead(window); err != nil || n != len(window) {
				t.Fatalf("Readahead = %d, %v", n, err)
			}
			before := p.Stats()
			get(t, p, window...)
			if after := p.Stats(); after.Misses != before.Misses {
				t.Errorf("%d of the %d pages read ahead were not resident", after.Misses-before.Misses, len(window))
			}
		})
	}
}
