package buffer

// A model test of the pool: a stream of calls, seeded or fuzzed, against a map
// of what every page must hold, with the directory's invariants asserted after
// every call.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

const modelPageSize = 32

// modelMethod is the flash under the model: the pages written so far, with
// reads that fail on demand.
type modelMethod struct {
	pages   map[uint32][]byte
	failing map[uint32]bool
}

func newModelMethod() modelMethod {
	return modelMethod{pages: map[uint32][]byte{}, failing: map[uint32]bool{}}
}

func (m *modelMethod) Name() string         { return "model" }
func (m *modelMethod) PageSize() int        { return modelPageSize }
func (m *modelMethod) Flush() error         { return nil }
func (m *modelMethod) Device() flash.Device { return nil }
func (m *modelMethod) Stats() flash.Stats   { return flash.Stats{} }

func (m *modelMethod) ReadPage(pid uint32, buf []byte) error {
	page, ok := m.pages[pid]
	switch {
	case m.failing[pid]:
		clear(buf) // a failed read may leave anything behind
		return errStubRead
	case !ok:
		return fmt.Errorf("model: page %d: %w", pid, ftl.ErrNotWritten)
	}
	copy(buf, page)
	return nil
}

func (m *modelMethod) WritePage(pid uint32, data []byte) error {
	m.pages[pid] = bytes.Clone(data)
	return nil
}

// batchModelMethod is a modelMethod that takes write batches and the
// first-dirty hint.
type batchModelMethod struct {
	modelMethod
	named int
}

func (m *batchModelMethod) RetainBase(uint32) { m.named++ }

func (m *batchModelMethod) WriteBatch(writes []ftl.PageWrite) error {
	for _, w := range writes {
		if err := m.WritePage(w.PID, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// poolModel drives one pool and knows what it must hold.
type poolModel struct {
	t     testing.TB
	p     *Pool
	m     *modelMethod
	named *int              // the RetainBase calls the method has heard, if it hears them
	want  map[uint32][]byte // every page ever created, in the pool or below it
	pids  int               // calls name pages 0..pids-1
	// firstDirties counts the MarkDirty calls that found a clean frame.
	firstDirties int
	step         int
}

// newPoolModel builds a pool over a method that fails reads on demand; with
// retainer the method also takes write batches and the first-dirty hint.
func newPoolModel(t testing.TB, capacity int, retainer bool) *poolModel {
	h := &poolModel{t: t, want: map[uint32][]byte{}, pids: 3*capacity + 5}
	var method ftl.Method
	if retainer {
		bm := &batchModelMethod{modelMethod: newModelMethod()}
		h.m, h.named, method = &bm.modelMethod, &bm.named, bm
	} else {
		m := newModelMethod()
		h.m, method = &m, &m
	}
	p, err := NewPool(method, capacity)
	if err != nil {
		t.Fatal(err)
	}
	h.p = p
	return h
}

func (h *poolModel) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

// faultError is the error a fault of pid ends in, or nil.
func (h *poolModel) faultError(pid uint32) error {
	switch {
	case h.m.failing[pid]:
		return errStubRead
	case h.want[pid] == nil:
		return ftl.ErrNotWritten
	}
	return nil
}

func (h *poolModel) markDirty(pid uint32) {
	n := h.p.frame(pid)
	if n != nil && !n.dirty {
		h.firstDirties++
	}
	if err := h.p.MarkDirty(pid); (err == nil) != (n != nil) {
		h.fatalf("MarkDirty(%d) = %v with the page resident: %v", pid, err, n != nil)
	}
}

// scribble changes a few bytes of pid's frame and of the model, and marks the
// frame dirty.
func (h *poolModel) scribble(pid uint32, buf []byte, pick func(int) int) {
	for i := 0; i < 3; i++ {
		buf[pick(len(buf))] = byte(pick(256))
	}
	h.want[pid] = bytes.Clone(buf)
	h.markDirty(pid)
}

// do makes one call, chosen by pick (pick(n) is in [0, n)), and checks what
// it returns and what it leaves.
func (h *poolModel) do(pick func(int) int) {
	h.step++
	p := h.p
	switch op := pick(100); {
	case op < 71: // Get, and in two cases of five an update
		pid := uint32(pick(h.pids))
		was := p.frame(pid) != nil
		buf, err := p.Get(pid)
		if want := h.faultError(pid); !was && want != nil {
			if !errors.Is(err, want) || p.frame(pid) != nil {
				h.fatalf("Get(%d) = %v, resident after: %v; want %v and false", pid, err, p.frame(pid) != nil, want)
			}
			break
		}
		if err != nil || !bytes.Equal(buf, h.want[pid]) {
			h.fatalf("Get(%d) = %x, %v; want %x", pid, buf, err, h.want[pid])
		}
		if op < 28 {
			h.scribble(pid, buf, pick)
		}
	case op < 81: // GetNew: a resident page as it is, any other zeroed
		pid := uint32(pick(h.pids))
		if p.frame(pid) == nil {
			h.want[pid] = make([]byte, modelPageSize)
		}
		buf, err := p.GetNew(pid)
		if err != nil || !bytes.Equal(buf, h.want[pid]) {
			h.fatalf("GetNew(%d) = %x, %v; want %x", pid, buf, err, h.want[pid])
		}
		if pick(2) == 0 {
			h.scribble(pid, buf, pick)
		}
	case op < 85:
		h.markDirty(uint32(pick(h.pids)))
	case op < 89:
		if err := p.Flush(); err != nil {
			h.fatalf("Flush: %v", err)
		}
		for pid, want := range h.want {
			if !bytes.Equal(h.m.pages[pid], want) {
				h.fatalf("after Flush the method holds %x for page %d, want %x", h.m.pages[pid], pid, want)
			}
		}
	default: // a page's reads start, or stop, failing
		pid := uint32(pick(h.pids))
		if h.m.failing[pid] {
			delete(h.m.failing, pid)
		} else {
			h.m.failing[pid] = true
		}
	}
	h.check()
}

// check asserts what must hold between any two calls: every directory entry
// is a resident frame, listed once, holding its page in a buffer of its own,
// and no more of them than the capacity.
func (h *poolModel) check() {
	p, c := h.p, h.p.capacity
	seen := make(map[uint32]bool, len(p.dir))
	buffers := make(map[*byte]uint32, c)
	for l := range p.lists {
		root, count := &p.lists[l].root, 0
		for n := root.next; n != root; n = n.next {
			count++
			if seen[n.pid] || p.dir[n.pid] != n || int(n.list) != l || n.next.prev != n {
				h.fatalf("list %d holds %+v; page listed twice: %v; the directory has %p for it", l, n, seen[n.pid], p.dir[n.pid])
			}
			seen[n.pid] = true
			if len(n.data) != modelPageSize {
				h.fatalf("page %d is in the directory with a page buffer of %d bytes", n.pid, len(n.data))
			}
			if !bytes.Equal(n.data, h.want[n.pid]) {
				h.fatalf("page %d's frame holds %x, want %x", n.pid, n.data, h.want[n.pid])
			}
			if !n.dirty && !bytes.Equal(h.m.pages[n.pid], n.data) {
				h.fatalf("page %d's frame is clean and holds %x; the method holds %x", n.pid, n.data, h.m.pages[n.pid])
			}
			if other, shared := buffers[&n.data[0]]; shared {
				h.fatalf("pages %d and %d share a page buffer", other, n.pid)
			}
			buffers[&n.data[0]] = n.pid
		}
		if count != p.lists[l].len {
			h.fatalf("list %d has %d nodes and a length of %d", l, count, p.lists[l].len)
		}
	}
	for _, buf := range p.spare {
		if pid, shared := buffers[&buf[0]]; shared {
			h.fatalf("page %d's buffer is also a spare", pid)
		}
	}
	if len(seen) != len(p.dir) || p.Len() > c {
		h.fatalf("capacity %d: %d resident, %d listed, %d in the directory", c, p.Len(), len(seen), len(p.dir))
	}
	for pid, want := range h.want {
		if p.frame(pid) == nil && !bytes.Equal(h.m.pages[pid], want) {
			h.fatalf("page %d is not resident and the method holds %x for it, want %x", pid, h.m.pages[pid], want)
		}
	}
	if h.named != nil && *h.named != h.firstDirties {
		h.fatalf("the method was named a page %d times over %d first MarkDirty calls of a clean frame", *h.named, h.firstDirties)
	}
}

// TestPoolAgainstModel: 10^5 seeded calls at each capacity, half of them over
// a plain method and half over one that takes write batches and the
// first-dirty hint. Reads fail, on and off, in both.
func TestPoolAgainstModel(t *testing.T) {
	steps := 50000
	if testing.Short() {
		steps = 5000
	}
	for _, capacity := range []int{1, 2, 8, 64} {
		for _, retainer := range []bool{false, true} {
			name := fmt.Sprintf("capacity=%d/retainer=%v", capacity, retainer)
			t.Run(name, func(t *testing.T) {
				h := newPoolModel(t, capacity, retainer)
				rng := rand.New(rand.NewSource(int64(capacity)*4 + int64(len(name))))
				for s := 0; s < steps; s++ {
					h.do(rng.Intn)
				}
				st := h.p.Stats()
				if st.Evictions == 0 || st.Writebacks == 0 || st.Hits == 0 {
					t.Errorf("the run did not reach every path: %+v", st)
				}
			})
		}
	}
}

// FuzzPoolAgainstModel reads its input as the model test's choices: a byte of
// set-up (capacity - 1 in the low four bits, 0x10 for the method that takes
// write batches and the hint), then one call's worth of choices after another
// until it runs out.
func FuzzPoolAgainstModel(f *testing.F) {
	f.Add([]byte{0})
	// Two frames, three pages: create and update, read, flush, a page whose
	// read fails while it is asked for, a bare MarkDirty.
	f.Add(append([]byte{0x01}, bytes.Repeat([]byte{
		75, 0, 0, 1, 2, 3, 4, 5, 6, 75, 1, 1, 75, 2, 0, 7, 8, 9, 10, 11, 12,
		10, 0, 3, 4, 5, 6, 7, 8, 60, 1, 86, 95, 2, 60, 2, 95, 2, 82, 1}, 6)...))
	// Eight frames over the batch method: twelve pages created, then updated
	// in turn, so every update faults and evicts a dirty page; then a Flush.
	var churn []byte
	for pid := byte(0); pid < 12; pid++ {
		churn = append(churn, 75, pid, 1)
	}
	for pid := byte(0); pid < 12; pid++ {
		churn = append(churn, 10, pid, 1, 2, 3, 4, 5, 6)
	}
	f.Add(append([]byte{0x17}, bytes.Repeat(append(churn, 86), 2)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		setup := in[0]
		in = in[1:]
		h := newPoolModel(t, 1+int(setup&0x0f), setup&0x10 != 0)
		pick := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b) % n
		}
		for len(in) > 0 {
			h.do(pick)
		}
	})
}
