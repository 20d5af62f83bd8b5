package core

// TestHammer is the store's race hammer, run under -race: on each of its
// cells of TestSim's matrix (six-block channels, the store as the caller),
// writers and readers drive one store while commits, collections and
// lock-free reads interleave. Each writer owns a disjoint set of pids, draws
// WritePage, WriteBatch of one to four of them, RetainBase on any pid and a
// periodic Flush, and reads its pids back to the byte; readers draw ReadPage
// and ReadBatch over all pids and hold each page to one whole version of its
// pid, no older than the last they read. A cell ends with GC run (the engines
// collected, on a background cell), Close returning nil, a Flush, every pid
// reading its last write, and Recover reading the same bytes with each pid's
// base and differential stamps equal to the live store's. Only on a striped
// cell with background collection does a collection on one channel race a
// commit on the other, where relocateBaseFrom and repointCompacted lose.
//
// A row is a check taken out of a copy of the package, and how many of ten
// runs of go test -race -count=1 -run TestHammer ./internal/core/ then fail:
//
//	relocateBaseFrom repoints whether or not the mapping still names src   10
//	readOnce takes an unstable base read as stable                          3
//	repointCompacted ignores the page each record came from                 0
//
// The last is defensive: nothing copies the records of a page a collection
// compacts, so a record whose stamp the mapping names is where it came from.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// hammerCells meet every pair of axis values, a small cache (1 or 8 pages)
// counted as one value, and one shard only on the striped device.
var hammerCells = []simCell{
	{"emu", false, 0, false, DiffCacheOff, false, false},
	{"emu", false, 4, true, 0, false, false},
	{"emu", false, 4, false, 8, false, false},
	{"file", false, 0, true, DiffCacheOff, false, false},
	{"file", false, 4, false, 0, false, false},
	{"file", false, 0, false, 1, false, false},
	{"striped", false, 0, true, 0, false, false},
	{"striped", false, 1, false, DiffCacheOff, false, false},
	{"striped", false, 1, true, 1, false, false},
	{"striped", false, 1, true, 0, false, false},
	{"striped", false, 4, true, DiffCacheOff, false, false},
}

const (
	hammerWriters = 4
	hammerReaders = 2
	hammerOps     = 500 // per writer
	hammerBatch   = 4   // the widest WriteBatch and ReadBatch
)

func TestHammer(t *testing.T) {
	for _, c := range hammerCells {
		t.Run(c.String(), func(t *testing.T) { hammerRun(t, c, 0) })
	}
}

// The five per-feature hammers TestHammer replaced keep their names, each one
// cell of the same harness on the 16-block geometry TestHammer's cells leave
// out, with the feature it named on and the 128-byte MaxDifferentialSize
// where it set one: sharded writes; reads through a one-page differential
// cache; background collection; WriteBatch on a file device with no cache;
// and ReadBatch against WriteBatch and collection, on two striped channels.
func TestConcurrentHammer(t *testing.T) {
	hammerRun(t, simCell{"emu", true, 4, false, 0, false, false}, 128)
}
func TestConcurrentReaders(t *testing.T) {
	hammerRun(t, simCell{"emu", true, 4, false, 1, false, false}, 0)
}
func TestBackgroundGCHammer(t *testing.T) {
	hammerRun(t, simCell{"emu", true, 4, true, 0, false, false}, 128)
}
func TestWriteBatchConcurrentHammer(t *testing.T) {
	hammerRun(t, simCell{"file", true, 4, true, DiffCacheOff, false, false}, 128)
}
func TestConcurrentReadBatchWriteBatchGC(t *testing.T) {
	hammerRun(t, simCell{"striped", true, 0, true, 8, false, false}, 128)
}

// hammerPage writes version ver of pid's page into page: pid and ver in its
// first eight bytes, and a fill that is pid's own. Every third version fills
// the whole page anew, a new base page; the two after it change a 24-byte
// window of that fill, a small differential against it.
func hammerPage(page []byte, pid, ver uint32) {
	fill := byte((ver - ver%3) * 29)
	for i := range page {
		page[i] = byte(pid) ^ byte(i) ^ fill
	}
	if off := 8 + int(ver*53)%(len(page)-32); ver%3 != 0 {
		for i := off; i < off+24; i++ {
			page[i] = byte(ver) ^ byte(i*7) ^ 0x5A
		}
	}
	binary.LittleEndian.PutUint32(page, pid)
	binary.LittleEndian.PutUint32(page[4:], ver)
}

// hammer is one cell's run: the store, each pid's last written version (its
// owner's alone while the goroutines run), and the writers' progress.
type hammer struct {
	s       *Store
	ver     []uint32
	ops     atomic.Int64 // writer operations done
	writing atomic.Int32 // writers still running
}

// hammerRun runs cell c with Options.MaxDifferentialSize maxDiff.
func hammerRun(t *testing.T, c simCell, maxDiff int) {
	var subs []flash.Device
	for range c.nchan() {
		dev, err := c.channelDevice(t)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, dev)
	}
	dev, opts := striped(subs), c.options(maxDiff)
	t.Cleanup(func() { dev.Close() })
	s, err := New(dev, c.numPages(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := &hammer{s: s, ver: make([]uint32, c.numPages())}
	page := make([]byte, s.PageSize())
	for pid := range uint32(len(h.ver)) {
		hammerPage(page, pid, 0)
		if err := s.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
	}

	errs := make([]error, hammerWriters+hammerReaders)
	h.writing.Store(hammerWriters)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g < hammerWriters {
				errs[g] = h.writer(g)
				h.writing.Add(-1)
			} else {
				errs[g] = h.reader(g)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	tel := s.Telemetry()
	t.Logf("%d collections, %d sync fallbacks, %d channel fall-overs, %d read retries",
		s.Allocator().GCRuns(), tel.SyncGCFallbacks, tel.ChannelFallOvers, tel.ReadRetries)
	if s.Allocator().GCRuns() == 0 {
		t.Fatal("the workload never collected")
	}
	// The writers' allocations may have reclaimed everything through
	// synchronous fallbacks before the scheduler ran an engine (most easily
	// under -race on two cores): rewrite pages from here alone, a millisecond
	// apart, until the engines collect, for up to 5 s.
	for deadline := time.Now().Add(5 * time.Second); c.bg && s.BackgroundGCStats().Collected == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the background engines collected nothing in 5 s (%d GC runs, %d sync fallbacks)",
				s.Allocator().GCRuns(), s.Telemetry().SyncGCFallbacks)
		}
		pid := rand.Intn(len(h.ver))
		h.ver[pid]++
		if hammerPage(page, uint32(pid), h.ver[pid]); s.WritePage(uint32(pid), page) != nil {
			t.Fatalf("rewriting pid %d failed", pid)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dev, c.numPages(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pid := range uint32(len(h.ver)) {
		if err := errors.Join(h.readsLast(s, pid, page), h.readsLast(r, pid, page)); err != nil {
			t.Fatal(err)
		}
		if a, b := s.mt.snapshot(pid), r.mt.snapshot(pid); a.baseTS != b.baseTS || a.diffTS() != b.diffTS() {
			t.Errorf("pid %d: recovered base and differential stamps %d and %d, the live store's %d and %d",
				pid, b.baseTS, b.diffTS(), a.baseTS, a.diffTS())
		}
	}
}

// pages returns hammerBatch pages of the store's size.
func (h *hammer) pages() [][]byte {
	bufs := make([][]byte, hammerBatch)
	for i := range bufs {
		bufs[i] = make([]byte, h.s.PageSize())
	}
	return bufs
}

// readsLast reads pid's last written version from s, into buf.
func (h *hammer) readsLast(s *Store, pid uint32, buf []byte) error {
	if err := s.ReadPage(pid, buf); err != nil {
		return fmt.Errorf("pid %d: %w", pid, err)
	}
	if ver := binary.LittleEndian.Uint32(buf[4:]); ver != h.ver[pid] || whole(buf, pid) != nil {
		return fmt.Errorf("pid %d does not read its version %d", pid, h.ver[pid])
	}
	return nil
}

// whole reports an error unless page is one whole version of pid: not another
// pid's, not torn, not two versions mixed.
func whole(page []byte, pid uint32) error {
	want := make([]byte, len(page))
	ver := binary.LittleEndian.Uint32(page[4:])
	if hammerPage(want, pid, ver); !bytes.Equal(page, want) {
		return fmt.Errorf("pid %d: read a page stamped pid %d version %d that is not that version",
			pid, binary.LittleEndian.Uint32(page), ver)
	}
	return nil
}

// writer drives the pids w owns: w, w+hammerWriters, and so on.
func (h *hammer) writer(w int) error {
	s, rng := h.s, rand.New(rand.NewSource(int64(w+1)))
	own, bufs, writes := len(h.ver)/hammerWriters, h.pages(), make([]ftl.PageWrite, hammerBatch)
	for i := range hammerOps {
		var err error
		switch op, n := rng.Intn(8), 1+rng.Intn(hammerBatch); {
		case op < 7:
			if op < 4 {
				n = 1
			}
			for j, k := range rng.Perm(own)[:n] {
				pid := w + hammerWriters*k
				h.ver[pid]++
				hammerPage(bufs[j], uint32(pid), h.ver[pid])
				writes[j] = ftl.PageWrite{PID: uint32(pid), Data: bufs[j]}
			}
			if op == 3 {
				s.RetainBase(writes[0].PID) // the first-dirty hint a buffer pool gives
			}
			if op < 4 {
				err = s.WritePage(writes[0].PID, writes[0].Data)
			} else {
				err = s.WriteBatch(writes[:n])
			}
		default:
			s.RetainBase(uint32(rng.Intn(len(h.ver)))) // most likely another writer's pid
		}
		if err == nil && i%16 == 15 {
			err = s.Flush()
		}
		if err == nil {
			err = h.readsLast(s, uint32(w+hammerWriters*rng.Intn(own)), bufs[0])
		}
		if err != nil {
			return fmt.Errorf("writer %d op %d: %w", w, i, err)
		}
		h.ops.Add(1)
	}
	return nil
}

// reader reads all pids by ReadPage and ReadBatch in turn while the writers
// run, each page a whole version of its pid no older than the last it read of
// it, at most four reads a writer operation: on one shard, unpaced readers
// take the shard lock tens of times for each time a writer gets it.
func (h *hammer) reader(g int) error {
	rng, seen, bufs := rand.New(rand.NewSource(int64(g))), make([]uint32, len(h.ver)), h.pages()
	for i := int64(1); h.writing.Load() > 0; i++ {
		for i > 4*h.ops.Load() && h.writing.Load() > 0 {
			runtime.Gosched()
		}
		pids := make([]uint32, 1+int(i%2)*rng.Intn(hammerBatch))
		for j, k := range rng.Perm(len(h.ver))[:len(pids)] {
			pids[j] = uint32(k)
		}
		var err error
		if len(pids) == 1 {
			err = h.s.ReadPage(pids[0], bufs[0])
		} else {
			err = h.s.ReadBatch(pids, bufs[:len(pids)])
		}
		for j, pid := range pids {
			if err != nil {
				break
			}
			ver := binary.LittleEndian.Uint32(bufs[j][4:])
			if err = whole(bufs[j], pid); err == nil && ver < seen[pid] {
				err = fmt.Errorf("pid %d: read version %d after version %d", pid, ver, seen[pid])
			}
			seen[pid] = ver
		}
		if err != nil {
			return fmt.Errorf("reader %d read %d of %v: %w", g, i, pids, err)
		}
	}
	return nil
}
