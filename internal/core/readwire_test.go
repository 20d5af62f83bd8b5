package core

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/faultdev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// generationsStore hand-programs a flash image whose one differential page
// carries, for pid 5, three generations out of time-stamp order, a record
// of pid 6 between them, and a torn trailing record newer than all of them
// — then recovers a store over it. It returns the store, the fault wrapper
// and the images pids 5 and 6 must read as. Pid 5's newest record rewrites
// sector 0 whole, so it can heal that sector of the base page.
func generationsStore(t *testing.T, opts Options) (*Store, *faultdev.Device, map[uint32][]byte) {
	t.Helper()
	p := ftltest.SmallParams(8)
	fd := faultdev.Wrap(flash.NewChip(p))
	program := func(ppn flash.PPN, data []byte, h ftl.Header) {
		t.Helper()
		spare := make([]byte, p.SpareSize)
		ftl.EncodeHeaderInto(h, spare)
		ftl.SealSpare(data, spare)
		if err := fd.Program(ppn, data, spare); err != nil {
			t.Fatal(err)
		}
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	base5, base6 := make([]byte, p.DataSize), make([]byte, p.DataSize)
	for i := range base5 {
		base5[i], base6[i] = byte(i), byte(3*i+1)
	}
	program(0, base5, ftl.Header{Type: ftl.TypeBase, PID: 5, TS: 1, Seq: 1})
	program(1, base6, ftl.Header{Type: ftl.TypeBase, PID: 6, TS: 2, Seq: 1})

	newest := diff.Differential{PID: 5, TS: 9, Ranges: []diff.Range{{Off: 0, Data: fill(256, 0xC3)}}}
	only6 := diff.Differential{PID: 6, TS: 4, Ranges: []diff.Range{{Off: 10, Data: fill(4, 0xB2)}}}
	page := make([]byte, p.DataSize)
	encodeDiffPage(page, []diff.Differential{
		{PID: 5, TS: 3, Ranges: []diff.Range{{Off: 0, Data: fill(8, 0xA1)}}},
		only6,
		newest,
		{PID: 5, TS: 6, Ranges: []diff.Range{{Off: 300, Data: fill(8, 0xD4)}}},
	})
	// The torn tail: a two-range record of pid 5 with the highest time
	// stamp, cut after its first range. Its size field survives, its second
	// range header reads as erased flash.
	torn := diff.Differential{PID: 5, TS: 20, Ranges: []diff.Range{
		{Off: 400, Data: fill(8, 0xEE)}, {Off: 420, Data: fill(8, 0xEE)}}}.AppendTo(nil)
	used := diff.UsedPrefix(page)
	copy(page[used:], torn[:len(torn)-diff.RangeOverhead-8])
	if got := diff.UsedPrefix(page); got != used {
		t.Fatalf("the torn record changed the used prefix %d -> %d", used, got)
	}
	program(2, page, ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: 20, Seq: 1})

	s, err := Recover(fd, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if e := entryOf(s, 5); e.base != 0 || e.dif != 2 {
		t.Fatalf("recovered mapping of pid 5 = %+v, want base 0 dif 2", e)
	}
	want := map[uint32][]byte{5: base5, 6: base6}
	if err := newest.Apply(base5); err != nil {
		t.Fatal(err)
	}
	if err := only6.Apply(base6); err != nil {
		t.Fatal(err)
	}
	return s, fd, want
}

// TestReadPathsAgreeOnWireForm pins the one read path: a differential page
// read fresh (a cache miss), the cached record (a hit), a disabled cache and
// a record still in the shard write buffer give the same bytes — the newest
// complete record merged by the one applyRecord — for single and batched
// reads, and all four heal an uncorrectable base sector from it: durably from
// a flushed record, for this read only from a buffered one.
func TestReadPathsAgreeOnWireForm(t *testing.T) {
	modes := []struct {
		name     string
		opts     Options
		warm     bool // read pid 5 twice first, so the measured read finds its record cached
		buffered bool // write pid 5's image back first, so its differential is in the shard buffer
	}{
		{"miss", Options{}, false, false},
		{"hit", Options{}, true, false},
		{"cache off", Options{DiffCachePages: DiffCacheOff}, false, false},
		{"buffered", Options{}, false, true},
	}
	for _, m := range modes {
		for _, heal := range []bool{false, true} {
			name := m.name
			if heal {
				name += "/corrupt base"
			}
			t.Run(name, func(t *testing.T) {
				s, fd, want := generationsStore(t, m.opts)
				if m.warm {
					mustReadEqual(t, s, 5, want[5])
					mustReadEqual(t, s, 5, want[5])
				}
				if m.buffered {
					if err := s.WritePage(5, want[5]); err != nil {
						t.Fatal(err)
					}
					if _, ok := bufferedRecord(s, 5); !ok {
						t.Fatal("the write of pid 5 left no record in its shard buffer")
					}
				}
				if heal {
					fd.Inject(faultdev.Fault{PPN: 0, Kind: faultdev.SectorCorrupt, Off: 0})
				}
				before, programs := s.Telemetry(), fd.Stats().Writes
				mustReadEqual(t, s, 5, want[5])
				tel := s.Telemetry()
				if hit := tel.DiffCacheHits > before.DiffCacheHits; hit != m.warm {
					t.Errorf("the read of pid 5 hit the cache: %v, want %v", hit, m.warm)
				}
				if healed := tel.PagesHealed > before.PagesHealed; healed != heal {
					t.Errorf("the read of pid 5 healed a page: %v, want %v", healed, heal)
				}
				if durable := entryOf(s, 5).base != 0; durable != (heal && !m.buffered) {
					t.Errorf("the read moved pid 5 to a new base page: %v, want %v", durable, heal && !m.buffered)
				}
				if m.buffered && fd.Stats().Writes != programs {
					t.Errorf("a read served from the shard buffer programmed %d pages", fd.Stats().Writes-programs)
				}
				bufs := [][]byte{make([]byte, len(want[5])), make([]byte, len(want[6]))}
				if err := s.ReadBatch([]uint32{5, 6}, bufs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bufs[0], want[5]) || !bytes.Equal(bufs[1], want[6]) {
					t.Error("ReadBatch diverges from ReadPage")
				}
			})
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts and allocation counts mean
// nothing.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestReadPageAllocations pins the cost of recreating a diff-bearing page:
// nothing, on a cache hit and on a miss alike (the miss copies its record
// into the cache's arena).
func TestReadPageAllocations(t *testing.T) {
	if raceEnabled() || invariantsEnabled {
		t.Skip("allocation counts are only meaningful in a plain build")
	}
	s, chip, shadow := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: 1}, 16, 40)
	buf := make([]byte, chip.Params().DataSize)
	// A one-page budget indexes fewer slots than the store has pids, so the
	// table is a direct-mapped hash: two pids one table length apart share a
	// slot, and alternating between them misses every time.
	a := uint32(0)
	b := a + uint32(s.dcache.nslots)
	if int(b) >= len(shadow) || entryOf(s, a).dif == flash.NilPPN || entryOf(s, b).dif == flash.NilPPN {
		t.Fatalf("need two flushed pids %d slots apart among %d", s.dcache.nslots, len(shadow))
	}
	read := func(pid uint32) {
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d read does not match shadow", pid)
		}
	}

	read(a)
	read(a) // the second miss caches the record
	before := s.Telemetry()
	if n := testing.AllocsPerRun(200, func() { read(a) }); n != 0 {
		t.Errorf("a cache hit allocates %v times, want 0", n)
	}
	if tel := s.Telemetry(); tel.DiffCacheMisses != before.DiffCacheMisses {
		t.Fatal("the hit loop missed")
	}

	next := b
	before = s.Telemetry()
	if n := testing.AllocsPerRun(200, func() {
		read(next)
		next = a + b - next
	}); n != 0 {
		t.Errorf("a cache miss allocates %v times, want 0", n)
	}
	if tel := s.Telemetry(); tel.DiffCacheMisses-before.DiffCacheMisses != 201 || tel.DiffCacheHits != before.DiffCacheHits {
		t.Fatalf("the miss loop counted %d misses and %d hits over 201 reads",
			tel.DiffCacheMisses-before.DiffCacheMisses, tel.DiffCacheHits-before.DiffCacheHits)
	}

	// With default options a read also retains its base image: that allocates
	// a page per slot of the window while the slots fill and nothing once they
	// are warm, whether the read copies its image (the first of the reads
	// below) or, with no write served for two laps, leaves the window alone.
	s, _, shadow = diffStore(t, Options{MaxDifferentialSize: 128}, 16, 40)
	for i := 0; i <= s.bimg.win.max; i++ {
		read(uint32(i % len(shadow)))
	}
	if n := testing.AllocsPerRun(200, func() {
		read(next)
		next = (next + 1) % uint32(len(shadow))
	}); n != 0 {
		t.Errorf("a read into a warm window of base images allocates %v times, want 0", n)
	}
}

// TestWritePathAllocations holds the two places where a differential used to
// change form on its way to flash, a Case 2 spill and a garbage-collection
// increment, to the allocation counts of the decoded-form buffer (measured at
// the commit before the buffer became a slab of wire records).
func TestWritePathAllocations(t *testing.T) {
	if raceEnabled() || invariantsEnabled {
		t.Skip("allocation counts are only meaningful in a plain build")
	}
	// Case 2: every page's differential is more than half a buffer, so each
	// write of another pid spills the one before it.
	const numPages = 8
	chip := flash.NewChip(ftltest.SmallParams(64))
	size := chip.Params().DataSize
	s, err := New(chip, numPages, Options{DiffCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	updated := make([][]byte, numPages)
	for pid := range updated {
		updated[pid] = make([]byte, size)
		rng.Read(updated[pid])
		if err := s.WritePage(uint32(pid), updated[pid]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size/2+24; i++ {
			updated[pid][i] ^= 0xFF
		}
	}
	next := 0
	write := func() {
		if err := s.WritePage(uint32(next), updated[next]); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % numPages
	}
	for i := 0; i < 2*numPages; i++ {
		write()
	}
	before := s.Telemetry()
	n := testing.AllocsPerRun(100, write)
	if tel := s.Telemetry(); tel.BufferFlushes-before.BufferFlushes != 101 || tel.NewBasePages != before.NewBasePages {
		t.Fatalf("101 writes made %d spills and %d base pages, want a Case 2 each",
			tel.BufferFlushes-before.BufferFlushes, tel.NewBasePages-before.NewBasePages)
	}
	t.Logf("a Case 2 WritePage allocates %v times", n)
	if n > case2Allocs {
		t.Errorf("a Case 2 WritePage allocates %v times, want at most %d", n, case2Allocs)
	}

	// One increment: a victim block relocated, its differential pages
	// compacted, erased. The update loop never has to collect on its own, and
	// leaves full blocks whose differential pages are part dead, part live.
	s, chip, shadow := diffStore(t, Options{MaxDifferentialSize: 128}, 64, 256)
	for i := 0; i < 1200; i++ {
		pid := rng.Intn(len(shadow))
		off := rng.Intn(size - 16)
		rng.Read(shadow[pid][off : off+16])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if runs := s.Allocator().GCRuns(); runs != 0 {
		t.Fatalf("the update loop collected %d times on its own", runs)
	}
	gcBefore := s.Telemetry().GCReads
	n = testing.AllocsPerRun(8, func() {
		s.chans[0].mu.Lock()
		collected, err := s.alloc.CollectOnceOn(0)
		s.chans[0].mu.Unlock()
		if err != nil || !collected {
			t.Fatalf("CollectOnceOn = %v, %v", collected, err)
		}
	})
	t.Logf("a collection increment allocates %v times (%d relocation reads over 9)", n, s.Telemetry().GCReads-gcBefore)
	if n > gcIncrementAllocs {
		t.Errorf("a collection increment allocates %v times, want at most %d", n, gcIncrementAllocs)
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}

// What the decoded-form buffer cost on the two paths above; the slab makes
// it 4 and 6.
const (
	case2Allocs       = 5
	gcIncrementAllocs = 28
)
