package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/faultdev"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// The batch tests share one deterministic scenario: batchNumPages logical
// pages loaded with full random images (full-page loads are Case 3 base
// programs for any shard count, so the pre-batch flash layout is identical
// across every configuration), then one batch mixing Case-3 rewrites,
// small Case-1/2 updates (sized to spill the write buffer several times),
// repeated pids (the staged-base and staged-diff intra-batch paths), and a
// no-op rewrite.
const (
	batchNumPages = 40
	batchMaxDiff  = 128
	batchShards   = 4
)

func batchParams() flash.Params { return ftltest.SmallParams(16) }

func batchOptions(bg bool) Options {
	return Options{
		MaxDifferentialSize: batchMaxDiff,
		Shards:              batchShards,
		BackgroundGC:        bg,
	}
}

// batchPage returns the deterministic version v image of pid.
func batchPage(pid uint32, v int, size int) []byte {
	rng := rand.New(rand.NewSource(int64(pid)<<16 | int64(v)))
	data := make([]byte, size)
	rng.Read(data)
	return data
}

// loadBatchPages writes the version-0 image of every page and flushes.
func loadBatchPages(t *testing.T, s *Store) [][]byte {
	t.Helper()
	size := s.PageSize()
	shadow := make([][]byte, batchNumPages)
	for pid := 0; pid < batchNumPages; pid++ {
		shadow[pid] = batchPage(uint32(pid), 0, size)
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("loading pid %d: %v", pid, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return shadow
}

// buildTestBatch constructs the scenario batch over the loaded state.
func buildTestBatch(size int) []ftl.PageWrite {
	rng := rand.New(rand.NewSource(99))
	smallUpdate := func(pid uint32, base []byte, n int) []byte {
		data := append([]byte(nil), base...)
		off := rng.Intn(size - n)
		rng.Read(data[off : off+n])
		return data
	}
	var batch []ftl.PageWrite
	for i := 0; i < 20; i++ {
		pid := uint32((i * 7) % batchNumPages)
		if i%2 == 0 { // Case 3: full rewrite
			batch = append(batch, ftl.PageWrite{PID: pid, Data: batchPage(pid, i+1, size)})
		} else { // Case 1/2: ~100 changed bytes, spilling every few writes
			batch = append(batch, ftl.PageWrite{PID: pid, Data: smallUpdate(pid, batchPage(pid, 0, size), 100)})
		}
	}
	// Same pid twice: a staged base page followed by a small update that
	// must diff against the staged (still unprogrammed) image.
	reb := batchPage(3, 77, size)
	batch = append(batch, ftl.PageWrite{PID: 3, Data: reb})
	batch = append(batch, ftl.PageWrite{PID: 3, Data: smallUpdate(3, reb, 60)})
	// A rewrite byte-identical to the current base: a no-op reflection.
	batch = append(batch, ftl.PageWrite{PID: 5, Data: batchPage(5, 0, size)})
	return batch
}

// readAllRecovered reads every logical page out of a store.
func readAllRecovered(t *testing.T, s *Store) [][]byte {
	t.Helper()
	out := make([][]byte, batchNumPages)
	for pid := 0; pid < batchNumPages; pid++ {
		out[pid] = make([]byte, s.PageSize())
		if err := s.ReadPage(uint32(pid), out[pid]); err != nil {
			t.Fatalf("reading recovered pid %d: %v", pid, err)
		}
	}
	return out
}

func statesEqual(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// serialPrefixStates returns, for every j in [0, len(batch)], the logical
// contents crash recovery reconstructs after serially writing batch[:j]
// over the identical pre-state and then crashing without a flush. This is
// the ground truth the batched write path must land on for ANY kill point:
// the recovered state of a batch interrupted anywhere must be byte-
// identical to one of these serial prefixes.
func serialPrefixStates(t *testing.T, batch []ftl.PageWrite) [][][]byte {
	t.Helper()
	states := make([][][]byte, len(batch)+1)
	for j := range states {
		chip := flash.NewChip(batchParams())
		s, err := New(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		loadBatchPages(t, s)
		for i := 0; i < j; i++ {
			if err := s.WritePage(batch[i].PID, batch[i].Data); err != nil {
				t.Fatalf("serial prefix %d, write %d: %v", j, i, err)
			}
		}
		r, err := Recover(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatalf("recovering serial prefix %d: %v", j, err)
		}
		states[j] = readAllRecovered(t, r)
	}
	return states
}

// assertSomePrefix fails unless got matches one of the serial prefix
// states, reporting the closest diagnosis otherwise.
func assertSomePrefix(t *testing.T, label string, got [][]byte, states [][][]byte) {
	t.Helper()
	for j := range states {
		if statesEqual(got, states[j]) {
			return
		}
	}
	t.Fatalf("%s: recovered state matches no serial prefix of the batch", label)
}

// TestWriteBatchMatchesSerial pins the zeroth property: an uninterrupted
// WriteBatch is indistinguishable from serial WritePage calls — same
// visible contents, same number of physical page programs, and the same
// recovered state after a flush and crash.
func TestWriteBatchMatchesSerial(t *testing.T) {
	chipB, chipS := flash.NewChip(batchParams()), flash.NewChip(batchParams())
	sb, err := New(chipB, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := New(chipS, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	loadBatchPages(t, sb)
	loadBatchPages(t, ss)
	batch := buildTestBatch(sb.PageSize())

	wb, ws := chipB.Stats().Writes, chipS.Stats().Writes
	if err := sb.WriteBatch(batch); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	for _, w := range batch {
		if err := ss.WritePage(w.PID, w.Data); err != nil {
			t.Fatalf("serial WritePage(%d): %v", w.PID, err)
		}
	}
	if bw, sw := chipB.Stats().Writes-wb, chipS.Stats().Writes-ws; bw != sw {
		t.Errorf("page programs: batched %d, serial %d (batching must not change the write pattern)", bw, sw)
	}
	bufB, bufS := make([]byte, sb.PageSize()), make([]byte, ss.PageSize())
	for pid := 0; pid < batchNumPages; pid++ {
		if err := sb.ReadPage(uint32(pid), bufB); err != nil {
			t.Fatal(err)
		}
		if err := ss.ReadPage(uint32(pid), bufS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufB, bufS) {
			t.Fatalf("pid %d: batched and serial stores diverge", pid)
		}
	}
	tel := sb.Telemetry()
	if tel.BatchWrites == 0 || tel.BatchedPages < tel.BatchWrites {
		t.Errorf("telemetry did not count the batch: %+v", tel)
	}

	// Flush both and crash: the recovered states must also agree.
	if err := sb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	rb, err := Recover(chipB, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(chipS, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(readAllRecovered(t, rb), readAllRecovered(t, rs)) {
		t.Error("recovered states diverge after flush")
	}
}

// TestWriteBatchKillMidBatchEmu crashes the emulator at every possible
// program of the batch (and, with background GC, wherever the scheduled
// power failure happens to land) and asserts recovery reconstructs a state
// byte-identical to having serially written a prefix of the batch.
func TestWriteBatchKillMidBatchEmu(t *testing.T) {
	size := batchParams().DataSize
	batch := buildTestBatch(size)
	states := serialPrefixStates(t, batch)
	for _, bg := range []bool{false, true} {
		name := "SyncGC"
		if bg {
			name = "BackgroundGC"
		}
		t.Run(name, func(t *testing.T) {
			const maxKill = 200
			fired := 0
			for killAt := 1; killAt <= maxKill; killAt++ {
				chip := flash.NewChip(batchParams())
				s, err := New(chip, batchNumPages, batchOptions(bg))
				if err != nil {
					t.Fatal(err)
				}
				loadBatchPages(t, s)
				chip.SchedulePowerFailure(int64(killAt))
				batchErr := s.WriteBatch(batch)
				s.Close() // stops a background collector; its sticky power-loss error is the crash itself
				fail := chip.PowerFailed()
				chip.SchedulePowerFailure(-1) // disarm: the recovered store programs again
				if !fail {
					if batchErr != nil {
						t.Fatalf("killAt %d: batch failed without a power loss: %v", killAt, batchErr)
					}
					// The batch completed before the scheduled failure:
					// crashing now loses only buffered differentials,
					// which is exactly the full serial prefix.
					r, err := Recover(chip, batchNumPages, batchOptions(false))
					if err != nil {
						t.Fatal(err)
					}
					if got := readAllRecovered(t, r); !statesEqual(got, states[len(batch)]) {
						t.Fatalf("killAt %d: completed batch does not recover as the full prefix", killAt)
					}
					break
				}
				fired++
				r, err := Recover(chip, batchNumPages, batchOptions(false))
				if err != nil {
					t.Fatalf("killAt %d: recover: %v", killAt, err)
				}
				assertSomePrefix(t, fmt.Sprintf("killAt %d", killAt), readAllRecovered(t, r), states)
			}
			if fired == 0 {
				t.Fatal("no power failure ever fired; the batch issued no programs")
			}
		})
	}
}

// prefixFailDev wraps a real device and makes the next ProgramBatch apply
// only its first failAfter pages before reporting an injected error — the
// device-contract crash shape (a programmed prefix) without needing power
// control over the backing file. With failProgram set the next single
// Program fails too, applying nothing; with failRead set the next single
// page read fails instead. All other operations pass through.
type prefixFailDev struct {
	flash.Device
	failAfter   int
	fired       bool
	failProgram bool
	failRead    bool
}

var errInjectedKill = errors.New("injected mid-batch kill")

func (d *prefixFailDev) ProgramBatch(batch []flash.PageProgram) error {
	if !d.fired && len(batch) > d.failAfter {
		d.fired = true
		if d.failAfter > 0 {
			if err := d.Device.ProgramBatch(batch[:d.failAfter]); err != nil {
				return err
			}
		}
		return errInjectedKill
	}
	return d.Device.ProgramBatch(batch)
}

func (d *prefixFailDev) Program(ppn flash.PPN, data, spare []byte) error {
	if d.failProgram && !d.fired {
		d.fired = true
		return errInjectedKill
	}
	return d.Device.Program(ppn, data, spare)
}

func (d *prefixFailDev) Read(ppn flash.PPN, data, spare []byte) error {
	if d.failRead && !d.fired {
		d.fired = true
		return errInjectedKill
	}
	return d.Device.Read(ppn, data, spare)
}

// TestWriteBatchKillMidBatchFile runs the kill-mid-batch matrix over the
// persistent backend: the batch is truncated after k pages, the file is
// reopened as after a process kill, and recovery must reconstruct a serial
// prefix of the batch — byte-identical to the emulator ground truth.
func TestWriteBatchKillMidBatchFile(t *testing.T) {
	size := batchParams().DataSize
	batch := buildTestBatch(size)
	states := serialPrefixStates(t, batch)
	dir := t.TempDir()
	for _, bg := range []bool{false, true} {
		name := "SyncGC"
		if bg {
			name = "BackgroundGC"
		}
		t.Run(name, func(t *testing.T) {
			for killAt := 0; ; killAt++ {
				path := filepath.Join(dir, fmt.Sprintf("%s-kill%d.flash", name, killAt))
				fdev, err := filedev.Open(path, filedev.Options{Params: batchParams()})
				if err != nil {
					t.Fatal(err)
				}
				dev := &prefixFailDev{Device: fdev, failAfter: killAt}
				s, err := New(dev, batchNumPages, batchOptions(bg))
				if err != nil {
					t.Fatal(err)
				}
				loadBatchPages(t, s)
				batchErr := s.WriteBatch(batch)
				s.Close()
				if err := fdev.Close(); err != nil {
					t.Fatal(err)
				}
				if !dev.fired {
					// killAt exceeded the batch's op count: done, after one
					// last check that the untouched run completed.
					if batchErr != nil {
						t.Fatalf("killAt %d: %v", killAt, batchErr)
					}
					break
				}
				if !errors.Is(batchErr, errInjectedKill) {
					t.Fatalf("killAt %d: err = %v, want injected kill", killAt, batchErr)
				}
				reopened, err := filedev.Open(path, filedev.Options{})
				if err != nil {
					t.Fatal(err)
				}
				r, err := Recover(reopened, batchNumPages, batchOptions(false))
				if err != nil {
					t.Fatalf("killAt %d: recover: %v", killAt, err)
				}
				assertSomePrefix(t, fmt.Sprintf("killAt %d", killAt), readAllRecovered(t, r), states)
				reopened.Close()
			}
		})
	}
}

// TestWriteBatchConcurrentHammer drives concurrent WriteBatch, WritePage,
// and ReadPage traffic on disjoint pid partitions under -race, with a
// background collector running, then verifies every partition's final
// contents.
func TestWriteBatchConcurrentHammer(t *testing.T) {
	const (
		workers = 4
		rounds  = 30
		perOp   = 6
	)
	chip := flash.NewChip(ftltest.SmallParams(24))
	s, err := New(chip, batchNumPages, Options{
		MaxDifferentialSize: batchMaxDiff,
		Shards:              workers,
		BackgroundGC:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := s.PageSize()
	for pid := 0; pid < batchNumPages; pid++ {
		if err := s.WritePage(uint32(pid), batchPage(uint32(pid), 0, size)); err != nil {
			t.Fatal(err)
		}
	}
	final := make([][]byte, batchNumPages)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			shadow := make(map[uint32][]byte)
			buf := make([]byte, size)
			for r := 0; r < rounds; r++ {
				batch := make([]ftl.PageWrite, 0, perOp)
				used := make(map[uint32]bool)
				for len(batch) < perOp {
					pid := uint32(rng.Intn(batchNumPages/workers)*workers + w)
					if used[pid] {
						continue
					}
					used[pid] = true
					data := batchPage(pid, r*workers+w+1, size)
					if rng.Intn(2) == 0 { // small update against last known content
						prev := shadow[pid]
						if prev == nil {
							prev = batchPage(pid, 0, size)
						}
						data = append([]byte(nil), prev...)
						off := rng.Intn(size - 16)
						rng.Read(data[off : off+16])
					}
					batch = append(batch, ftl.PageWrite{PID: pid, Data: data})
					shadow[pid] = data
				}
				if r%3 == 0 {
					if err := s.WriteBatch(batch); err != nil {
						errs[w] = err
						return
					}
				} else {
					for _, pw := range batch {
						if err := s.WritePage(pw.PID, pw.Data); err != nil {
							errs[w] = err
							return
						}
					}
				}
				pid := batch[rng.Intn(len(batch))].PID
				if err := s.ReadPage(pid, buf); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(buf, shadow[pid]) {
					errs[w] = fmt.Errorf("worker %d round %d: pid %d readback mismatch", w, r, pid)
					return
				}
			}
			for pid, data := range shadow {
				final[pid] = data
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	buf := make([]byte, size)
	for pid := 0; pid < batchNumPages; pid++ {
		want := final[pid]
		if want == nil {
			continue
		}
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("pid %d: final content mismatch", pid)
		}
	}
}

// TestFlushBatchesShards pins the batched Flush: dirtying several shards
// and flushing issues exactly one device batch carrying one differential
// page per non-empty shard.
func TestFlushBatchesShards(t *testing.T) {
	chip := flash.NewChip(batchParams())
	s, err := New(chip, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	loadBatchPages(t, s)
	telBefore := s.Telemetry()
	// Small updates across enough pids to touch several shards.
	touched := make(map[int]bool)
	for pid := uint32(0); pid < 12; pid++ {
		data := batchPage(pid, 0, size)
		data[17] ^= 0xFF
		if err := s.WritePage(pid, data); err != nil {
			t.Fatal(err)
		}
		touched[s.shardIndex(pid)] = true
	}
	if len(touched) < 2 {
		t.Fatalf("scenario touched %d shards; want >= 2", len(touched))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tel := s.Telemetry()
	if got := tel.BatchWrites - telBefore.BatchWrites; got != 1 {
		t.Errorf("Flush issued %d device batches, want 1", got)
	}
	if got := tel.BatchedPages - telBefore.BatchedPages; got != int64(len(touched)) {
		t.Errorf("Flush batched %d pages, want %d (one differential page per dirty shard)", got, len(touched))
	}
	if got := tel.BufferFlushes - telBefore.BufferFlushes; got != int64(len(touched)) {
		t.Errorf("BufferFlushes grew by %d, want %d", got, len(touched))
	}
}

// TestWriteBatchContendedPidRecoversLikeLive guards the time-stamp
// reservation order: WriteBatch must reserve its TS range only after the
// involved shard locks are held, so a concurrent WritePage to the same
// pid that commits first also stamps first. If reservation happened
// early, the live store (last commit wins) and crash recovery (highest
// TS wins) could disagree about which writer owns a page. The race is
// scheduling-dependent, so many rounds run; live contents read after the
// dust settles must always equal the recovered contents after a flush.
func TestWriteBatchContendedPidRecoversLikeLive(t *testing.T) {
	const rounds = 40
	size := batchParams().DataSize
	pids := []uint32{2, 9, 11, 23}
	for r := 0; r < rounds; r++ {
		chip := flash.NewChip(batchParams())
		s, err := New(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		loadBatchPages(t, s)
		var wg sync.WaitGroup
		var errB, errW error
		wg.Add(2)
		go func() {
			defer wg.Done()
			batch := make([]ftl.PageWrite, len(pids))
			for i, pid := range pids {
				batch[i] = ftl.PageWrite{PID: pid, Data: batchPage(pid, 1000+r, size)}
			}
			errB = s.WriteBatch(batch)
		}()
		go func() {
			defer wg.Done()
			for _, pid := range pids {
				if errW = s.WritePage(pid, batchPage(pid, 2000+r, size)); errW != nil {
					return
				}
			}
		}()
		wg.Wait()
		if errB != nil || errW != nil {
			t.Fatalf("round %d: batch err %v, write err %v", r, errB, errW)
		}
		live := readAllRecovered(t, s)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(chip, batchNumPages, batchOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		if !statesEqual(live, readAllRecovered(t, rec)) {
			t.Fatalf("round %d: recovery disagrees with the live store about a contended pid", r)
		}
	}
}

// TestFailedFlushPreservesBufferedWrites guards the staging discipline:
// a Flush whose device batch fails must leave every buffered differential
// in place — still serving reads, still flushable by a retry — instead of
// silently reverting acknowledged writes.
func TestFailedFlushPreservesBufferedWrites(t *testing.T) {
	chip := flash.NewChip(batchParams())
	dev := &prefixFailDev{Device: chip, failAfter: 0, fired: true, failProgram: true} // disarmed
	s, err := New(dev, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	loadBatchPages(t, s)

	want := batchPage(7, 0, size)
	want[3] ^= 0xFF
	if err := s.WritePage(7, want); err != nil { // small update: buffered only
		t.Fatal(err)
	}
	dev.fired = false // arm: the next program fails applying nothing
	if err := s.Flush(); !errors.Is(err, errInjectedKill) {
		t.Fatalf("Flush err = %v, want the injected device failure", err)
	}
	buf := make([]byte, size)
	if err := s.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("buffered write lost by a failed flush")
	}
	if err := s.Flush(); err != nil { // the retry drains the preserved buffer
		t.Fatalf("retry flush: %v", err)
	}
	r, err := Recover(chip, batchNumPages, batchOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("retried flush did not make the write durable")
	}
}

// TestFailedWriteBatchAppliesNothing guards the failure contract every
// write entry shares: a failed call applies nothing. A batch stages on buffer
// copies and a single write puts the saved bytes of its shard buffer back, so
// neither loses the pids' pre-call buffered differentials — every slab is
// byte-equal to its pre-image, every page still reads its pre-call state, and
// the call can simply be retried.
func TestFailedWriteBatchAppliesNothing(t *testing.T) {
	size := batchParams().DataSize
	rewrite7 := batchPage(7, 9, size)
	// smallUpdate writes pid with one more byte flipped.
	smallUpdate := func(s *Store, shadow [][]byte, pid uint32) error {
		data := append([]byte(nil), shadow[pid]...)
		data[40] ^= 0xFF
		if err := s.WritePage(pid, data); err != nil {
			return err
		}
		shadow[pid] = data
		return nil
	}
	type slabs [][]byte
	slabsOf := func(s *Store) slabs {
		out := make(slabs, len(s.shards))
		for i := range s.shards {
			out[i] = bytes.Clone(s.shards[i].dwb.slab)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		// call makes the write under test; shadow is the expected content,
		// which call extends by the writes it got acknowledged on the way. A
		// call of several writes takes *pre anew before each.
		call func(s *Store, shadow [][]byte, pre *slabs) error
		// failRead: the injected failure is the next page read, not the next
		// program (a Case 1 write programs nothing: its base page read is all
		// that can fail).
		failRead bool
		// rotBase7: pid 7's base page has an uncorrectable sector, which the
		// write heals by overwrite and no read can serve until it has.
		rotBase7 bool
	}{
		{name: "WritePage/Case1", failRead: true, call: func(s *Store, shadow [][]byte, _ *slabs) error {
			// A write to the shard buffer that holds pid 7's differential.
			pid := uint32(8)
			for s.shardIndex(pid) != s.shardIndex(7) {
				pid++
			}
			return smallUpdate(s, shadow, pid)
		}},
		{name: "WritePage/Case3", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.WritePage(7, rewrite7) }},
		{name: "WritePage/Case2", call: func(s *Store, shadow [][]byte, pre *slabs) error {
			// Small updates are buffered (no program), each pass growing
			// every page's buffered differential, until one no longer fits
			// its shard's buffer and spills it: that write fails.
			for pass := 0; pass < 4; pass++ {
				for pid := range shadow {
					if pid == 7 {
						continue
					}
					data := append([]byte(nil), shadow[pid]...)
					for i := 0; i < 16; i++ {
						data[32+64*pass+i] ^= 0xFF
					}
					*pre = slabsOf(s)
					if err := s.WritePage(uint32(pid), data); err != nil {
						return err
					}
					shadow[pid] = data
				}
			}
			return nil
		}},
		{name: "WritePage/HealByOverwrite", rotBase7: true, call: func(s *Store, shadow [][]byte, _ *slabs) error {
			return smallUpdate(s, shadow, 7)
		}},
		{name: "WriteBatch/1", call: func(s *Store, _ [][]byte, _ *slabs) error {
			return s.WriteBatch([]ftl.PageWrite{{PID: 7, Data: rewrite7}})
		}},
		{name: "WriteBatch/n", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.WriteBatch(buildTestBatch(size)) }},
		{name: "Flush", call: func(s *Store, _ [][]byte, _ *slabs) error { return s.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := faultdev.Wrap(flash.NewChip(batchParams()))
			dev := &prefixFailDev{Device: fd, failAfter: 0, fired: true, failProgram: !tc.failRead, failRead: tc.failRead} // disarmed
			s, err := New(dev, batchNumPages, batchOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			pre := loadBatchPages(t, s)

			// A pre-call buffered differential that the call removes,
			// replaces or sweeps to flash.
			pre[7] = append([]byte(nil), pre[7]...)
			pre[7][3] ^= 0xFF
			if err := s.WritePage(7, pre[7]); err != nil {
				t.Fatal(err)
			}
			if tc.rotBase7 {
				fd.Inject(faultdev.Fault{PPN: entryOf(s, 7).base, Kind: faultdev.SectorCorrupt, Off: 256})
			}
			want := slabsOf(s)
			dev.fired = false // arm
			if err := tc.call(s, pre, &want); !errors.Is(err, errInjectedKill) {
				t.Fatalf("err = %v, want the injected device failure", err)
			}
			for i, got := range slabsOf(s) {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("shard %d: the failed call left its write buffer changed:\n got %x\nwant %x", i, got, want[i])
				}
				if n := len(diff.DecodeAll(got)); n != len(s.shards[i].dwb.index) {
					t.Errorf("shard %d: %d records in the slab, %d in the index", i, n, len(s.shards[i].dwb.index))
				}
			}
			buf := make([]byte, size)
			for pid := 0; pid < batchNumPages; pid++ {
				if tc.rotBase7 && pid == 7 {
					continue // unreadable until the retry heals it
				}
				if err := s.ReadPage(uint32(pid), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, pre[pid]) {
					t.Fatalf("pid %d: failed call left a visible change", pid)
				}
			}
			// The retry applies the whole call.
			if err := tc.call(s, pre, &want); err != nil {
				t.Fatalf("retry: %v", err)
			}
			for pid := 0; pid < batchNumPages; pid++ {
				if err := s.ReadPage(uint32(pid), buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCommitFallsOverToNeighbourChannel drives the ErrNoSpace retry of
// commit directly: on a small 2-channel device whose one shard is homed on
// channel 0, loading fresh pages fills channel 0 with fully live blocks —
// nothing to reclaim, although channel 1 still has room. A single
// WritePage and then a WriteBatch must both land on the neighbour, each
// counted in Telemetry.ChannelFallOvers.
func TestCommitFallsOverToNeighbourChannel(t *testing.T) {
	p := ftltest.SmallParams(3)
	p.PagesPerBlock = 4
	dev, err := flash.NewStriped(flash.NewChip(p), flash.NewChip(p))
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 16 // what 2 x 3 blocks of 4 pages hold above the reserve
	s, err := New(dev, numPages, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	pid := uint32(0)
	for ; s.Telemetry().ChannelFallOvers == 0; pid++ {
		if pid == numPages-2 {
			t.Fatal("loaded every page without a channel fall-over")
		}
		if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
			t.Fatalf("WritePage(%d): %v", pid, err)
		}
	}
	if free0, free1 := s.Allocator().FreeBlocksOn(0), s.Allocator().FreeBlocksOn(1); free0 != free1 {
		t.Fatalf("free blocks %d vs %d: the batch would be diverted before it could fall over", free0, free1)
	}
	batch := []ftl.PageWrite{
		{PID: pid, Data: batchPage(pid, 0, size)},
		{PID: pid + 1, Data: batchPage(pid+1, 0, size)},
	}
	if err := s.WriteBatch(batch); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if got := s.Telemetry().ChannelFallOvers; got != 2 {
		t.Fatalf("ChannelFallOvers = %d, want 2 (one WritePage, one WriteBatch)", got)
	}
	buf := make([]byte, size)
	for q := uint32(0); q < pid+2; q++ {
		if err := s.ReadPage(q, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, batchPage(q, 0, size)) {
			t.Fatalf("pid %d: wrong content after the fall-over", q)
		}
	}
}

// TestRefusedCommitRetiresPagesOfLowerChannels: a commit across two channels
// allocates channel 0's page first; when channel 1 then has no space and
// nothing to reclaim, the attempt is refused with that page allocated and
// never programmed. It must be counted obsolete, or victim selection would
// see a live page in its block until the block is erased for other reasons.
func TestRefusedCommitRetiresPagesOfLowerChannels(t *testing.T) {
	p := ftltest.SmallParams(3)
	p.PagesPerBlock = 4
	dev, err := flash.NewStriped(flash.NewChip(p), flash.NewChip(p))
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 20
	s, err := New(dev, numPages, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	var byShard [2][]uint32
	for pid := uint32(0); pid < numPages; pid++ {
		si := s.shardIndex(pid)
		byShard[si] = append(byShard[si], pid)
	}
	// Shard 0 is homed on channel 0, shard 1 on channel 1. Channel 1 gets two
	// full blocks of live pages: at its reserve, nothing to reclaim. Channel 0
	// opens its second block, so it sits at its reserve too (no diversion
	// before the locks are taken) with room in the open block.
	const on0, on1 = 5, 8
	if len(byShard[0]) < on0+1 || len(byShard[1]) < on1+1 {
		t.Fatalf("shards hold %d and %d pids, need %d and %d", len(byShard[0]), len(byShard[1]), on0+1, on1+1)
	}
	written := 0
	load := func(pids []uint32) {
		t.Helper()
		for _, pid := range pids {
			if err := s.WritePage(pid, batchPage(pid, 0, size)); err != nil {
				t.Fatalf("WritePage(%d): %v", pid, err)
			}
			written++
		}
	}
	load(byShard[0][:on0])
	load(byShard[1][:on1])
	alloc := s.Allocator()
	if got := s.Telemetry().ChannelFallOvers; got != 0 || alloc.FreeBlocksOn(0) != alloc.FreeBlocksOn(1) {
		t.Fatalf("set-up: %d fall-overs, free blocks %d and %d", got, alloc.FreeBlocksOn(0), alloc.FreeBlocksOn(1))
	}
	a, b := byShard[0][on0], byShard[1][on1]
	if err := s.WriteBatch([]ftl.PageWrite{{PID: a, Data: batchPage(a, 0, size)}, {PID: b, Data: batchPage(b, 0, size)}}); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	written += 2
	if got := s.Telemetry().ChannelFallOvers; got != 1 {
		t.Fatalf("ChannelFallOvers = %d, want 1", got)
	}
	if ca, cb := alloc.ChannelOf(entryOf(s, a).base), alloc.ChannelOf(entryOf(s, b).base); ca != 0 || cb != 0 {
		t.Fatalf("the batch landed on channels %d and %d, want both on 0", ca, cb)
	}
	// Every page handed out is either one of the store's base pages or
	// counted obsolete: the refused attempt's page is the one obsolete page.
	var handedOut, obsolete int
	for blk := 0; blk < dev.Params().NumBlocks; blk++ {
		bs := alloc.BlockStats(blk)
		handedOut += bs.Written
		obsolete += bs.Obsolete
	}
	if handedOut != written+1 || obsolete != 1 {
		t.Errorf("allocator handed out %d pages and counts %d obsolete; want %d and 1 (%d base pages and the refused attempt's)",
			handedOut, obsolete, written+1, written)
	}
	buf := make([]byte, size)
	for _, pid := range append(append([]uint32{a, b}, byShard[0][:on0]...), byShard[1][:on1]...) {
		if err := s.ReadPage(pid, buf); err != nil || !bytes.Equal(buf, batchPage(pid, 0, size)) {
			t.Fatalf("pid %d after the fall-over: err=%v", pid, err)
		}
	}
}
