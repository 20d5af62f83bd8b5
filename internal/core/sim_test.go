package core

// TestSim is the store's one simulation harness. Each subtest runs one seeded
// program through the whole API of a Store on one cell of the option matrix
// and holds it to the oracles no cell changes:
//
//   - every read returns the bytes the acknowledged writes left (the model);
//   - the crash contract at every point of the run's own mutation log (every
//     simStride-th point in a build without pdlinvariants): flash cut there,
//     a program not begun or torn (early: half its data, no spare; or late:
//     all but its header checksum), an erase not begun or completed, recovers
//     to a state of the serial re-run of the same calls (every batch as its
//     writes one by one) around the call the point fell in — one of them on
//     one channel, and page by page one of them on a striped device, whose
//     other channel also holds what that call did there that did not follow
//     from the point's success;
//   - recovery is exact: every store recovered from an image, before any
//     read, counts the header checksum failures, uncorrectable pages and
//     corrected bits predict finds in that image, and reads back, every pid
//     without an error, the version predict finds: the newest of its
//     surviving base pages and of the records whose named base survives, a
//     page surviving if its header checksum holds and its data corrects;
//   - recovery is read-only and a pure function of flash: the store recovered
//     from every image adopts exactly the pages flash holds, counts every one
//     its mapping does not reach obsolete, and leaves every erased page free,
//     open or in a block a collection can pick; after the last flush and at
//     the log's middle point the census of the image (takeCensus) at one
//     worker, one per block and GOMAXPROCS agrees field by field, the store
//     Recover builds with the cell's options is held to the oracles above,
//     none of it costs a program or an erase, and the store recovered at the
//     middle point carries on, unless a page was lost, and restarts once
//     more;
//   - after the last flush recovery reads back every acknowledged write, and
//     the pool has written back its caller's bytes;
//   - on a deterministic cell (synchronous collection) the store with its RAM
//     caches and a DiffCacheOff twin given the same program read the same
//     bytes behind the same programs, erases, base and GC reads, and every
//     read the caches saved is a counted hit;
//   - Telemetry's read attribution sums to the device's reads;
//   - no differential record in a shard buffer or on a differential page the
//     store programmed is larger than its MaxDifferentialSize;
//   - at every quiescent point a valid-page bitmap the harness keeps from the
//     programs and erases it saw (the validbitmap of the wiscsee FTL
//     simulator) agrees with the allocator's written - obsolete per block, the
//     mapping table and the valid differential counts, no erase ever takes a
//     valid page, and no spare area is programmed;
//   - at every quiescent point and after every recovery, each valid
//     differential page's dead bytes, and each block's, are a recount of the
//     records the harness saw programmed there that are not their pid's
//     newest differential (deadbytes);
//   - one program in three plants a faultdev fault (a bit flip, a corrupt
//     sector, a corrupt spare or a lost page, on a base or a differential
//     page) and tears a batch of whole-page writes; every read during the run
//     returns the model's bytes or a typed *ftl.PageError, and after the
//     fault flash holds no version no write carried. A program that plants
//     faults also runs once without them, held to the exact oracles above.
//
// A failing program is shrunk by dropping steps, each candidate enumerated
// again, and printed with its crash point and the one line that runs its
// subtest again.
//
// What the oracles catch, measured by taking one check out of a copy of the
// package and running the plain go test -run TestSim ./internal/core/: a
// seed that fails, on a cell with synchronous collection where one does, and
// how many of the 520 seeds fail (cells with background collection vary from
// run to run, so a count may move by one or two). A check no seed catches
// names the test that does.
//
//	recover.go (scanBlockRange, takeCensus, census.useless)
//	  a header checksum failure neither counted nor quarantined emu-small-shards=ch-sync-cache=off-store/seed=1    501
//	  a header checksum failure counted, the page adopted       emu-small-shards=ch-sync-cache=off-store/seed=1    461
//	  a free-looking page with programmed data taken as clean   emu-small-shards=ch-sync-cache=off-store/seed=1    514
//	  a torn page not counted obsolete                          emu-small-shards=ch-sync-cache=off-store/seed=1    516
//	  an uncorrectable base page counted, and adopted           file-big-shards=4-sync-cache=default-store/seed=6   29
//	  an uncorrectable differential page counted, its records
//	  adopted                                                   striped-big-shards=ch-sync-cache=off-store/seed=6    7
//	  a record adopted onto the pid's newest base, whatever
//	  base it names (Figure 11's replay)                        emu-small-shards=ch-sync-cache=off-store/seed=9     32
//	  a record's distance stored from the pid's newest base
//	  page, not from the base it names                          emu-small-shards=ch-sync-cache=off-store/seed=3     30
//	  each scan worker keeps only its newest record per pid     file-big-shards=4-sync-cache=7-store/seed=18         1
//	  a record older than the pid's newest base page adopted    emu-small-shards=ch-sync-cache=off-store/seed=1    515
//	  the oldest base page wins                                 emu-small-shards=ch-sync-cache=off-store/seed=1    520
//	  new stamps above base pages only, not differential pages  emu-small-shards=ch-sync-cache=off-store/seed=4     25
//	  a record of a pid past the store's pages kept             none: TestRecoverDropsPIDsPastTheStore
//	read.go (readOnce, applyFromPage)
//	  an uncorrectable base page with no differential served    file-small-shards=ch-sync-cache=1-store/seed=6       3
//	  a heal applied whether or not the record covers the
//	  damage                                                    emu-small-shards=ch-sync-cache=off-store/seed=9     11
//	  an uncorrectable differential page merged                 file-small-shards=ch-sync-cache=1-store/seed=18      4
//	  a base image with uncorrectable sectors retained          none: TestWriteFromRetainedImageOverRottenBase
//	  a record merged whatever stamp the mapping names          none: TestApplyFromPageChecksTimeStamp
//	  a heal left transient, never committed                    none: TestIntegrityHealFromFlushedDiffIsDurable
//	integrity.go (reads and relocation; the scan checks ECC itself)
//	  verifyData reports no uncorrectable sector                emu-small-shards=ch-sync-cache=off-store/seed=9     28
//	batch.go
//	  the pages of a failed program left counted live           emu-small-shards=4-bg-cache=8-pool/seed=15           1

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdl/internal/buffer"
	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
	"pdl/internal/flash/faultdev"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// simCell is one cell of the matrix: a value of every axis.
type simCell struct {
	backend string // "emu", "file" (filedev under t.TempDir()) or "striped" (two emulated channels)
	big     bool   // 16 blocks per channel, the allocator's stream gate, else fewer
	shards  int    // Options.Shards: 0 (one per channel), 4, or 1 on the striped device
	bg      bool   // Options.BackgroundGC
	cache   int    // Options.DiffCachePages: DiffCacheOff, 1, 7 (no base-image window), 8 (a one-page window beside eight held images) or 0 (the default)
	pool    bool   // the caller is a buffer.Pool, else the Store itself
	short   bool   // in the -short subset
}

// simCells is the matrix: every pair of axis values meets in some cell, and
// the short cells hold every value at least once.
var simCells = []simCell{
	{"emu", false, 0, false, DiffCacheOff, false, true},
	{"emu", false, 4, true, 1, true, false},
	{"emu", false, 0, false, 7, true, false},
	{"emu", false, 4, false, 0, false, false},
	{"emu", true, 0, true, 0, false, true},
	{"emu", true, 4, false, DiffCacheOff, true, false},
	{"emu", true, 0, false, 1, false, false},
	{"emu", true, 4, true, 7, false, false},
	{"file", false, 0, true, DiffCacheOff, true, false},
	{"file", false, 4, false, 0, true, true},
	{"file", false, 0, false, 1, false, false},
	{"file", true, 4, false, 7, false, true},
	{"file", true, 0, true, 1, true, false},
	{"file", true, 4, false, 0, false, false},
	{"striped", false, 0, false, 0, true, false},
	{"striped", false, 1, true, DiffCacheOff, false, true},
	{"striped", false, 4, false, 1, false, false},
	{"striped", false, 1, false, 7, true, false},
	{"striped", true, 0, false, DiffCacheOff, false, false},
	{"striped", true, 1, false, 0, false, false},
	{"striped", true, 4, true, 0, true, false},
	{"striped", true, 1, true, 1, true, true},
	{"striped", true, 0, true, 7, false, false},
	{"emu", false, 4, true, 8, true, true},
	{"file", true, 0, false, 8, false, false},
	{"striped", false, 1, false, 8, true, false},
}

// simSeeds is how many programs every cell runs.
const simSeeds = 20

// simStride is how far apart the crash points of one run lie: every point
// under -tags pdlinvariants, else every simStride-th from the seed's residue,
// which keeps a plain go test of the package within five seconds.
func simStride() int {
	if invariantsEnabled {
		return 1
	}
	return 24
}

func TestSim(t *testing.T) {
	for _, short := range []bool{false, true} {
		values := map[string]bool{}
		for _, c := range simCells {
			if c.short || !short {
				for _, v := range strings.Split(c.String(), "-") {
					values[v] = true
				}
			}
		}
		if len(values) != 3+2+3+2+5+2 {
			t.Fatalf("short=%v: the cells hold %d axis values, not all 17: %v", short, len(values), values)
		}
	}
	for _, c := range simCells {
		if testing.Short() && !c.short {
			continue
		}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			images := 0
			for seed := int64(1); seed <= simSeeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					prog := c.program(seed)
					n, err := c.simulate(t, prog)
					images += n
					if err != nil {
						prog, err = shrink(prog, err, func(p simProg) error { _, err := c.simulate(t, p); return err })
						t.Fatalf("%v\nreproduce: go test -run 'TestSim/%s/seed=%d$' ./internal/core/\nshrunk to:\n%v", err, c, seed, prog)
					}
				})
			}
			t.Logf("recovered %d crash states (stride %d)", images, simStride())
		})
	}
}

func (c simCell) String() string {
	shards := "ch"
	if c.shards > 0 {
		shards = fmt.Sprint(c.shards)
	}
	cache := map[int]string{DiffCacheOff: "off", 0: "default", 1: "1", 7: "7", 8: "8"}[c.cache]
	return fmt.Sprintf("%s-%s-shards=%s-%s-cache=%s-%s", c.backend, either(c.big, "big", "small"), shards,
		either(c.bg, "bg", "sync"), cache, either(c.pool, "pool", "store"))
}

func either(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

func (c simCell) nchan() int {
	if c.backend == "striped" {
		return 2
	}
	return 1
}

// channel returns the geometry of one channel: six blocks of 16 pages, or
// 16 blocks of 4, so that a hundred steps collect blocks of every stream.
func (c simCell) channel() flash.Params {
	if !c.big {
		return ftltest.SmallParams(6)
	}
	p := ftltest.SmallParams(16)
	p.PagesPerBlock = 4
	return p
}

// numPages fills three eighths of the device.
func (c simCell) numPages() int {
	if c.big {
		return 24 * c.nchan()
	}
	return 36 * c.nchan()
}

func (c simCell) options(maxDiff int) Options {
	return Options{MaxDifferentialSize: maxDiff, Shards: c.shards, BackgroundGC: c.bg, DiffCachePages: c.cache}
}

// stepKind is what one step of a program does. Writes, reads and retains
// reach the store through the cell's caller.
type stepKind uint8

const (
	stepWrite     stepKind = iota // one page: WritePage, or Get, change and MarkDirty through the pool
	stepUpdate                    // the paper's update: read the page, change it, write it back
	stepBatch                     // several pages: WriteBatch, or one change each through the pool
	stepRead                      // ReadPage, or Get
	stepReadBatch                 // ReadBatch, or a Get each
	stepRetain                    // RetainBase, or MarkDirty of an unchanged frame
	stepFlush                     // Flush, or the pool's Flush
	stepCollect                   // one CollectOne per channel, then the quiescent oracles
	stepTear                      // channel ch tears page nth of its next program of as many pages, and lives on
	stepFault                     // a faultdev fault on pid's base or differential page
)

var stepNames = [...]string{"write", "update", "batch", "read", "readbatch", "retain", "flush", "collect", "tear", "fault"}

// simMix is the mix of a program's body, a twentieth each.
var simMix = [20]stepKind{stepWrite, stepWrite, stepWrite, stepWrite, stepWrite, stepUpdate, stepUpdate,
	stepUpdate, stepUpdate, stepBatch, stepBatch, stepReadBatch, stepRead, stepRead, stepRead, stepRetain,
	stepFlush, stepFlush, stepCollect, stepCollect}

type simStep struct {
	kind    stepKind
	pids    []uint32
	edits   []simEdit // one per pid of a write
	ch, nth int       // stepTear
	fault   faultdev.Fault
	onDiff  bool // stepFault: the differential page, else the base page
	mid     bool // stepFault: between the read and the write of the update that follows
}

func (st simStep) String() string {
	switch st.kind {
	case stepTear:
		return fmt.Sprintf("tear page #%d of channel %d's next program of as many pages", st.nth, st.ch)
	case stepFault:
		return fmt.Sprintf("fault %v at %s byte %d of pid %d's %s page (mid-update: %v)", st.fault.Kind,
			either(st.fault.Kind == faultdev.SpareCorrupt, "spare", "data"), st.fault.Off, st.pids[0],
			either(st.onDiff, "differential (or the next pid's with one)", "base"), st.mid)
	}
	return fmt.Sprintf("%s %v %v", stepNames[st.kind], st.pids, st.edits)
}

// simEdit overwrites n bytes from off with a run drawn from seed.
type simEdit struct {
	off, n int
	seed   int64
}

func (e simEdit) String() string { return fmt.Sprintf("%d+%d", e.off, e.n) }

// apply returns page (zeros for nil) with e applied.
func (e simEdit) apply(page []byte, size int) []byte {
	out := make([]byte, size)
	copy(out, page)
	x := uint64(e.seed)*0x9E3779B97F4A7C15 | 1
	for i := e.off; i < e.off+e.n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// simProg is one program: steps[:load] write every page whole and flush.
type simProg struct {
	seed    int64
	maxDiff int
	load    int
	steps   []simStep
}

func (p simProg) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MaxDifferentialSize %d; steps 0-%d load every page and flush\n", p.maxDiff, p.load-1)
	for i, st := range p.steps[p.load:] {
		fmt.Fprintf(&b, "%4d %v\n", p.load+i, st)
	}
	return b.String()
}

// program draws the cell's program of seed, no other cell's: the load, a
// hundred steps on a hot set and the rest of the pages, with writes of every
// size (Case 1, the Case 2 spill as the buffer fills, Case 3 by size), and
// for one seed in three a fault the run goes on through.
func (c simCell) program(seed int64) simProg {
	rng := rand.New(rand.NewSource(seed*int64(len(simCells)) + int64(slices.Index(simCells, c))))
	n, size := c.numPages(), c.channel().DataSize
	p := simProg{seed: seed, maxDiff: []int{128, 0}[rng.Intn(2)]}
	edit := func() simEdit {
		w := size
		switch r := rng.Intn(20); {
		case r < 8:
			w = 4 + rng.Intn(12)
		case r < 11:
			w = 40 + rng.Intn(60)
		case r < 17:
			w = 280 + rng.Intn(180)
		}
		return simEdit{off: rng.Intn(size - w + 1), n: w, seed: rng.Int63()}
	}
	for pid := range n {
		p.steps = append(p.steps, simStep{kind: stepWrite, pids: []uint32{uint32(pid)}, edits: []simEdit{{n: size, seed: rng.Int63()}}})
	}
	p.steps = append(p.steps, simStep{kind: stepFlush})
	p.load = len(p.steps)
	hot := rng.Perm(n)[:4]
	pid := func() uint32 {
		if rng.Intn(2) == 0 {
			return uint32(hot[rng.Intn(len(hot))])
		}
		return uint32(rng.Intn(n))
	}
	for range 100 {
		st := simStep{kind: simMix[rng.Intn(len(simMix))], pids: []uint32{pid()}}
		if st.kind == stepBatch || st.kind == stepReadBatch {
			for range 1 + rng.Intn(5) {
				st.pids = append(st.pids, pid())
			}
		}
		if st.kind <= stepBatch {
			for range st.pids {
				st.edits = append(st.edits, edit())
			}
		}
		p.steps = append(p.steps, st)
	}
	if seed%3 != 0 {
		return p
	}
	// insert puts sts before a drawn body step that programs or erases, a
	// batch one time in three.
	insert := func(sts ...simStep) {
		var at, batches []int
		for i := p.load; i < len(p.steps); i++ {
			switch p.steps[i].kind {
			case stepBatch:
				batches = append(batches, i)
				fallthrough
			case stepWrite, stepUpdate, stepFlush, stepCollect:
				at = append(at, i)
			}
		}
		if len(batches) > 0 && rng.Intn(3) == 0 {
			at = batches
		}
		i := len(p.steps)
		if len(at) > 0 {
			i = at[rng.Intn(len(at))]
		}
		p.steps = slices.Insert(p.steps, i, sts...)
	}
	// A batch of whole-page writes torn at its nth page: the pages before it
	// land and the store acknowledges none of them. Each page then takes a
	// small write, a differential naming the base page the store kept, and
	// the store flushes, so recovery must pass over the newer base pages the
	// batch landed.
	tear := simStep{kind: stepTear, ch: rng.Intn(c.nchan()), nth: 1 + rng.Intn(3)}
	batch := simStep{kind: stepBatch}
	var after []simStep
	for range 3 {
		pid := pid()
		batch.pids = append(batch.pids, pid)
		batch.edits = append(batch.edits, simEdit{n: size, seed: rng.Int63()})
		after = append(after, simStep{kind: stepUpdate, pids: []uint32{pid}, edits: []simEdit{{off: rng.Intn(size - 8), n: 8, seed: rng.Int63()}}})
	}
	insert(slices.Concat([]simStep{tear, batch}, after, []simStep{{kind: stepFlush}})...)
	kinds := []faultdev.Kind{faultdev.BitFlip, faultdev.SectorCorrupt, faultdev.PageLoss, faultdev.SpareCorrupt}
	f := simStep{kind: stepFault, pids: []uint32{pid()}, onDiff: rng.Intn(3) == 0}
	f.fault.Kind = kinds[rng.Intn(len(kinds))]
	switch f.fault.Kind {
	case faultdev.BitFlip:
		f.fault.Off, f.fault.Bit = rng.Intn(size), uint8(rng.Intn(8))
	case faultdev.SectorCorrupt:
		f.fault.Off = rng.Intn(size/ecc.SectorSize) * ecc.SectorSize
	case faultdev.SpareCorrupt:
		// Three bytes from anywhere in the header or the integrity trailer:
		// the type, the pid, the time stamp, the ECC or the checksum.
		f.fault.Off = rng.Intn(ftl.HeaderSpareBytes + ftl.IntegritySpareBytes(size))
	}
	if !f.onDiff && rng.Intn(2) == 0 {
		// Between a read and the write that reuses its retained image.
		f.mid = true
		insert(f, simStep{kind: stepUpdate, pids: f.pids, edits: []simEdit{edit()}})
	} else {
		insert(f)
	}
	return p
}

// shrink drops runs of body steps from a failing program for as long as it
// keeps failing, at most 200 re-runs, and returns the smallest program found
// with its failure.
func shrink(p simProg, err error, fails func(simProg) error) (simProg, error) {
	runs := 0
	for chunk := (len(p.steps) - p.load) / 2; chunk >= 1 && runs < 200; chunk /= 2 {
		for i := p.load; i+chunk <= len(p.steps) && runs < 200; runs++ {
			q := p
			q.steps = slices.Concat(p.steps[:i], p.steps[i+chunk:])
			if e := fails(q); e != nil {
				p, err = q, e
			} else {
				i += chunk
			}
		}
	}
	return p, err
}

// simulate runs prog once on the cell and recovers the crash states cut from
// the run's mutation log. A program that plants faults first runs once
// without them, held to the oracles a fault weakens. It returns the first
// oracle it breaks and how many crash states it recovered.
func (c simCell) simulate(t *testing.T, prog simProg) (int, error) {
	opts := c.options(prog.maxDiff)
	clean := slices.DeleteFunc(slices.Clone(prog.steps), func(st simStep) bool { return st.kind >= stepTear })
	if len(clean) < len(prog.steps) {
		r, err := c.start(t, opts)
		if err != nil {
			return 0, err
		}
		err = r.whole(t, clean)
		r.close()
		if err != nil {
			return 0, fmt.Errorf("the program without its faults: %w", err)
		}
	}
	r, err := c.start(t, opts)
	if err != nil {
		return 0, err
	}
	defer r.close()
	if err := r.whole(t, prog.steps); err != nil {
		return 0, err
	}
	return c.crashes(t, prog, r)
}

// whole runs steps, with the DiffCacheOff twin on a deterministic cell with
// caches unless a fault was planted, and holds the store to its oracles as it
// goes and after its last flush.
func (r *simRun) whole(t *testing.T, steps []simStep) error {
	if err := r.run(steps); err != nil {
		return err
	}
	if c := r.c; !r.m.faulted && !c.bg && c.cache != DiffCacheOff {
		off := r.opts
		off.DiffCachePages = DiffCacheOff
		twin, err := c.start(t, off)
		if err != nil {
			return err
		}
		defer twin.close()
		if err := twin.run(steps); err != nil {
			return fmt.Errorf("the DiffCacheOff twin: %w", err)
		}
		if err := savedReadsOnly(r, twin); err != nil {
			return err
		}
	}
	if err := r.finish(); err != nil {
		return err
	}
	rec, err := r.recovered()
	if err != nil {
		return err
	}
	defer rec.Close()
	got, err := readsBack(rec, r.dev, r.m.versions)
	switch {
	case err != nil:
		return fmt.Errorf("after the last flush %w", err)
	case r.m.faulted:
		return carried(got, r.m.versions)
	case !slices.EqualFunc(got, r.m.pages, bytes.Equal):
		return fmt.Errorf("recovery after the last flush did not read back every write")
	}
	return nil
}

// crashes recovers the crash states cut from r's finished mutation log at
// every simStride-th point and at the middle one: flash holds the log up to
// point k, and mutation k is torn or not begun (an erase: completed or not
// begun). On a striped device every other channel also holds the rest of k's
// call, where the process would die, less what began after k landed: a
// channel that loses power fails its mutation, so the store never issues
// what follows from its success. What recovery reads back must be what
// predict reads in the image, and a state of the serial re-run around k's
// call, or after a fault contents some write carried. At the middle point
// four recoveries must agree, and the store recovered from a crash carries
// on. It returns how many states it recovered.
func (c simCell) crashes(t *testing.T, prog simProg, r *simRun) (int, error) {
	muts, trace, faulted := r.log.muts, r.m.trace, r.m.faulted
	var all, points []int
	for k, e := range muts {
		if e.kind != mutFault {
			all = append(all, k)
		}
	}
	mid, stride := all[len(all)/2], simStride()
	around := make([]bool, len(trace))
	for i, k := range all {
		if k == mid || i%stride == int(prog.seed)%stride {
			points = append(points, k)
			around[muts[k].call] = true
		}
	}
	var states map[int][][][]byte
	if !faulted {
		var err error
		if states, err = c.replay(t, prog.maxDiff, trace, around); err != nil {
			return 0, err
		}
	}
	shadow, err := c.emulated().devices(t, r.opts)
	if err != nil {
		return 0, err
	}
	defer shadow.close()
	n, done := 0, 0
	for _, k := range points {
		if err := shadow.land(muts[done:k]); err != nil {
			return n, err
		}
		done = k
		e := muts[k]
		held := func(s *Store, dev flash.Device) ([][]byte, error) {
			got, err := readsBack(s, dev, r.m.versions)
			switch {
			case err != nil:
			case faulted:
				err = carried(got, r.m.versions)
			default:
				err = c.crashed(got, states[e.call])
			}
			return got, err
		}
		others := make([][]simMut, c.nchan()) // the rest of k's call on the other channels
		for _, o := range muts[k+1:] {
			if o.call != e.call {
				break
			}
			if o.ch != e.ch && o.kind != mutFault && o.began <= k {
				others[o.ch] = append(others[o.ch], o)
			}
		}
		var last simMapping // what the image not begun mapped, read back and held
		for _, torn := range []bool{false, true} {
			over := slices.Clone(others)
			over[e.ch] = e.ended(torn)
			var err error
			if k == mid && torn {
				err = c.carryOn(t, prog, r, muts[:k], over, held)
			} else {
				err = shadow.image(over, &last, held)
			}
			n++
			if err != nil {
				op := trace[e.call]
				step := fmt.Sprintf("step %d", op.step)
				if op.step < 0 {
					step = "the closing flush"
				}
				return n, fmt.Errorf("%w\ncrash point: log entry %d of %d, %v, %s, in call %d (%s) of %s",
					err, k, len(muts), e, either(!torn, "not begun", either(e.kind == mutErase, "completed", "torn")), e.call, stepNames[op.kind], step)
			}
		}
	}
	return n, nil
}

// carryOn recovers the crash image of muts with over laid on each channel,
// made on fresh emulated chips, four times; holds what it reads back to held;
// and, unless r planted a lost page, runs some more of prog's steps on the
// recovered store, whose writes must survive one more restart, which meets
// every quarantined page again.
func (c simCell) carryOn(t *testing.T, prog simProg, r *simRun, muts []simMut, over [][]simMut, held func(*Store, flash.Device) ([][]byte, error)) error {
	img, err := c.emulated().devices(t, r.opts)
	if err != nil {
		return err
	}
	defer img.close()
	err = img.land(muts)
	for _, o := range over {
		err = errors.Join(err, img.land(o))
	}
	if err != nil {
		return err
	}
	rec, err := img.recovered()
	if err != nil {
		return err
	}
	got, err := held(rec, img.dev)
	img.attach(rec, false)
	img.trusted = false
	lost := slices.ContainsFunc(prog.steps, func(st simStep) bool { return st.kind == stepFault && st.fault.Kind == faultdev.PageLoss })
	if err != nil || lost {
		return err // faultdev's lost page reads erased over programmed cells: a recovered store may reprogram it
	}
	copy(img.m.pages, got)
	var tail []simStep
	for _, st := range prog.steps[prog.load:] {
		if st.kind <= stepCollect && len(tail) < 16 {
			tail = append(tail, st)
		}
	}
	if err := img.run(tail); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	img.m.Flush()
	rec.Close()
	again, err := Recover(img.dev, c.numPages(), Options{MaxDifferentialSize: prog.maxDiff})
	if err != nil {
		return err
	}
	if got, err = readsBack(again, img.dev, img.m.versions); err != nil {
		return fmt.Errorf("restarting the recovered store: %w", err)
	}
	for pid := range got {
		img.m.read(uint32(pid), got[pid], nil)
	}
	if img.m.err != nil {
		return fmt.Errorf("restarting the recovered store: %w", img.m.err)
	}
	return nil
}

// carried holds what recovery read back after a fault, which readsBack found
// on flash: each page never written or contents some write carried.
func carried(got [][]byte, versions [][][]byte) error {
	for pid, page := range got {
		if page != nil && !slices.ContainsFunc(versions[pid], func(v []byte) bool { return bytes.Equal(v, page) }) {
			return fmt.Errorf("after the fault flash holds pid %d as bytes no write carried", pid)
		}
	}
	return nil
}

// simPrediction is what recovery must rebuild from one flash image: every
// pid's version and the integrity counters of its scan.
type simPrediction struct {
	pages                               [][]byte // per pid; nil: never written
	checksums, uncorrectable, corrected int64
}

// predict reads the flash image dev as the recovery scan must judge it, with
// nothing of the store's but the wire forms: a programmed page survives if
// its header checksum holds and its data corrects under its ECC, and a lost
// page reads erased. A pid's version is the newest of its surviving base
// pages and of the records on surviving differential pages whose named base
// survives, applied to that base. Two survivors with one pid's newest stamp
// must hold one content.
func predict(dev flash.Device, numPages int) (*simPrediction, error) {
	p := dev.Params()
	pr := &simPrediction{pages: make([][]byte, numPages)}
	newest := make([]uint64, numPages)
	offer := func(pid uint32, ts uint64, page []byte) error {
		switch cur := pr.pages[pid]; {
		case cur == nil || ts > newest[pid]:
			pr.pages[pid], newest[pid] = page, ts
		case ts == newest[pid] && !bytes.Equal(cur, page):
			return fmt.Errorf("two surviving versions of pid %d carry time stamp %d", pid, ts)
		}
		return nil
	}
	bases := map[pageStamp][]byte{}
	var recs [][]byte
	for ppn := range flash.PPN(p.NumPages()) {
		data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
		if err := dev.Read(ppn, data, spare); err != nil {
			return nil, err
		}
		h := ftl.DecodeHeader(spare)
		switch {
		case h.Type == ftl.TypeFree:
			continue
		case !ftl.VerifyHeaderChecksum(spare, p.DataSize):
			pr.checksums++
			continue
		case h.Type != ftl.TypeDiff && (h.Type != ftl.TypeBase || int(h.PID) >= numPages):
			continue
		}
		n, bad, err := ecc.CorrectPageSectors(data, ftl.SpareECC(spare, p.DataSize))
		if err != nil {
			return nil, err
		}
		pr.corrected += int64(n)
		switch {
		case len(bad) > 0:
			pr.uncorrectable++
		case h.Type == ftl.TypeDiff:
			for rec := range diff.Records(data) {
				recs = append(recs, rec)
			}
		default:
			bases[pageStamp{h.PID, h.TS}] = data
			if err := offer(h.PID, h.TS, data); err != nil {
				return nil, err
			}
		}
	}
	for _, rec := range recs {
		pid, ts := diff.RecordKey(rec)
		base, ok := bases[pageStamp{pid, diff.RecordBase(rec)}]
		if int(pid) >= numPages || !ok {
			continue
		}
		page := bytes.Clone(base)
		if err := diff.ApplyRecord(rec, page); err != nil {
			return nil, err
		}
		if err := offer(pid, ts, page); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// readsBack holds s, recovered from dev and not read since, to predict's
// account of dev: the integrity counters its scan raised, and every pid
// read back as the version predicted. Recovery adopts only pages that
// verify, so no read may fail. It returns what it read.
func readsBack(s *Store, dev flash.Device, versions [][][]byte) ([][]byte, error) {
	pr, err := predict(dev, s.numPages)
	if err != nil {
		return nil, err
	}
	if tel := s.Telemetry(); tel.HeaderChecksumFailures != pr.checksums || tel.UnrecoverablePages != pr.uncorrectable || tel.EccCorrectedBits != pr.corrected {
		return nil, fmt.Errorf("recovery counted %d header checksum failures, %d uncorrectable pages and %d corrected bits, flash holds %d, %d and %d",
			tel.HeaderChecksumFailures, tel.UnrecoverablePages, tel.EccCorrectedBits, pr.checksums, pr.uncorrectable, pr.corrected)
	}
	got, errs := pagesOf(s)
	for pid := range got {
		if errs[pid] != nil || !bytes.Equal(got[pid], pr.pages[pid]) {
			return nil, fmt.Errorf("recovery read back pid %d as %s (%v), flash holds %s",
				pid, versionOf(got[pid], versions[pid]), errs[pid], versionOf(pr.pages[pid], versions[pid]))
		}
	}
	return got, nil
}

// versionOf names page among the versions of its pid.
func versionOf(page []byte, versions [][]byte) string {
	if page == nil {
		return "nothing"
	}
	if i := slices.IndexFunc(versions, func(v []byte) bool { return bytes.Equal(v, page) }); i >= 0 {
		return fmt.Sprintf("version %d of %d", i+1, len(versions))
	}
	return "bytes no write carried"
}

// crashed holds got, what recovery read back after the crash, to the states
// of the serial re-run around the crash: one of them on one channel, and page
// by page one of them on a striped device, whose channels are cut at
// different points.
func (c simCell) crashed(got [][]byte, states [][][]byte) error {
	for pid := range got {
		if !slices.ContainsFunc(states, func(st [][]byte) bool { return bytes.Equal(st[pid], got[pid]) }) {
			return fmt.Errorf("recovery read back pid %d with its content in none of the %d states of the serial re-run around the crash", pid, len(states))
		}
	}
	if c.nchan() == 1 && !slices.ContainsFunc(states, func(st [][]byte) bool { return slices.EqualFunc(st, got, bytes.Equal) }) {
		return fmt.Errorf("recovery read back a mix of the %d states of the serial re-run around the crash, and none of them", len(states))
	}
	return nil
}

// replay re-runs trace serially on a store over an emulated copy of the
// cell's device, with synchronous collection — each batch as its writes one
// by one, each flush of a call around marks shard by shard — and returns,
// per call around marks, what recovery reads back from that image before the
// call, inside it and after it.
func (c simCell) replay(t *testing.T, maxDiff int, trace []simOp, around []bool) (map[int][][][]byte, error) {
	opts := Options{MaxDifferentialSize: maxDiff, Shards: c.shards, DiffCachePages: DiffCacheOff}
	if opts.Shards == 0 {
		opts.Shards = c.nchan()
	}
	ref, err := simCell{backend: c.emulated().backend, big: c.big}.start(t, opts)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	s := ref.s
	states := map[int][][][]byte{}
	var last [][]byte // the state after the previous call, when it was around
	var sts [][][]byte
	capture := func() error {
		rec, err := Recover(ref.dev, c.numPages(), opts)
		if err != nil {
			return err
		}
		got, errs := pagesOf(rec)
		sts = append(sts, got)
		return errors.Join(errs...)
	}
	for i, op := range trace {
		if !around[i] {
			last = nil
			switch op.kind {
			case stepWrite, stepBatch:
				for _, w := range op.writes {
					err = errors.Join(err, s.WritePage(w.PID, w.Data))
				}
			case stepFlush:
				err = s.Flush()
			}
		} else {
			sts = nil
			if last != nil {
				sts = append(sts, last)
			} else {
				err = capture()
			}
			switch op.kind {
			case stepWrite, stepBatch:
				for _, w := range op.writes {
					err = errors.Join(err, s.WritePage(w.PID, w.Data), capture())
				}
			case stepFlush:
				for sh := range s.shards {
					if !s.shards[sh].dwb.empty() {
						err = errors.Join(err, flushShard(s, sh), capture())
					}
				}
			}
			states[i], last = sts, sts[len(sts)-1]
		}
		if err != nil {
			return nil, fmt.Errorf("the serial re-run, call %d: %w", i, err)
		}
	}
	return states, nil
}

// flushShard is Flush of shard i alone: Flush programs every non-empty shard
// in one device batch, in shard order, and this is one step of that order.
func flushShard(s *Store, i int) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ops := []pendingOp{s.snapshotSpill(&sh.dwb, i, s.nextTS(), s.homeChannel(i))}
	defer s.recycleSpills(ops)
	if err := s.commit(ops); err != nil {
		return err
	}
	sh.dwb.clear()
	return nil
}

// pagesOf reads every logical page of s: nil for a page never written, and
// errs[pid] for a read that failed otherwise.
func pagesOf(s *Store) (pages [][]byte, errs []error) {
	pages, errs = make([][]byte, s.numPages), make([]error, s.numPages)
	for pid := range pages {
		buf := make([]byte, s.PageSize())
		switch err := s.ReadPage(uint32(pid), buf); {
		case err == nil:
			pages[pid] = buf
		case !errors.Is(err, ftl.ErrNotWritten):
			errs[pid] = err
		}
	}
	return pages, errs
}

// adopted holds a recovered store's allocator to the flash under it, whose
// programmed pages, a torn one included, are written: a block is free iff
// none of its pages is, and written with every page that is, and its pages
// that are not obsolete are the pages the mapping reaches.
func adopted(s *Store, written []bool) error {
	p := s.params
	mapped := make([]int, p.NumBlocks)
	for _, e := range s.mt.ents {
		if e.base != flash.NilPPN {
			mapped[p.BlockOf(e.base)]++
		}
	}
	for ppn := range s.mt.vdct {
		mapped[p.BlockOf(ppn)]++
	}
	for blk := range p.NumBlocks {
		n := 0
		for i := range p.PagesPerBlock {
			if written[p.PPNOf(blk, i)] {
				n++
			}
		}
		if bs := s.alloc.BlockStats(blk); bs.Written != n || bs.Free != (n == 0) || bs.Written-bs.Obsolete != mapped[blk] {
			return fmt.Errorf("recovery adopted block %d as %+v, flash holds %d programmed pages in it, %d of them mapped", blk, bs, n, mapped[blk])
		}
	}
	return nil
}

// programmed reads which pages of dev are not erased.
func programmed(dev flash.Device) ([]bool, error) {
	p := dev.Params()
	data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	written := make([]bool, p.NumPages())
	for ppn := range written {
		if err := dev.Read(flash.PPN(ppn), data, spare); err != nil {
			return nil, err
		}
		written[ppn] = !allErased(data) || !allErased(spare)
	}
	return written, nil
}

// unstranded holds a recovered store's allocator to the bitmap: every page
// the bitmap has erased lies in a free block, an open one, or a full block a
// collection can pick, so the store can write to it again.
func unstranded(s *Store, b *simBitmap) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ppn, w := range b.written {
		blk := b.p.BlockOf(flash.PPN(ppn))
		if bs := s.alloc.BlockStats(blk); !w && !bs.Free && !bs.Active && bs.Reclaimable == 0 {
			return fmt.Errorf("erased page %d is stranded in block %d, %+v, which no collection picks", ppn, blk, bs)
		}
	}
	return nil
}

// simRun is one run of a program on a fresh device of the cell.
type simRun struct {
	c       simCell
	opts    Options
	dev     flash.Device       // what the store is opened on
	bits    *simBitmap         // what the harness saw reach flash
	log     *simLog            // the same, in order
	chans   []*simChan         // per channel, under the fault overlay
	fds     []*faultdev.Device // per channel
	s       *Store             // nil until a store is opened on dev
	m       *simModel
	pool    *buffer.Pool // the caller, or nil for the Store itself
	app     [][]byte     // what the pool's caller wrote to each page
	pending *simStep     // a fault for the update that follows
	trusted bool         // the bitmap follows the store: no crash, fault or recovery since it opened
	reads0  int64        // the device reads that are not the store's
}

// start opens a store of the cell on a fresh device.
func (c simCell) start(t *testing.T, opts Options) (*simRun, error) {
	r, err := c.devices(t, opts)
	if err != nil {
		return nil, err
	}
	s, err := New(r.dev, c.numPages(), opts)
	if err != nil {
		return nil, errors.Join(err, r.dev.Close())
	}
	r.attach(s, c.pool)
	return r, nil
}

// emulated is the cell on emulated chips, where crash images are made and
// the serial re-run runs.
func (c simCell) emulated() simCell {
	if c.backend == "file" {
		c.backend = "emu"
	}
	return c
}

// devices builds a run of the cell on a fresh device with no store open on
// it: per channel the backend under a simChan under a faultdev overlay, and
// the channels striped.
func (c simCell) devices(t *testing.T, opts Options) (*simRun, error) {
	r := &simRun{c: c, opts: opts, trusted: true, log: &simLog{}}
	p := c.channel()
	p.NumBlocks *= c.nchan()
	r.bits = newSimBitmap(p, c.nchan(), c.numPages())
	var subs []flash.Device
	for ch := range c.nchan() {
		dev, err := c.channelDevice(t)
		if err != nil {
			return nil, err
		}
		r.chans = append(r.chans, &simChan{Device: dev, bits: r.bits, log: r.log, ch: ch})
		r.fds = append(r.fds, faultdev.Wrap(r.chans[ch]))
		subs = append(subs, r.fds[ch])
	}
	r.dev = striped(subs)
	return r, nil
}

// channelDevice builds one fresh channel of the cell's backend: an emulated
// chip, or a filedev under t.TempDir().
func (c simCell) channelDevice(t *testing.T) (flash.Device, error) {
	if c.backend != "file" {
		return flash.NewChip(c.channel()), nil
	}
	return filedev.Open(filepath.Join(t.TempDir(), "flash"), filedev.Options{Params: c.channel()})
}

// striped is the device of the channels subs.
func striped(subs []flash.Device) flash.Device {
	if len(subs) == 1 {
		return subs[0]
	}
	dev, _ := flash.NewStriped(subs...)
	return dev
}

// attach makes s the store the run drives, with an empty model.
func (r *simRun) attach(s *Store, pool bool) {
	n := r.c.numPages()
	r.s, r.m = s, &simModel{Store: s, log: r.log, pages: make([][]byte, n), maybe: make([][][]byte, n), versions: make([][][]byte, n)}
	r.reads0 = r.dev.Stats().Reads - readsOf(s.Telemetry())
	r.pool, r.app, r.pending = nil, nil, nil
	if pool {
		r.pool, _ = buffer.NewPool(r.m, n/5)
		r.app = make([][]byte, n)
	}
}

func (r *simRun) close() {
	if r.s != nil {
		r.s.Close()
	}
	r.dev.Close()
}

func readsOf(t Telemetry) int64 {
	return t.BaseReads + t.DiffReads + t.WriteBaseReads + t.GCReads + t.RecoverReads
}

// run drives steps through the caller, holding every read to the model and
// the store to the quiescent oracles after every collection step. It stops
// at the first broken oracle. With background collection it yields after
// every step: a run takes milliseconds, and the collectors would otherwise
// wait it out.
func (r *simRun) run(steps []simStep) error {
	for i := range steps {
		if r.s.BackgroundGC() {
			runtime.Gosched()
		}
		if r.m.err != nil {
			break
		}
		r.m.step = i
		switch st := &steps[i]; st.kind {
		case stepTear:
			r.chans[st.ch].arm(st.nth)
			r.m.faulted, r.trusted = true, false
		case stepFault:
			switch {
			case st.mid:
				r.pending = st
			default:
				r.inject(st)
			}
		case stepCollect:
			r.m.collect()
			if err := r.quiescent(); err != nil {
				return err
			}
		default:
			if r.pool != nil {
				r.poolStep(st)
			} else {
				r.storeStep(st)
			}
		}
	}
	return r.m.err
}

func (r *simRun) storeStep(st *simStep) {
	m, pid, size := r.m, st.pids, r.s.PageSize()
	switch st.kind {
	case stepWrite:
		m.WritePage(pid[0], st.edits[0].apply(m.pages[pid[0]], size))
	case stepUpdate:
		buf := make([]byte, size)
		if m.ReadPage(pid[0], buf) == nil {
			r.injectPending()
			m.WritePage(pid[0], st.edits[0].apply(buf, size))
		}
	case stepBatch:
		writes := make([]ftl.PageWrite, len(pid))
		next := map[uint32][]byte{}
		for i, p := range pid {
			prev, ok := next[p]
			if !ok {
				prev = m.pages[p]
			}
			next[p] = st.edits[i].apply(prev, size)
			writes[i] = ftl.PageWrite{PID: p, Data: next[p]}
		}
		m.WriteBatch(writes)
	case stepRead:
		m.ReadPage(pid[0], make([]byte, size))
	case stepReadBatch:
		bufs := make([][]byte, len(pid))
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		m.ReadBatch(pid, bufs)
	case stepRetain:
		m.RetainBase(pid[0])
	case stepFlush:
		m.Flush()
	}
}

// poolStep is a step as a DBMS makes it through its buffer pool. A failed
// pool call needs no check of its own: the model judged the store call under
// it.
func (r *simRun) poolStep(st *simStep) {
	switch st.kind {
	case stepWrite, stepUpdate, stepBatch:
		for i, pid := range st.pids {
			r.poolEdit(pid, &st.edits[i])
		}
	case stepRetain:
		r.poolEdit(st.pids[0], nil)
	case stepRead, stepReadBatch:
		for _, pid := range st.pids {
			if page, err := r.pool.Get(pid); err == nil && !bytes.Equal(page, r.app[pid]) {
				r.m.failf("the pool served pid %d other bytes than its caller wrote", pid)
			}
		}
	case stepFlush:
		r.pool.Flush()
	}
}

// poolEdit fetches pid, applies e and marks the frame dirty; a nil e marks it
// dirty unchanged.
func (r *simRun) poolEdit(pid uint32, e *simEdit) {
	get := r.pool.Get
	if r.app[pid] == nil {
		get = r.pool.GetNew
	}
	page, err := get(pid)
	switch {
	case err != nil:
		return
	case r.app[pid] != nil && !bytes.Equal(page, r.app[pid]):
		r.m.failf("the pool served pid %d other bytes than its caller wrote", pid)
		return
	case e != nil:
		copy(page, e.apply(page, len(page)))
		r.app[pid] = bytes.Clone(page)
	}
	r.pool.MarkDirty(pid)
	r.injectPending()
}

func (r *simRun) injectPending() {
	if r.pending != nil {
		r.inject(r.pending)
		r.pending = nil
	}
}

// inject plants st's fault on the page pid maps to now: on a differential
// fault, the differential page of the first pid from pid on that has one.
func (r *simRun) inject(st *simStep) {
	ppn := r.s.mt.snapshot(st.pids[0]).base
	if st.onDiff {
		ppn = flash.NilPPN
		for i := 0; ppn == flash.NilPPN && i < r.s.numPages; i++ {
			ppn = r.s.mt.snapshot((st.pids[0] + uint32(i)) % uint32(r.s.numPages)).dif
		}
	}
	if ppn == flash.NilPPN {
		return
	}
	p, n, f := r.bits.p, len(r.fds), st.fault
	f.PPN = p.PPNOf(p.BlockOf(ppn)/n, p.PageOf(ppn))
	r.fds[p.BlockOf(ppn)%n].Inject(f)
	r.log.add(simMut{kind: mutFault, ch: p.BlockOf(ppn) % n, fault: f})
	r.m.faulted, r.trusted = true, false
}

// finish writes back the caller's pages and flushes the store, checks the
// quiescent oracles once more, and stops the collectors.
func (r *simRun) finish() error {
	r.m.step = -1
	if r.pool != nil {
		r.pool.Flush()
		for pid, page := range r.app {
			if !r.m.faulted && !bytes.Equal(page, r.m.pages[pid]) {
				r.m.failf("pid %d: the pool wrote back other bytes than its caller's", pid)
			}
		}
	} else {
		r.m.Flush()
	}
	r.m.collect()
	if err := r.quiescent(); err != nil {
		return err
	}
	if err := r.s.Close(); !r.m.allowed(err) {
		r.m.failf("closing: %v", err)
	}
	return r.m.err
}

// quiescent holds the idle store, its collectors stopped at their channel
// locks, to what the harness saw: Telemetry's read attribution sums to the
// device's reads, the valid differential count table holds no dead page and,
// while the bitmap follows the store, every block's valid pages are the
// allocator's written - obsolete, every pid maps to the pages the bitmap
// arbitrated, the valid differential counts are the bitmap's, no valid page
// was ever erased and no spare area programmed.
func (r *simRun) quiescent() error {
	if err := r.bounded(); err != nil {
		return err
	}
	s, b, p := r.s, r.bits, r.bits.p
	for ch := range s.chans {
		s.chans[ch].mu.Lock()
		defer s.chans[ch].mu.Unlock()
	}
	tel := s.Telemetry()
	if got, want := readsOf(tel), r.dev.Stats().Reads-r.reads0; got != want {
		return fmt.Errorf("Telemetry attributes %d reads, the device counted %d", got, want)
	}
	s.mt.mu.RLock()
	defer s.mt.mu.RUnlock()
	for ppn, e := range s.mt.vdct {
		if e.valid <= 0 {
			return fmt.Errorf("the valid differential count table holds page %d at %d", ppn, e.valid)
		}
	}
	if err := deadBytes(s, b); err != nil {
		return err
	}
	if !r.trusted {
		return nil
	}
	if s.dcache != nil && tel.ReadRetries == 0 && tel.DiffReads != tel.DiffCacheMisses {
		return fmt.Errorf("%d differential page reads for %d cache misses", tel.DiffReads, tel.DiffCacheMisses)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	if b.spares != 0 {
		return fmt.Errorf("%d spare areas programmed: validity is DRAM state", b.spares)
	}
	valid := make([]int, p.NumBlocks)
	for ppn, v := range b.valid {
		if v {
			valid[p.BlockOf(flash.PPN(ppn))]++
		}
	}
	for blk, n := range valid {
		if bs := s.alloc.BlockStats(blk); n != bs.Written-bs.Obsolete {
			return fmt.Errorf("block %d holds %d valid pages, the allocator counts %d written and %d obsolete", blk, n, bs.Written, bs.Obsolete)
		}
	}
	for pid, e := range s.mt.ents {
		bp, df := b.base[pid], b.dif[pid]
		if e.base != bp.ppn || e.dif != df.ppn || e.baseTS != bp.ts || e.diffTS() != df.ts {
			return fmt.Errorf("pid %d maps to %+v, the bitmap to %+v and %+v", pid, e, bp, df)
		}
	}
	live := 0
	for ppn, n := range b.refs {
		if n > 0 {
			live++
		}
		if got := int(s.mt.vdct[flash.PPN(ppn)].valid); got != n {
			return fmt.Errorf("differential page %d counts %d valid differentials, the bitmap %d", ppn, got, n)
		}
	}
	if live != len(s.mt.vdct) {
		return fmt.Errorf("the valid differential count table holds %d pages, %d live", len(s.mt.vdct), live)
	}
	return nil
}

// deadBytes holds the dead bytes s counts, per differential page in the
// valid differential count table and per block in the allocator, to a recount
// from the mapping and the records of the pages b saw programmed: a valid
// page's dead bytes are its records that are not their pid's newest
// differential, and a block's are its valid pages'.
func deadBytes(s *Store, b *simBitmap) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	perBlock := make([]int, b.p.NumBlocks)
	for ppn, e := range s.mt.vdct {
		dead := 0
		for _, rec := range b.recs[ppn] {
			if int(rec.pid) >= s.numPages {
				dead += rec.n
			} else if e := s.mt.ents[rec.pid]; e.dif != ppn || e.diffTS() != rec.ts {
				dead += rec.n
			}
		}
		if int(e.dead) != dead {
			return fmt.Errorf("differential page %d counts %d dead bytes, its records %d", ppn, e.dead, dead)
		}
		perBlock[b.p.BlockOf(ppn)] += dead
	}
	for blk, dead := range perBlock {
		if got := s.alloc.BlockStats(blk).DeadBytes; got != dead {
			return fmt.Errorf("block %d counts %d dead bytes, its valid differential pages %d", blk, got, dead)
		}
	}
	return nil
}

// bounded holds every differential record the store made to its
// MaxDifferentialSize: those its shard buffers hold and those on every
// differential page it programmed, compacted copies included.
func (r *simRun) bounded() error {
	limit := r.s.MaxDifferentialSize()
	r.bits.mu.Lock()
	largest := r.bits.largest
	r.bits.mu.Unlock()
	if largest > limit {
		return fmt.Errorf("a differential page carries a %d-byte record, over MaxDifferentialSize %d", largest, limit)
	}
	for i := range r.s.shards {
		if n := largestBuffered(&r.s.shards[i]); n > limit {
			return fmt.Errorf("shard %d buffers a %d-byte record, over MaxDifferentialSize %d", i, n, limit)
		}
	}
	return nil
}

// largestBuffered returns the bytes in the largest record sh buffers.
func largestBuffered(sh *shard) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for _, off := range sh.dwb.index {
		n = max(n, len(recordAt(sh.dwb.slab, off)))
	}
	return n
}

// recovered takes the census of the run's image three times — the scan with
// one worker, with one per block and with GOMAXPROCS — and holds them to one
// census, field by field; then recovers the image with the cell's options and
// holds that store to the flash under it: it adopts exactly the pages flash
// holds, strands no erased page and counts the dead bytes the bitmap does.
// None of it may program or erase. It returns the store for the caller to use
// and close.
func (r *simRun) recovered() (*Store, error) {
	before, n := r.dev.Stats(), r.c.numPages()
	var first *census
	for _, w := range []int{1, r.bits.p.NumBlocks, runtime.GOMAXPROCS(0)} {
		c, err := takeCensus(r.dev, n, w)
		switch {
		case err != nil:
			return nil, err
		case first == nil:
			first = c
		default:
			if err := sameCensus(first, c); err != nil {
				return nil, fmt.Errorf("the census at %d workers differs from the one at 1: %w", w, err)
			}
		}
	}
	s, err := Recover(r.dev, n, r.opts)
	if err != nil {
		return nil, err
	}
	written, err := programmed(r.dev)
	if err == nil {
		err = errors.Join(adopted(s, written), unstranded(s, r.bits), deadBytes(s, r.bits))
	}
	if d := r.dev.Stats().Sub(before); err == nil && (d.Writes != 0 || d.Erases != 0) {
		err = fmt.Errorf("three censuses and a recovery programmed %d pages and erased %d blocks", d.Writes, d.Erases)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// sameCensus names the first field in which census b differs from a.
func sameCensus(a, b *census) error {
	switch {
	case !slices.Equal(a.ents, b.ents):
		return errors.New("another mapping table")
	case !maps.Equal(a.vdct, b.vdct):
		return errors.New("another valid differential count table")
	case !slices.Equal(a.pages, b.pages):
		return errors.New("another page table")
	case a.maxTS != b.maxTS:
		return fmt.Errorf("newest time stamp %d, not %d", b.maxTS, a.maxTS)
	case scanCounts(a) != scanCounts(b):
		return fmt.Errorf("scan counts %v, not %v", scanCounts(b), scanCounts(a))
	}
	return nil
}

// scanCounts returns what c's scan counted: the pages it read, the bits ECC
// corrected, the header checksum failures and the uncorrectable pages.
func scanCounts(c *census) [4]int64 {
	return [4]int64{c.reads.Load(), c.corrected.Load(), c.checksumFailures.Load(), c.uncorrectable.Load()}
}

// savedReadsOnly holds a store with its caches (on) and its DiffCacheOff twin
// (off) after one program to the same programs, erases, base and GC reads,
// and every read the caches saved to a counted hit.
func savedReadsOnly(on, off *simRun) error {
	a, b, ad, bd := on.s.Telemetry(), off.s.Telemetry(), on.dev.Stats(), off.dev.Stats()
	savedDiff := b.DiffReads - a.DiffReads
	switch {
	case ad.Writes != bd.Writes || ad.Erases != bd.Erases:
		return fmt.Errorf("%d programs and %d erases with the caches, %d and %d without", ad.Writes, ad.Erases, bd.Writes, bd.Erases)
	case a.BaseReads != b.BaseReads || a.GCReads != b.GCReads:
		return fmt.Errorf("%d base and %d GC reads with the caches, %d and %d without", a.BaseReads, a.GCReads, b.BaseReads, b.GCReads)
	case b.WriteBaseHits != 0 || b.DiffCacheHits != 0:
		return fmt.Errorf("DiffCacheOff counted %d base-image and %d cache hits", b.WriteBaseHits, b.DiffCacheHits)
	case b.WriteBaseReads-a.WriteBaseReads != a.WriteBaseHits:
		return fmt.Errorf("the caches saved %d base reads of writes and counted %d hits", b.WriteBaseReads-a.WriteBaseReads, a.WriteBaseHits)
	case savedDiff > a.DiffCacheHits || bd.Reads-ad.Reads != savedDiff+a.WriteBaseHits:
		return fmt.Errorf("the caches saved %d reads: %d differential pages for %d hits and %d base images",
			bd.Reads-ad.Reads, savedDiff, a.DiffCacheHits, a.WriteBaseHits)
	}
	return nil
}

// simModel is the store as its caller knows it: every call reaches the store
// through it, and it holds every read to the contents the acknowledged writes
// left and records the calls, in order, as the trace the crash oracle
// replays. A buffer.Pool is opened on it, so it carries every interface of
// the store the pool probes for (ftl.BatchWriter, ftl.BaseRetainer): without
// one the pool cells would test another store.
type simModel struct {
	*Store
	log      *simLog    // tagged with the call in progress
	pages    [][]byte   // per pid: the newest acknowledged content; nil: never written
	maybe    [][][]byte // per pid: the contents of failed writes, which may have landed
	versions [][][]byte // per pid: every content a write carried
	trace    []simOp
	step     int   // the program step in progress; -1: the closing flush
	faulted  bool  // a fault was injected: calls may fail typed
	err      error // the first broken oracle
}

// simOp is one call of a trace, with the pages a write carried and the step
// that made it.
type simOp struct {
	kind   stepKind
	writes []ftl.PageWrite
	step   int
}

func (m *simModel) call(kind stepKind, writes []ftl.PageWrite) {
	m.log.call.Store(int64(len(m.trace)))
	m.trace = append(m.trace, simOp{kind, writes, m.step})
}

func (m *simModel) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// allowed reports whether a call may end in err: after a fault, typed or
// with the torn program's error.
func (m *simModel) allowed(err error) bool {
	var pe *ftl.PageError
	return err == nil || m.faulted && (errors.As(err, &pe) || errors.Is(err, errTorn))
}

func (m *simModel) WritePage(pid uint32, data []byte) error {
	return m.WriteBatch([]ftl.PageWrite{{PID: pid, Data: data}})
}

// WriteBatch is the write of one page or several, which it records and
// applies to the model: in order if it succeeded, as contents that may have
// landed if it failed.
func (m *simModel) WriteBatch(writes []ftl.PageWrite) error {
	w := make([]ftl.PageWrite, len(writes))
	for i, pw := range writes {
		w[i] = ftl.PageWrite{PID: pw.PID, Data: bytes.Clone(pw.Data)}
	}
	var err error
	if len(w) == 1 {
		m.call(stepWrite, w)
		err = m.Store.WritePage(w[0].PID, writes[0].Data)
	} else {
		m.call(stepBatch, w)
		err = m.Store.WriteBatch(writes)
	}
	if !m.allowed(err) {
		m.failf("writing pid %d: %v", w[0].PID, err)
	}
	for _, pw := range w {
		m.versions[pw.PID] = append(m.versions[pw.PID], pw.Data)
		if err == nil {
			m.pages[pw.PID], m.maybe[pw.PID] = pw.Data, nil
		} else {
			m.maybe[pw.PID] = append(m.maybe[pw.PID], pw.Data)
		}
	}
	return err
}

func (m *simModel) ReadPage(pid uint32, buf []byte) error {
	m.call(stepRead, nil)
	err := m.Store.ReadPage(pid, buf)
	m.read(pid, buf, err)
	return err
}

func (m *simModel) ReadBatch(pids []uint32, bufs [][]byte) error {
	m.call(stepReadBatch, nil)
	err := m.Store.ReadBatch(pids, bufs)
	for i, pid := range pids {
		if err == nil {
			m.read(pid, bufs[i], nil)
		}
	}
	if !m.allowed(err) && !(errors.Is(err, ftl.ErrNotWritten) && slices.ContainsFunc(pids, func(p uint32) bool { return m.pages[p] == nil })) {
		m.failf("ReadBatch: %v", err)
	}
	return err
}

// read holds one read of pid, which returned got and err, to the model; a
// read of a failed write's content settles that the write landed.
func (m *simModel) read(pid uint32, got []byte, err error) {
	switch {
	case err == nil && bytes.Equal(got, m.pages[pid]):
	case err == nil:
		i := slices.IndexFunc(m.maybe[pid], func(b []byte) bool { return bytes.Equal(got, b) })
		if i < 0 {
			m.failf("pid %d read bytes no write left there", pid)
			return
		}
		m.pages[pid], m.maybe[pid] = m.maybe[pid][i], nil
	case errors.Is(err, ftl.ErrNotWritten) && m.pages[pid] == nil:
	case !m.allowed(err):
		m.failf("reading pid %d: %v", pid, err)
	}
}

func (m *simModel) Flush() error {
	m.call(stepFlush, nil)
	err := m.Store.Flush()
	if !m.allowed(err) {
		m.failf("flushing: %v", err)
	}
	return err
}

func (m *simModel) RetainBase(pid uint32) {
	m.call(stepRetain, nil)
	m.Store.RetainBase(pid)
}

// collect runs one garbage-collection increment on every channel, as the
// background engine does.
func (m *simModel) collect() {
	m.call(stepCollect, nil)
	for ch := range m.nchan {
		if _, err := (chanCollector{s: m.Store, ch: ch}).CollectOne(); !m.allowed(err) {
			m.failf("collecting on channel %d: %v", ch, err)
		}
	}
}

// simBitmap is the harness's own valid-page bitmap of the device, kept the
// way the wiscsee FTL simulator keeps its validbitmap: from the programs and
// erases that reach flash, arbitrating the headers by time stamp as recovery
// does, so a page is valid while it is its pid's newest base page or holds
// some pid's newest differential.
type simBitmap struct {
	p       flash.Params // of the whole device
	nchan   int
	mu      sync.Mutex
	valid   []bool     // per page
	written []bool     // per page: programmed since its last erase, torn included
	base    []simRef   // per pid: its base page
	dif     []simRef   // per pid: its differential
	refs    []int      // per page: the pids whose differential it holds
	recs    [][]simRec // per page: the records of a differential page programmed there
	spares  int        // spare-area programs
	largest int        // bytes in the largest differential record programmed
	err     error      // the first erase of a valid page
}

// simRec is one record of a differential page: its key and its bytes.
type simRec struct {
	pid uint32
	ts  uint64
	n   int
}

// simRef is a page with the time stamp that put it there; ppn NilPPN: none.
type simRef struct {
	ppn flash.PPN
	ts  uint64
}

func newSimBitmap(p flash.Params, nchan, numPages int) *simBitmap {
	b := &simBitmap{p: p, nchan: nchan, valid: make([]bool, p.NumPages()), written: make([]bool, p.NumPages()),
		refs: make([]int, p.NumPages()), recs: make([][]simRec, p.NumPages()), base: make([]simRef, numPages), dif: make([]simRef, numPages)}
	for pid := range b.base {
		b.base[pid].ppn, b.dif[pid].ppn = flash.NilPPN, flash.NilPPN
	}
	return b
}

// global is the device's number of page ppn of channel ch (flash.Striped:
// block g is channel g%n's block g/n).
func (b *simBitmap) global(ch int, ppn flash.PPN) flash.PPN {
	return b.p.PPNOf(b.p.BlockOf(ppn)*b.nchan+ch, b.p.PageOf(ppn))
}

// apply feeds one mutation that reached channel ch to the bitmap.
func (b *simBitmap) apply(e simMut) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch e.kind {
	case mutProgram:
		b.program(b.global(e.ch, e.ppn), e.data, e.spare)
	case mutSpare:
		b.spares++
	case mutErase:
		for i := range b.p.PagesPerBlock {
			ppn := b.global(e.ch, b.p.PPNOf(e.blk, i))
			if b.valid[ppn] && b.err == nil {
				b.err = fmt.Errorf("page %d was erased valid", ppn)
			}
			b.valid[ppn], b.written[ppn], b.refs[ppn], b.recs[ppn] = false, false, 0, nil
		}
	}
}

// recsOf returns the records of a differential page image.
func recsOf(page []byte) []simRec {
	var recs []simRec
	for rec := range diff.Records(page) {
		pid, ts := diff.RecordKey(rec)
		recs = append(recs, simRec{pid, ts, len(rec)})
	}
	return recs
}

// program arbitrates the page programmed at ppn by its header; a torn
// program has none that verifies and is only written.
func (b *simBitmap) program(ppn flash.PPN, data, spare []byte) {
	b.written[ppn] = true
	b.recs[ppn] = nil
	if spare == nil || !ftl.VerifyHeaderChecksum(spare, len(data)) {
		return
	}
	switch h := ftl.DecodeHeader(spare); h.Type {
	case ftl.TypeBase:
		cur := &b.base[h.PID]
		if cur.ppn != flash.NilPPN {
			if h.TS < cur.ts {
				return // a relocated copy that lost its race to a newer base
			}
			b.valid[cur.ppn] = false // superseded, or relocated under its stamp
		}
		*cur = simRef{ppn, h.TS}
		b.valid[ppn] = true
		if df := b.dif[h.PID]; df.ppn != flash.NilPPN && df.ts < h.TS {
			b.unlink(h.PID)
		}
	case ftl.TypeDiff:
		b.recs[ppn] = recsOf(data)
		for rec := range diff.Records(data) {
			b.largest = max(b.largest, len(rec))
			pid, ts := diff.RecordKey(rec)
			if df := b.dif[pid]; ts <= b.base[pid].ts || df.ppn != flash.NilPPN && ts < df.ts {
				continue
			}
			if b.dif[pid].ppn != flash.NilPPN {
				b.unlink(pid)
			}
			b.dif[pid] = simRef{ppn, ts}
			b.refs[ppn]++
		}
		b.valid[ppn] = b.refs[ppn] > 0
	}
}

func (b *simBitmap) unlink(pid uint32) {
	ppn := b.dif[pid].ppn
	if b.refs[ppn]--; b.refs[ppn] == 0 {
		b.valid[ppn] = false
	}
	b.dif[pid] = simRef{ppn: flash.NilPPN}
}

// clone returns a copy of the bitmap that the mutations applied to either
// leave the other alone.
func (b *simBitmap) clone() *simBitmap {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &simBitmap{p: b.p, nchan: b.nchan, valid: slices.Clone(b.valid), written: slices.Clone(b.written),
		base: slices.Clone(b.base), dif: slices.Clone(b.dif), refs: slices.Clone(b.refs), recs: slices.Clone(b.recs),
		spares: b.spares, largest: b.largest, err: b.err}
}

// simMut is one mutation that reached a channel's flash, or a fault planted
// on its overlay, tagged with the model's call in progress.
type simMut struct {
	kind  mutKind
	ch    int
	ppn   flash.PPN      // the channel's page: mutProgram, mutSpare
	blk   int            // the channel's block: mutErase
	data  []byte         // mutProgram
	spare []byte         // mutProgram (nil for a torn one), mutSpare
	fault faultdev.Fault // mutFault
	call  int
	began int // the length of the log when the device call began
}

type mutKind uint8

const (
	mutProgram mutKind = iota
	mutSpare
	mutErase
	mutFault
)

func (e simMut) String() string {
	switch e.kind {
	case mutSpare:
		return fmt.Sprintf("spare program of page %d of channel %d", e.ppn, e.ch)
	case mutErase:
		return fmt.Sprintf("erase of block %d of channel %d", e.blk, e.ch)
	case mutFault:
		return fmt.Sprintf("%v fault on page %d of channel %d", e.fault.Kind, e.fault.PPN, e.ch)
	}
	return fmt.Sprintf("program of page %d of channel %d", e.ppn, e.ch)
}

// ended returns what e leaves on flash when the power goes in it: nothing
// when it was not begun; when it was, a spare program nothing, an erase
// completed, and a program torn. A torn program of an even page lands the
// first half of its data and none of its spare; of an odd page, all of its
// data and every spare byte but the header checksum.
func (e simMut) ended(torn bool) []simMut {
	switch {
	case !torn || e.kind == mutSpare:
		return nil
	case e.kind == mutErase:
		return []simMut{e}
	}
	tail := simMut{kind: mutProgram, ch: e.ch, ppn: e.ppn, call: e.call}
	if e.ppn%2 == 0 || e.spare == nil {
		tail.data = bytes.Repeat([]byte{0xFF}, len(e.data))
		copy(tail.data, e.data[:len(e.data)/2])
	} else {
		tail.data, tail.spare = e.data, bytes.Clone(e.spare)
		tail.spare[ftl.HeaderSpareBytes+ftl.ECCSpareBytes(len(e.data))] = 0xFF
	}
	return []simMut{tail}
}

// simLog is a run's mutation log: what reached flash, in order.
type simLog struct {
	mu   sync.Mutex
	muts []simMut
	call atomic.Int64 // the index in the model's trace of the call in progress
}

func (l *simLog) add(e simMut) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.call = int(l.call.Load())
	l.muts = append(l.muts, e)
}

func (l *simLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.muts)
}

// land makes es reach the run's channels in order, each through its fault
// overlay and its simChan.
func (r *simRun) land(es []simMut) error {
	for _, e := range es {
		var err error
		switch fd := r.fds[e.ch]; e.kind {
		case mutProgram:
			err = fd.Program(e.ppn, e.data, e.spare)
		case mutSpare:
			err = fd.ProgramSpare(e.ppn, e.spare)
		case mutErase:
			err = fd.Erase(e.blk)
		case mutFault:
			fd.Inject(e.fault)
		}
		if err != nil {
			return fmt.Errorf("replaying the %v: %w", e, err)
		}
	}
	return nil
}

// image recovers the run's flash with over laid on each channel, without
// touching it, holds the recovered store to what that flash holds, and to
// held unless the store maps every pid as *last, the image it was cut
// beside, does.
func (r *simRun) image(over [][]simMut, last *simMapping, held func(*Store, flash.Device) ([][]byte, error)) error {
	bits := r.bits
	subs := make([]flash.Device, len(over))
	for ch, es := range over {
		subs[ch] = &simImage{Device: r.fds[ch], over: es}
		for _, e := range es {
			if bits == r.bits {
				bits = r.bits.clone()
			}
			bits.apply(e)
		}
	}
	sync := r.opts
	sync.BackgroundGC = false
	dev := striped(subs)
	s, err := Recover(dev, r.c.numPages(), sync)
	if err != nil {
		return err
	}
	defer s.Close()
	written, err := programmed(dev)
	if err != nil {
		return err
	}
	if err := errors.Join(adopted(s, written), unstranded(s, bits), deadBytes(s, bits)); err != nil {
		return err
	}
	m := simMapping(unversioned(s.mt.ents))
	if m.equal(*last) {
		return nil
	}
	*last = m
	_, err = held(s, dev)
	return err
}

// simMapping is what a recovered store's reads follow. The two images of a
// crash point differ only where its mutation lands, on pages neither can
// map, so when both map every pid alike they read back alike.
type simMapping []mapEntry

func (m simMapping) equal(o simMapping) bool { return slices.Equal(m, o) }

// unversioned copies a mapping table's entries with their versions zeroed:
// what the state oracles compare, since two stores that map alike may have
// counted different mutations to get there.
func unversioned(ents []mapEntry) []mapEntry {
	out := slices.Clone(ents)
	for i := range out {
		out[i].ver = 0
	}
	return out
}

// simImage is one channel of a crash image: the channel's device under the
// mutations over lays on it, which reads see and nothing writes.
type simImage struct {
	flash.Device
	over []simMut
}

var errImage = errors.New("sim: a crash image is read-only")

func (d *simImage) Read(ppn flash.PPN, data, spare []byte) error {
	if err := d.Device.Read(ppn, data, spare); err != nil || len(d.over) == 0 {
		return err
	}
	blk := d.Params().BlockOf(ppn)
	for _, e := range d.over {
		switch {
		case e.kind == mutErase && e.blk == blk:
			copy(data, bytes.Repeat([]byte{0xFF}, len(data)))
			copy(spare, bytes.Repeat([]byte{0xFF}, len(spare)))
		case e.kind == mutProgram && e.ppn == ppn:
			copy(data, e.data)
			if e.spare != nil {
				copy(spare, e.spare)
			}
		case e.kind == mutSpare && e.ppn == ppn:
			for i := range spare {
				spare[i] &= e.spare[i]
			}
		}
	}
	return nil
}

func (d *simImage) ReadData(ppn flash.PPN, data []byte) error   { return d.Read(ppn, data, nil) }
func (d *simImage) ReadSpare(ppn flash.PPN, spare []byte) error { return d.Read(ppn, nil, spare) }
func (d *simImage) ReadBatch(batch []flash.PageRead) error      { return flash.ReadEach(d, batch) }
func (d *simImage) Program(flash.PPN, []byte, []byte) error     { return errImage }
func (d *simImage) ProgramBatch([]flash.PageProgram) error      { return errImage }
func (d *simImage) ProgramPartial(flash.PPN, int, []byte) error { return errImage }
func (d *simImage) ProgramSpare(flash.PPN, []byte) error        { return errImage }
func (d *simImage) Erase(int) error                             { return errImage }
func (d *simImage) MarkBad(int) error                           { return errImage }

// simChan is one channel's device as the harness drives it: it feeds every
// mutation that reaches flash to the bitmap and the run's log. Armed, it
// tears page nth of the next program call of at least nth pages
// (simMut.ended) and fails the call: the pages before it land, and the
// device lives on.
type simChan struct {
	flash.Device
	bits *simBitmap
	log  *simLog
	ch   int
	mu   sync.Mutex
	tear int // the page of the next program call to tear; 0: none armed
}

var errTorn = errors.New("sim: torn program")

func (d *simChan) arm(nth int) {
	d.mu.Lock()
	d.tear = nth
	d.mu.Unlock()
}

// landed feeds one mutation that reached flash, by a device call that began
// when the log held began entries, to the bitmap and the log. The caller
// holds mu.
func (d *simChan) landed(e simMut, began int) {
	e.ch, e.began = d.ch, began
	d.bits.apply(e)
	d.log.add(e)
}

func (d *simChan) Program(ppn flash.PPN, data, spare []byte) error {
	pps := []flash.PageProgram{{PPN: ppn, Data: data, Spare: spare}}
	return d.program(pps, func() error { return d.Device.Program(ppn, data, spare) })
}

func (d *simChan) ProgramBatch(batch []flash.PageProgram) error {
	return d.program(batch, func() error { return d.Device.ProgramBatch(batch) })
}

// program lets pps through, or the pages before the torn one and the torn
// one when it is among them, and logs what landed.
func (d *simChan) program(pps []flash.PageProgram, do func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	began := d.log.len()
	var torn error
	if d.tear > 0 && d.tear <= len(pps) {
		i := d.tear - 1
		tail := simMut{ppn: pps[i].PPN, data: pps[i].Data, spare: pps[i].Spare}.ended(true)[0]
		pps = append(pps[:i:i], flash.PageProgram{PPN: tail.ppn, Data: tail.data, Spare: tail.spare})
		do = func() error { return d.Device.ProgramBatch(pps) }
		d.tear, torn = 0, errTorn
	}
	if err := do(); err != nil {
		return err
	}
	for _, pp := range pps {
		d.landed(simMut{kind: mutProgram, ppn: pp.PPN, data: bytes.Clone(pp.Data), spare: bytes.Clone(pp.Spare)}, began)
	}
	return torn
}

func (d *simChan) ProgramSpare(ppn flash.PPN, spare []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	began := d.log.len()
	if err := d.Device.ProgramSpare(ppn, spare); err != nil {
		return err
	}
	d.landed(simMut{kind: mutSpare, ppn: ppn, spare: bytes.Clone(spare)}, began)
	return nil
}

func (d *simChan) Erase(blk int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	began := d.log.len()
	if err := d.Device.Erase(blk); err != nil {
		return err
	}
	d.landed(simMut{kind: mutErase, blk: blk}, began)
	return nil
}
