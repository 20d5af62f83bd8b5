package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// adaptiveOptions returns store options with adaptive routing enabled, a
// short probe interval so the OPU→PDL switch happens within a handful of
// writes, and a short heat half-life so pages go cold within a test-sized
// workload.
func adaptiveOptions() Options {
	return Options{
		MaxDifferentialSize: 64,
		ReserveBlocks:       2,
		Adaptive: AdaptiveOptions{
			Enabled:      true,
			ProbeEvery:   4,
			HeatHalfLife: 64,
			// High dense threshold and instantaneous cut: the migration
			// scenario needs a near-page-sized (~96%) Case 3 write that
			// still classifies sparse and unmarked, so only the full-page
			// rewrites of the dense tests cross them.
			DenseMille: 900,
			CutMille:   980,
		},
	}
}

// loadAdaptiveStore builds an adaptive store over a small chip and loads
// numPages random pages. Every initial load is cold by definition and must
// route whole-page.
func loadAdaptiveStore(t *testing.T, numBlocks, numPages int) (*Store, *flash.Chip, [][]byte) {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(77))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	return s, chip, shadow
}

// sparseUpdate mutates a fixed 8-byte window of shadow[pid] and writes the
// page. The window is per-pid so repeated updates stay CUMULATIVELY sparse
// (differentials are cumulative against the base page): the encoded size
// never approaches the differential cap or the density threshold.
func sparseUpdate(t *testing.T, s *Store, shadow [][]byte, pid int, rng *rand.Rand) {
	t.Helper()
	off := 8 * pid
	rng.Read(shadow[pid][off : off+8])
	if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
		t.Fatal(err)
	}
}

// denseUpdate rewrites shadow[pid] wholesale and writes the page; any
// differential against the previous image spans essentially the whole page.
func denseUpdate(t *testing.T, s *Store, shadow [][]byte, pid int, rng *rand.Rand) {
	t.Helper()
	rng.Read(shadow[pid])
	if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveInitialLoadRoutesWholePage(t *testing.T) {
	s, chip, shadow := loadAdaptiveStore(t, 16, 24)
	tel := s.Telemetry()
	if tel.AdaptiveOPURoutes != 24 {
		t.Fatalf("initial loads routed OPU %d times, want 24", tel.AdaptiveOPURoutes)
	}
	if tel.AdaptivePDLRoutes != 0 {
		t.Fatalf("initial loads routed PDL %d times, want 0", tel.AdaptivePDLRoutes)
	}
	if n := s.WriteBufferLen(); n != 0 {
		t.Fatalf("whole-page loads left %d buffered differentials", n)
	}
	buf := make([]byte, chip.Params().DataSize)
	for pid := 0; pid < 24; pid++ {
		if m := s.mt.modeOf(uint32(pid)); m != ftl.ModeTagOPU {
			t.Fatalf("pid %d: mode %#x after load, want OPU tag", pid, m)
		}
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d: content mismatch after load", pid)
		}
	}
}

func TestAdaptiveHotSparseSwitchesToPDL(t *testing.T) {
	s, _, shadow := loadAdaptiveStore(t, 16, 8)
	rng := rand.New(rand.NewSource(1))
	// Hammer one pid with sparse updates: heat builds, the next probe
	// measures a sparse differential, and the page flips to the PDL route.
	for i := 0; i < 12; i++ {
		sparseUpdate(t, s, shadow, 3, rng)
	}
	tel := s.Telemetry()
	if tel.AdaptiveProbes == 0 {
		t.Fatal("no density probe ran on the whole-page route")
	}
	if tel.AdaptivePDLRoutes == 0 {
		t.Fatal("hot-sparse page never routed through the differential path")
	}
	if m := s.mt.modeOf(3); m != 0 {
		t.Fatalf("hot-sparse pid settled in mode %#x, want differential (0)", m)
	}
	// And its writes now land in the differential write buffer, not as
	// whole-page programs.
	before := s.Telemetry().NewBasePages
	sparseUpdate(t, s, shadow, 3, rng)
	if after := s.Telemetry().NewBasePages; after != before {
		t.Fatalf("sparse write on PDL-routed page programmed a base page (%d -> %d)", before, after)
	}
	buf := make([]byte, len(shadow[3]))
	if err := s.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, shadow[3]) {
		t.Fatal("content mismatch after route switch")
	}
}

func TestAdaptiveDensePageStaysWholePage(t *testing.T) {
	s, _, shadow := loadAdaptiveStore(t, 16, 8)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		denseUpdate(t, s, shadow, 5, rng)
	}
	if m := s.mt.modeOf(5); m != ftl.ModeTagOPU {
		t.Fatalf("dense pid settled in mode %#x, want OPU tag", m)
	}
	// A dense page must never accumulate a differential linkage: every
	// reflection supersedes the base wholesale.
	if dif, _ := s.mt.diffOf(5); dif != flash.NilPPN {
		t.Fatalf("dense pid carries differential page %d", dif)
	}
	tel := s.Telemetry()
	if tel.AdaptiveProbes == 0 {
		t.Fatal("dense page was never probed")
	}
	buf := make([]byte, len(shadow[5]))
	if err := s.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, shadow[5]) {
		t.Fatal("content mismatch on dense page")
	}
}

// mixedAdaptiveWorkload drives a loaded adaptive store into a steady state
// with all three page populations: hot-sparse pids on the differential
// route, hot-dense pids on the whole-page route, and untouched cold pids.
func mixedAdaptiveWorkload(t *testing.T, s *Store, shadow [][]byte, rounds int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rounds; i++ {
		for pid := 0; pid < 4; pid++ {
			sparseUpdate(t, s, shadow, pid, rng)
		}
		for pid := 4; pid < 8; pid++ {
			denseUpdate(t, s, shadow, pid, rng)
		}
	}
}

// assertStateEquivalent fails unless the recovered store r reproduces the
// flushed store s byte-identically: same content, same mapping, same
// per-pid logging mode.
func assertStateEquivalent(t *testing.T, s, r *Store, numPages int) {
	t.Helper()
	a := make([]byte, s.params.DataSize)
	b := make([]byte, s.params.DataSize)
	for pid := 0; pid < numPages; pid++ {
		if err := s.ReadPage(uint32(pid), a); err != nil {
			t.Fatalf("pid %d: live read: %v", pid, err)
		}
		if err := r.ReadPage(uint32(pid), b); err != nil {
			t.Fatalf("pid %d: recovered read: %v", pid, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("pid %d: recovered content differs", pid)
		}
		se, re := s.mt.ppmt[pid], r.mt.ppmt[pid]
		if se != re {
			t.Fatalf("pid %d: mapping differs: live %+v recovered %+v", pid, se, re)
		}
		if s.mt.baseTS[pid] != r.mt.baseTS[pid] || s.mt.diffTS[pid] != r.mt.diffTS[pid] {
			t.Fatalf("pid %d: time stamps differ", pid)
		}
		if s.mt.mode[pid] != r.mt.mode[pid] {
			t.Fatalf("pid %d: mode differs: live %#x recovered %#x",
				pid, s.mt.mode[pid], r.mt.mode[pid])
		}
	}
}

// checkModeInvariant verifies a freshly RECOVERED store's routing state
// against the durable rule: mode is OPU exactly when the winning base page
// carries the OPU tag and no newer valid differential exists.
func checkModeInvariant(t *testing.T, r *Store, numPages int) {
	t.Helper()
	spare := make([]byte, r.params.SpareSize)
	for pid := 0; pid < numPages; pid++ {
		e := r.mt.ppmt[pid]
		mode := r.mt.mode[pid]
		if mode != 0 && mode != ftl.ModeTagOPU {
			t.Fatalf("pid %d: impossible mode %#x", pid, mode)
		}
		if mode == ftl.ModeTagOPU && e.dif != flash.NilPPN {
			t.Fatalf("pid %d: OPU mode with differential page %d linked", pid, e.dif)
		}
		if e.base == flash.NilPPN || e.dif != flash.NilPPN {
			continue
		}
		if err := r.dev.ReadSpare(e.base, spare); err != nil {
			t.Fatal(err)
		}
		if h := ftl.DecodeHeader(spare); h.Mode != mode {
			t.Fatalf("pid %d: recovered mode %#x but base page tagged %#x", pid, mode, h.Mode)
		}
	}
}

// TestAdaptivePlacesDormantBasePagesCold: the router's lifetime verdict
// decides where a base page is programmed. An initial load and the rewrite
// of a recently written page fill hot-stream blocks; the rewrite of a page
// whose heat decayed to zero lands in a cold-stream block, which is not a
// garbage-collection migration, and recovery adopts the partly filled cold
// block like any other.
func TestAdaptivePlacesDormantBasePagesCold(t *testing.T) {
	const numPages = 24
	s, chip, shadow := loadAdaptiveStore(t, 16, numPages)
	if !s.alloc.StreamsOn(0) {
		t.Fatal("a 16-block channel does not run the streams")
	}
	streamOfBase := func(pid uint32) ftl.Stream {
		return s.alloc.BlockStats(s.params.BlockOf(entryOf(s, pid).base)).Stream
	}
	for pid := uint32(0); pid < numPages; pid++ {
		if got := streamOfBase(pid); got != ftl.StreamHot {
			t.Fatalf("initial load of pid %d landed in a block of stream %d, want the hot stream", pid, got)
		}
	}
	// Seven half-lives of flash no-ops (identical content): every heat
	// decays to zero and no page moves.
	for i := 0; i < 7*adaptiveOptions().Adaptive.HeatHalfLife; i++ {
		if err := s.WritePage(23, shadow[23]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	denseUpdate(t, s, shadow, 5, rng)
	if got := streamOfBase(5); got != ftl.StreamCold {
		t.Errorf("rewrite of dormant pid 5 landed in a block of stream %d, want the cold stream", got)
	}
	denseUpdate(t, s, shadow, 5, rng)
	if got := streamOfBase(5); got != ftl.StreamHot {
		t.Errorf("second rewrite of pid 5 landed in a block of stream %d, want the hot stream", got)
	}
	denseUpdate(t, s, shadow, 6, rng)
	if got := streamOfBase(6); got != ftl.StreamCold {
		t.Errorf("rewrite of dormant pid 6 landed in a block of stream %d, want the cold stream", got)
	}
	if st := s.alloc.ChannelGC(0); st.ColdMigrations != 0 || st.Runs != 0 {
		t.Errorf("%+v, want no collection and no cold migration", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, numPages, adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStateEquivalent(t, s, r, numPages)
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
}

func TestAdaptiveRecoverReproducesModes(t *testing.T) {
	const numPages = 16
	s, chip, shadow := loadAdaptiveStore(t, 24, numPages)
	mixedAdaptiveWorkload(t, s, shadow, 10, 3)
	// Flip an established mode each way: the scan has to take the mode from
	// the newest header, not from the first one it meets.
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 8; i++ {
		denseUpdate(t, s, shadow, 1, rng)  // was PDL, goes OPU
		sparseUpdate(t, s, shadow, 5, rng) // was OPU, goes PDL
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, numPages, adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStateEquivalent(t, s, r, numPages)
	checkModeInvariant(t, r, numPages)
	// Sanity: the workload actually produced both populations, so the
	// equality above compared something interesting.
	var opu, pdl int
	for pid := 0; pid < numPages; pid++ {
		if r.mt.mode[pid] == ftl.ModeTagOPU {
			opu++
		} else {
			pdl++
		}
	}
	if opu == 0 || pdl == 0 {
		t.Fatalf("degenerate mode population: %d OPU, %d PDL", opu, pdl)
	}
}

func TestAdaptiveBatchWriteRoutesAndRecovers(t *testing.T) {
	const numPages = 16
	chip := flash.NewChip(ftltest.SmallParams(24))
	s, err := New(chip, numPages, adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	rng := rand.New(rand.NewSource(8))
	shadow := make([][]byte, numPages)
	var load []ftl.PageWrite
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		load = append(load, ftl.PageWrite{PID: uint32(pid), Data: shadow[pid]})
	}
	if err := s.WriteBatch(load); err != nil {
		t.Fatal(err)
	}
	if got := s.Telemetry().AdaptiveOPURoutes; got != numPages {
		t.Fatalf("batched initial load routed OPU %d times, want %d", got, numPages)
	}
	// Steady-state rounds through the batch path: sparse pids 0-3, dense
	// pids 4-7, pids 8+ untouched.
	for round := 0; round < 10; round++ {
		var batch []ftl.PageWrite
		for pid := 0; pid < 4; pid++ {
			off := rng.Intn(size - 8)
			rng.Read(shadow[pid][off : off+8])
			batch = append(batch, ftl.PageWrite{PID: uint32(pid), Data: shadow[pid]})
		}
		for pid := 4; pid < 8; pid++ {
			rng.Read(shadow[pid])
			batch = append(batch, ftl.PageWrite{PID: uint32(pid), Data: shadow[pid]})
		}
		if err := s.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.mt.modeOf(1); m != 0 {
		t.Fatalf("batched hot-sparse pid in mode %#x, want differential", m)
	}
	if m := s.mt.modeOf(6); m != ftl.ModeTagOPU {
		t.Fatalf("batched dense pid in mode %#x, want OPU tag", m)
	}
	buf := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d: content mismatch through batch path", pid)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(chip, numPages, adaptiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertStateEquivalent(t, s, r, numPages)
	checkModeInvariant(t, r, numPages)
}

// buildMigrationScenario deterministically drives an adaptive store to the
// brink of GC-piggybacked mode migration, arranging block 0 so that ONE
// collection relocates every migration flavor at once:
//
//   - pids 0-1: PDL-routed, cold, no differential linkage (their last
//     write was a Case-3 base page) → committed PDL→OPU migration
//   - pids 2-3: PDL-routed, cold, WITH durable differentials → migration
//     requested but demoted by relocateBaseFrom (diff still linked)
//   - pids 4-12: whole-page mode, cold → OPU stays OPU, no migration
//   - pid 13: PDL-routed and still hot → stays on the differential route
//
// Everything is flushed, so the durable state is exactly `shadow`.
func buildMigrationScenario(t *testing.T) (*Store, *flash.Chip, [][]byte) {
	t.Helper()
	// 14 logical pages: the loads fill block 0 pages 0-13, leaving pages
	// 14-15 for the Case-3 bases of pids 0-1 below.
	s, chip, shadow := loadAdaptiveStore(t, 16, 14)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		for pid := 0; pid < 4; pid++ {
			sparseUpdate(t, s, shadow, pid, rng)
		}
	}
	for pid := 0; pid < 2; pid++ {
		// A 480-byte update overflows the differential write buffer AND the
		// differential cap, but the 3:1-smoothed density EWMA stays sparse
		// for one sample — so the write takes Case 3: a fresh UNTAGGED base
		// page with the differential linkage released, leaving the pid
		// PDL-routed and diff-free, the committed-migration precondition.
		rng.Read(shadow[pid][:480])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// Heat pid 13 so it rides out the cooling below, then advance the
	// decay clock with writes that are flash no-ops (identical content on
	// the differential route): pids 0-3 cool past the cold threshold
	// without any device churn disturbing the block layout.
	for i := 0; i < 6; i++ {
		sparseUpdate(t, s, shadow, 13, rng)
	}
	for i := 0; i < 300; i++ {
		if err := s.WritePage(13, shadow[13]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Prime the router's GC-pressure EWMA as if the preceding collections
	// had relocated nearly-full victims: the migration under test is the
	// pressured cold-page flavor, and the 16-block chip is too small to
	// build the signal organically before the window closes. 256 decays by
	// 3/4 per collection, so pressure holds for the test's 8-collection
	// search even if the early victims are empty.
	s.adap.victimLoad.Store(256)
	for pid := 0; pid < 4; pid++ {
		if m := s.mt.modeOf(uint32(pid)); m != 0 {
			t.Fatalf("scenario setup: pid %d in mode %#x, want differential", pid, m)
		}
		dif, _ := s.mt.diffOf(uint32(pid))
		if wantDiff := pid >= 2; (dif != flash.NilPPN) != wantDiff {
			t.Fatalf("scenario setup: pid %d differential linkage = %v, want %v",
				pid, dif != flash.NilPPN, wantDiff)
		}
	}
	return s, chip, shadow
}

// collectUntilMigration runs foreground collection increments on every
// channel until a mode migration is recorded, returning how many chip
// operations (programs + erases) ran before the migrating collection
// started and after it finished. It fails if no collection migrates.
func collectUntilMigration(t *testing.T, s *Store, chip *flash.Chip) (before, after int64) {
	t.Helper()
	ops := func() int64 { st := chip.Stats(); return int64(st.Writes + st.Erases) }
	migrations := func() int64 {
		var n int64
		for ch := 0; ch < s.alloc.Channels(); ch++ {
			n += s.alloc.ChannelGC(ch).ModeMigrations
		}
		return n
	}
	for i := 0; i < 8; i++ {
		m0, o0 := migrations(), ops()
		collected, err := s.alloc.CollectOnceOn(0)
		if err != nil {
			t.Fatal(err)
		}
		if !collected {
			break
		}
		if migrations() > m0 {
			return o0, ops()
		}
	}
	t.Fatal("no collection performed a mode migration; scenario needs retuning")
	return 0, 0
}

func TestAdaptiveKillMidMigrationRecoversIdentically(t *testing.T) {
	// Control run: find the operation window of a collection that migrates
	// modes while relocating live pages.
	s, chip, shadow := buildMigrationScenario(t)
	before, after := collectUntilMigration(t, s, chip)
	if after <= before {
		t.Fatalf("empty migration window [%d, %d]", before, after)
	}
	// The control collection must have exercised both flavors: a committed
	// PDL→OPU migration (pid 0: cold, no differential) and a demoted one
	// (pid 2: cold but its differential keeps the mapping on PDL).
	if m := s.mt.modeOf(0); m != ftl.ModeTagOPU {
		t.Fatalf("control: cold diff-free pid 0 not migrated to OPU (mode %#x)", m)
	}
	if m := s.mt.modeOf(2); m != 0 {
		t.Fatalf("control: diff-linked pid 2 migrated to mode %#x, want demotion to PDL", m)
	}

	// The flushed durable state is what every recovery must reproduce,
	// byte-identical, no matter where inside the migrating collection the
	// power dies: GC migration is tag-only and content-neutral.
	for k := before + 1; k <= after; k++ {
		s, chip, shadow = buildMigrationScenario(t)
		base := chip.Stats()
		chip.SchedulePowerFailure(k - int64(base.Writes+base.Erases))
		var failed bool
		for i := 0; i < 8 && !failed; i++ {
			_, err := s.alloc.CollectOnceOn(0)
			failed = chip.PowerFailed()
			if err != nil && !errors.Is(err, flash.ErrPowerLoss) {
				t.Fatalf("kill point %d: unexpected error: %v", k, err)
			}
		}
		if !failed {
			t.Fatalf("kill point %d: power failure never fired", k)
		}
		r, err := Recover(chip, 14, adaptiveOptions())
		if err != nil {
			t.Fatalf("kill point %d: recovery failed: %v", k, err)
		}
		buf := make([]byte, len(shadow[0]))
		for pid := 0; pid < 14; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatalf("kill point %d, pid %d: %v", k, pid, err)
			}
			if !bytes.Equal(buf, shadow[pid]) {
				t.Fatalf("kill point %d, pid %d: recovered content differs from durable state", k, pid)
			}
		}
		checkModeInvariant(t, r, 14)
	}
}

func TestAdaptiveSurvivesRandomPowerLoss(t *testing.T) {
	// The adaptive analogue of TestRecoverAfterRandomPowerLoss: random
	// mixed traffic, power cut at a random operation, recovery must serve
	// a previously written version of every page and keep its routing
	// state consistent with the durable rule.
	for trial := 0; trial < 6; trial++ {
		s, chip, shadow := loadAdaptiveStore(t, 24, 16)
		vs := recordVersions(shadow)
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		chip.SchedulePowerFailure(int64(50 + rng.Intn(300)))
		size := len(shadow[0])
		for i := 0; i < 600 && !chip.PowerFailed(); i++ {
			pid := rng.Intn(16)
			if pid < 8 {
				off := rng.Intn(size - 8)
				rng.Read(shadow[pid][off : off+8])
			} else {
				rng.Read(shadow[pid])
			}
			err := s.WritePage(uint32(pid), shadow[pid])
			if err == nil {
				recordVersion(vs, pid, shadow[pid])
				if i%40 == 39 {
					if err := s.Flush(); err != nil && !errors.Is(err, flash.ErrPowerLoss) {
						t.Fatal(err)
					}
				}
				continue
			}
			if !errors.Is(err, flash.ErrPowerLoss) {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			// The interrupted write may or may not have reached flash.
			recordVersion(vs, pid, shadow[pid])
		}
		if !chip.PowerFailed() {
			chip.SchedulePowerFailure(-1)
		}
		r, err := Recover(chip, 16, adaptiveOptions())
		if err != nil {
			t.Fatalf("trial %d: recovery: %v", trial, err)
		}
		buf := make([]byte, size)
		for pid := 0; pid < 16; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatalf("trial %d pid %d: %v", trial, pid, err)
			}
			if !vs[pid][hash(buf)] {
				t.Fatalf("trial %d pid %d: recovered content was never written", trial, pid)
			}
		}
		checkModeInvariant(t, r, 16)
	}
}

// TestAdaptiveColdPlacementSurvivesPowerLoss cuts power at random points
// of a workload that keeps all three append points busy on an adaptive
// store: eight hot pages (sparse ones spill differential pages, dense ones
// rewrite into the hot stream) and a long tail of pages rewritten one
// every tenth write, dormant by their turn, whose base pages go to the cold
// stream beside the loaded pages collections relocate. Recovery must serve
// a written version of every page.
func TestAdaptiveColdPlacementSurvivesPowerLoss(t *testing.T) {
	const hot, numPages = 8, 200 // half of the chip's 384 pages
	for trial := 0; trial < 6; trial++ {
		s, chip, shadow := loadAdaptiveStore(t, 24, numPages)
		vs := recordVersions(shadow)
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		if trial > 0 { // trial 0 runs to the end and checks the scenario
			chip.SchedulePowerFailure(int64(300 + rng.Intn(1200)))
		}
		size := len(shadow[0])
		coldPlaced, tail := 0, hot
		for i := 0; i < 1200 && !chip.PowerFailed(); i++ {
			pid := rng.Intn(hot)
			switch {
			case i%10 == 9:
				pid = tail
				if tail++; tail == numPages {
					tail = hot
				}
				rng.Read(shadow[pid])
			case pid < hot/2:
				off := rng.Intn(size - 8)
				rng.Read(shadow[pid][off : off+8])
			default:
				rng.Read(shadow[pid])
			}
			err := s.WritePage(uint32(pid), shadow[pid])
			recordVersion(vs, pid, shadow[pid]) // an interrupted write may have landed
			if err != nil {
				if !errors.Is(err, flash.ErrPowerLoss) {
					t.Fatalf("trial %d op %d: %v", trial, i, err)
				}
				break
			}
			if base := entryOf(s, uint32(pid)).base; pid >= hot &&
				s.alloc.BlockStats(s.params.BlockOf(base)).Stream == ftl.StreamCold {
				coldPlaced++
			}
		}
		if trial == 0 {
			st := s.alloc.ChannelGC(0)
			if coldPlaced < 20 || st.DiffStreamPages == 0 || st.ColdMigrations == 0 {
				t.Fatalf("scenario: %d tail pages placed cold, %+v; want all three streams busy and relocations in cold blocks", coldPlaced, st)
			}
		}
		r, err := Recover(chip, numPages, adaptiveOptions())
		if err != nil {
			t.Fatalf("trial %d: recovery: %v", trial, err)
		}
		buf := make([]byte, size)
		for pid := 0; pid < numPages; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatalf("trial %d pid %d: %v", trial, pid, err)
			}
			if !vs[pid][hash(buf)] {
				t.Fatalf("trial %d pid %d: recovered content was never written", trial, pid)
			}
		}
		checkModeInvariant(t, r, numPages)
	}
}

func TestConformanceAdaptive(t *testing.T) {
	// The adaptive method must satisfy the same contract as every fixed
	// method: the suite's mixed update patterns exercise both routes and
	// every mode transition under GC pressure.
	ftltest.RunMethodSuite(t, func(dev flash.Device, numPages int) (ftl.Method, error) {
		return New(dev, numPages, adaptiveOptions())
	})
}
