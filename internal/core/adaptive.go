package core

import (
	"sync/atomic"

	"pdl/internal/ftl"
)

// Adaptive per-page logging: instead of fixing one update method for the
// whole device, the store tracks each logical page's update heat and
// differential density and routes every reflection per page — hot-sparse
// pages through the paper's differential path (cheap: a fraction of a
// program per write), cold or dense pages through whole-page OPU-style
// base writes (cheap: exactly one program, no differential linkage to
// read back or compact later). The idea follows "Adaptive Logging for
// Distributed In-memory Databases" (Yao et al.): no fixed method wins on
// flash operations per logical write under a mixed workload, so the
// method layer becomes a policy engine.
//
// Mode is a pure ROUTING HINT: reads never consult it (an OPU-mode page
// is simply a base page with no differential, which PDL_Reading already
// handles), so content correctness never depends on the tracker. The
// current mode of each pid lives in the mapTable next to the mapping it
// describes, is recorded durably in the spare-area header of base pages
// (ftl.ModeTagOPU at ftl's mode byte), and obeys one invariant in every
// interleaving:
//
//	mode == OPU  ⇔  the newest durable write for the pid is an
//	                OPU-tagged base page and no newer valid
//	                differential exists.
//
// setDiffPage forces mode back to PDL (a differential commit proves the
// differential route is active), and relocateBaseFrom refuses to commit
// an OPU migration while a valid differential is linked — which makes
// recovery's rule ("the winning base page's tag, overridden to PDL when
// a newer differential wins") reproduce the pre-crash routing state
// exactly.
//
// Migration PDL→OPU by garbage collection is TAG-ONLY: the collector
// re-emits the relocated base page byte-identical with the target mode
// tag and an unchanged time stamp. It deliberately does NOT merge the
// base with its differential — a shard buffer may hold a newer
// differential computed against the old base image, and GC cannot look
// (shard locks order above the channel locks) — so the differential linkage
// survives until the next foreground write releases it.

// AdaptiveOptions configures the adaptive per-page routing policy.
// Enabled turns it on; the remaining knobs default sensibly when zero.
type AdaptiveOptions struct {
	// Enabled turns on per-page adaptive routing between the
	// differential (PDL) and whole-page (OPU) routes.
	Enabled bool
	// HeatHalfLife is the decay constant of the per-page update counter,
	// in logical writes to the whole store: a page untouched for one
	// half-life loses half its heat. Zero means 2048.
	HeatHalfLife int
	// ColdHeat is the decayed-heat floor below which a page counts as
	// cold. A cold page with meaningful accumulated differential state
	// (or none measured yet) routes whole-page: rewriting it wholesale
	// frees its differential linkage, so later collections stop
	// re-compacting its records. Cold pages with tiny differentials stay
	// on the differential route — freeing next to nothing is not worth a
	// whole-page program. Zero means 48 (three writes' worth of heat
	// after one half-life).
	ColdHeat int
	// DenseMille is the density threshold in thousandths of a page: when
	// a page's EWMA of encoded-differential size exceeds this fraction,
	// the differential route is near or above one program per write and
	// the page routes whole-page. Zero means 500 (half a page).
	DenseMille int
	// CutMille is the instantaneous whole-page cut, in thousandths of a
	// page: a write whose freshly computed cumulative differential
	// exceeds this fraction takes the whole-page route on the spot,
	// resetting the pid's cumulative-differential escalation. Fixed PDL
	// only resets once the differential outgrows the write buffer — by
	// then each write has been re-logging most of a page; cutting the
	// cycle near the half-page mark minimizes the escalation's amortized
	// program cost (pay one program now, return the next writes to small
	// differentials). Zero means 500 (half a page).
	CutMille int
	// ProbeEvery is how many writes a measured-dense whole-page-routed
	// page goes between probes. A probe runs the full differential path
	// once; if the page turned sparse it switches back to PDL, otherwise
	// it stays on the whole-page route. Whole-page pages that are NOT
	// measured dense (initial loads, GC migrations of cold pages) probe
	// on their next write regardless, so a mis-routed page pays at most
	// one whole-page program before the router re-measures it. Zero
	// means 16.
	ProbeEvery int
}

// Tracker knob defaults.
const (
	defaultHeatHalfLife = 2048
	defaultColdHeat     = 48
	defaultDenseMille   = 500
	defaultCutMille     = 500
	defaultProbeEvery   = 16
	// heatBump is the heat a page gains per write; heatCap bounds it so
	// shifts decay any heat to zero in at most 16 half-lives.
	heatBump = 32
	heatCap  = 0xFFFF
)

// Packed per-pid tracker word layout (one atomic.Uint64 per pid):
//
//	[63:48] heat      exponentially decayed update counter
//	[47:32] density   EWMA of encoded differential size, in 1/65535ths
//	                  of a page (0xFFFF = "no sample yet")
//	[31:8]  lastSeen  low 24 bits of the store's logical-write clock at
//	                  the page's last write (decay reference point)
//	[7:0]   probe     writes since the page's last differential probe
const (
	trackHeatShift    = 48
	trackDensityShift = 32
	trackSeenShift    = 8
	trackSeenMask     = 0xFFFFFF
	trackProbeMask    = 0xFF
	densityUnknown    = 0xFFFF
)

// adaptiveState is the store-side routing state: one packed tracker word
// per pid plus the logical-write clock the decay is keyed to. Tracker
// words are MUTATED only under the owning pid's shard lock (the same
// serialization the write buffer enjoys, so read-modify-write needs no
// CAS loop), and READ lock-free by garbage collection when it re-evaluates
// a page it relocates — hence the atomics.
type adaptiveState struct {
	halfLife   uint64
	coldHeat   uint32
	dense      uint32 // density threshold in tracker units (1/65535ths)
	cutMille   uint32 // instantaneous whole-page cut in thousandths of a page
	probeEvery uint32

	// victimLoad is an EWMA (3·old+new)/4 of pages relocated per garbage
	// collection, fed by the store's relocator; halfBlock is the
	// pressure threshold (half the block size in pages). When the mean
	// victim is more than half valid, every collection relocates more
	// than it reclaims — the regime where shrinking a cold page's live
	// footprint with one wholesale rewrite pays for itself. The EWMA is
	// the router's own (not the allocator's resettable telemetry), so
	// benchmark counter resets cannot blind the policy.
	victimLoad atomic.Uint32
	halfBlock  uint32

	// clock counts logical writes store-wide; the decay time base.
	clock atomic.Uint64
	// track is the per-pid packed tracker word; see the layout above.
	//
	//pdlvet:holds shard
	track []atomic.Uint64
}

func newAdaptiveState(opts AdaptiveOptions, numPages int) *adaptiveState {
	a := &adaptiveState{
		halfLife:   uint64(opts.HeatHalfLife),
		coldHeat:   uint32(opts.ColdHeat),
		probeEvery: uint32(opts.ProbeEvery),
	}
	if a.halfLife == 0 {
		a.halfLife = defaultHeatHalfLife
	}
	if a.coldHeat == 0 {
		a.coldHeat = defaultColdHeat
	}
	mille := opts.DenseMille
	if mille == 0 {
		mille = defaultDenseMille
	}
	a.dense = uint32(uint64(mille) * 0xFFFF / 1000)
	a.cutMille = uint32(opts.CutMille)
	if a.cutMille == 0 {
		a.cutMille = defaultCutMille
	}
	if a.probeEvery == 0 {
		a.probeEvery = defaultProbeEvery
	}
	a.track = make([]atomic.Uint64, numPages)
	// Every page starts cold with unknown density: fresh stores and
	// initial loads route whole-page, the cheap bulk path.
	for i := range a.track {
		a.track[i].Store(densityUnknown << trackDensityShift)
	}
	return a
}

// decayedHeat returns w's heat decayed to clock time now: one halving per
// elapsed half-life since the page's last write.
func (a *adaptiveState) decayedHeat(w uint64, now uint64) uint32 {
	heat := uint32(w >> trackHeatShift)
	last := (w >> trackSeenShift) & trackSeenMask
	elapsed := (now - last) & trackSeenMask
	if shifts := elapsed / a.halfLife; shifts > 0 {
		if shifts >= 16 {
			return 0
		}
		heat >>= shifts
	}
	return heat
}

// route is the per-write routing decision, taken before the base page is
// read so a whole-page route skips that read entirely. It advances the
// clock, decays and bumps the pid's heat, and returns the route, and
// whether the pid was dormant: its heat had decayed to zero, so the tracker
// remembers no write of it (six half-lives after a lone write, more after
// a burst). A base page this write programs is then expected to live as
// long as one that survived a collection, and commit places it on the cold
// stream instead of among the hot base pages that die within a few writes
// (routing whole pages by lifetime; see ftl.Stream). hasBase
// reports whether the pid has a base page at all (a first-ever write has
// nothing to diff against, so whole-page is the only shape it can take);
// hasDiff reports whether the pid currently has differential state a
// wholesale rewrite could release (a durable differential linkage or a
// buffered differential). The caller holds the pid's shard lock.
//
//pdlvet:holds shard
func (a *adaptiveState) route(pid uint32, mode byte, hasBase, hasDiff bool) (kind routeKind, dormant bool) {
	now := a.clock.Add(1)
	w := a.track[pid].Load()
	heat := a.decayedHeat(w, now)
	wasCold := heat < a.coldHeat
	dormant = hasBase && heat == 0
	heat += heatBump
	if heat > heatCap {
		heat = heatCap
	}
	density := uint32(w>>trackDensityShift) & 0xFFFF
	probe := uint32(w) & trackProbeMask

	dense := density != densityUnknown && density > a.dense
	switch {
	case !hasBase:
		// Initial load: there is no base to diff against, so the write is
		// a whole page whichever route claims it — take the OPU route and
		// skip the pointless base-read attempt and comparison.
		kind = routeOPU
	case mode != ftl.ModeTagOPU:
		// Differential route, unless the diffs have grown dense, or the
		// page went cold with enough accumulated differential state that
		// one wholesale rewrite pays for itself (it releases the
		// linkage, so later collections stop re-compacting the records).
		// The freeing only buys anything while garbage collection is
		// expensive, so it is additionally gated on the pressure signal —
		// and on there being a differential to release at all: without
		// one the page is already a single live base page, and a rewrite
		// would buy nothing (a cold tail pid would otherwise pay a whole
		// program on every one of its rare writes). A cold page whose
		// differentials are tiny likewise stays differential — freeing
		// next to nothing is never worth a whole-page program. An
		// unmeasured page stays differential too: the diff both serves
		// the write cheaply and measures the density the next decision
		// needs.
		coldFree := wasCold && hasDiff && density != densityUnknown &&
			density > a.dense/2 && a.gcPressured()
		if dense || coldFree {
			kind = routeOPU
		} else {
			kind = routePDL
		}
	case density == densityUnknown, !dense, probe+1 >= a.probeEvery:
		// Whole-page route, but the mode is only sticky for pages whose
		// last measurement was dense: an unmeasured page (initial load),
		// a page whose measured density no longer justifies whole-page
		// writes (a GC migration or cold rewrite put it here), or a
		// dense page due its periodic re-measurement runs the
		// differential path once as a probe.
		kind = routeProbe
		probe = 0
	default:
		kind = routeOPU
		probe++
	}

	w = uint64(heat)<<trackHeatShift |
		uint64(density)<<trackDensityShift |
		(now&trackSeenMask)<<trackSeenShift |
		uint64(probe)
	a.track[pid].Store(w)
	return kind, dormant
}

// noteDensity folds one measured encoded-differential size into the pid's
// density EWMA (old+new)/2 and reports whether the page now counts as
// dense. The half-weight on history keeps the tracker responsive: a
// whole-page write resets the cumulative-differential state, and an EWMA
// that lags several samples behind would hold the page on the expensive
// route long after its differentials turned cheap again. The caller holds
// the pid's shard lock.
//
//pdlvet:holds shard
func (a *adaptiveState) noteDensity(pid uint32, encodedSize, pageSize int) (dense bool) {
	w := a.track[pid].Load()
	sample := uint32(uint64(encodedSize) * 0xFFFF / uint64(pageSize))
	if sample > 0xFFFF {
		sample = 0xFFFF
	}
	density := uint32(w>>trackDensityShift) & 0xFFFF
	if density == densityUnknown {
		density = sample
	} else {
		density = (density + sample) / 2
	}
	w = w&^(uint64(0xFFFF)<<trackDensityShift) | uint64(density)<<trackDensityShift
	a.track[pid].Store(w)
	return density > a.dense
}

// cut reports whether one write's freshly computed cumulative
// differential is past the instantaneous whole-page cut: re-logging this
// much of the page per write costs more over the escalation cycle than
// one wholesale rewrite that resets the cycle. The caller holds the
// pid's shard lock.
//
//pdlvet:holds shard
func (a *adaptiveState) cut(encodedSize, pageSize int) bool {
	return uint64(encodedSize)*1000 > uint64(a.cutMille)*uint64(pageSize)
}

// gcTargetMode is garbage collection's re-evaluation of a page it is
// relocating: the mode the relocated copy should be emitted in. It reads
// the tracker lock-free (collectors never take shard locks) — a torn
// moment-in-time read can at worst pick the old mode for one relocation,
// which the next write or collection corrects.
func (a *adaptiveState) gcTargetMode(pid uint32, mode byte) byte {
	w := a.track[pid].Load()
	heat := a.decayedHeat(w, a.clock.Load())
	density := uint32(w>>trackDensityShift) & 0xFFFF
	cold := heat < a.coldHeat
	dense := density != densityUnknown && density > a.dense
	if mode == ftl.ModeTagOPU {
		if !cold && !dense && density != densityUnknown {
			return 0 // hot and measured sparse: back to the differential route
		}
		return ftl.ModeTagOPU
	}
	// Promotion mirrors route: dense pages, and cold pages whose
	// accumulated differential state is worth freeing.
	if dense || (cold && (density == densityUnknown ||
		(density > a.dense/2 && a.gcPressured()))) {
		return ftl.ModeTagOPU
	}
	return 0
}

// routeKind is one write's routing decision.
type routeKind uint8

const (
	// routePDL runs the paper's differential path (Cases 1/2/3).
	routePDL routeKind = iota
	// routeOPU writes the whole logical page as a new OPU-tagged base
	// page, skipping the base read and the differential computation.
	routeOPU
	// routeProbe runs the differential path as a density probe for a
	// page currently on the whole-page route: a sparse result switches
	// the page back to PDL, a dense one re-writes it whole-page.
	routeProbe
)

// Adaptive reports whether the store routes writes adaptively.
func (s *Store) Adaptive() bool { return s.adap != nil }

// noteVictim folds one finished collection's relocated-page count into
// the victim-load EWMA. Called by the relocator under the victim's
// channel lock; collections on different channels can race the
// read-modify-write, and a lost update merely delays the heuristic by
// one collection, so no CAS loop is needed.
func (a *adaptiveState) noteVictim(moved int) {
	old := a.victimLoad.Load()
	a.victimLoad.Store((3*old + uint32(moved)) / 4)
}

// gcPressured reports whether garbage collection is currently expensive:
// the mean victim block was more than half valid. Lock-free; safe from
// the shard-locked write path and GC re-evaluation alike.
func (a *adaptiveState) gcPressured() bool {
	return a.victimLoad.Load() > a.halfBlock
}
