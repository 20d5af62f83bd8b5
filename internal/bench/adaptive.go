package bench

import (
	"fmt"
	"io"
	"math/rand"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ipl"
	"pdl/internal/ycsb"
)

// The adaptive experiment measures the paper's cost metric — flash
// operations (programs + erases) per logical page write — under a mixed
// workload no fixed method wins outright: page popularity is zipfian, and
// each page has a density class (how much of the page an update dirties)
// assigned by hash. Sparse pages favor the differential route, dense
// pages favor whole-page writes, and the medium class drifts dense as
// cumulative differentials grow — exactly the regime the adaptive router
// is built for. Every method sees the identical operation trace.

// AdaptivePoint is one measured method of the adaptive experiment.
type AdaptivePoint struct {
	Method string
	// Ops is the number of measured logical writes.
	Ops int64
	// FlashOps is the cost metric over the measured phase, computed from
	// the device-counter delta so the denominator and numerator cover the
	// same window for every method (the route split stays zero for
	// non-adaptive methods other than PDLRouted == Ops).
	FlashOps core.FlashOpsPerLogicalWrite
	// ChannelGC is the per-channel collection breakdown of the measured
	// phase (nil for methods without the channel-aware allocator); its
	// ModeMigrations column counts GC-driven mode flips.
	ChannelGC []ftl.ChannelGCStats
}

// AdaptiveMethods returns the configurations the adaptive experiment
// compares: the adaptive router against all four fixed methods, with PDL
// at the paper's favored eighth-page Max_Differential_Size (the adaptive
// spec shares it, so its differential route is identically configured).
func AdaptiveMethods(p flash.Params) []MethodSpec {
	return []MethodSpec{
		{Kind: KindAdaptive, Param: p.DataSize / 8},
		{Kind: KindPDL, Param: p.DataSize / 8},
		{Kind: KindOPU},
		{Kind: KindIPU},
		{Kind: KindIPL, Param: 9 * p.PagesPerBlock / 64},
	}
}

// Density classes of the mixed workload, assigned per pid by hash:
// sparse updates dirty one 16-byte slot, medium updates one eighth-page
// region, dense updates rewrite the whole page.
const (
	classSparse = iota
	classMedium
	classDense
	// Class mix in percent: 60% of pids sparse, 25% medium, 15% dense.
	pctSparse = 60
	pctMedium = 25
)

// classOf assigns a pid its density class. The hash is independent of the
// zipfian rank scramble (different stream), so hot pids spread over all
// three classes.
func classOf(pid uint32) int {
	h := ycsb.Scramble(uint64(pid)*0x9E3779B97F4A7C15+0x1234) % 100
	switch {
	case h < pctSparse:
		return classSparse
	case h < pctSparse+pctMedium:
		return classMedium
	default:
		return classDense
	}
}

// adaptiveTrace generates the shared operation stream: zipfian pid
// selection plus a class-shaped mutation of the in-memory page image.
type adaptiveTrace struct {
	rng      *rand.Rand
	zipf     *ycsb.Zipfian
	numPages int
	pageSize int
	images   [][]byte
}

func newAdaptiveTrace(numPages, pageSize int, theta float64, seed int64) *adaptiveTrace {
	t := &adaptiveTrace{
		rng:      rand.New(rand.NewSource(seed)),
		zipf:     ycsb.NewZipfian(uint64(numPages), theta),
		numPages: numPages,
		pageSize: pageSize,
		images:   make([][]byte, numPages),
	}
	for pid := range t.images {
		t.images[pid] = make([]byte, pageSize)
		t.rng.Read(t.images[pid])
	}
	return t
}

// next picks the next pid and mutates its image per its density class,
// returning the pid and the up-to-date page content.
func (t *adaptiveTrace) next() (uint32, []byte) {
	pid := uint32(ycsb.Scramble(t.zipf.Next(t.rng)) % uint64(t.numPages))
	img := t.images[pid]
	switch classOf(pid) {
	case classSparse:
		// One of the page's first eight 16-byte slots: the cumulative
		// differential stays within ~128 bytes of payload.
		off := int(t.rng.Intn(8)) * 16
		t.rng.Read(img[off : off+16])
	case classMedium:
		// One eighth-page region of eight: single updates are moderate,
		// but the cumulative differential against a fixed base drifts
		// toward the whole page.
		region := t.pageSize / 8
		off := int(t.rng.Intn(8)) * region
		t.rng.Read(img[off : off+region])
	default:
		t.rng.Read(img)
	}
	return pid, img
}

// ExpAdaptive runs the adaptive experiment at one channel count: every
// method in AdaptiveMethods is loaded, conditioned to the geometry's
// garbage-collection steady state under the mixed workload, and then
// measured over g.MeasureOps operations of the identical trace.
func ExpAdaptive(g Geometry, theta float64) ([]AdaptivePoint, error) {
	var points []AdaptivePoint
	numPages := g.NumPages()
	for _, spec := range AdaptiveMethods(g.Params) {
		name := spec.Name(g.Params)
		dev, err := g.device(g.Params, "adaptive-"+name)
		if err != nil {
			return nil, fmt.Errorf("bench: device for %s: %w", name, err)
		}
		m, err := spec.Build(dev, numPages)
		if err != nil {
			dev.Close()
			return nil, fmt.Errorf("bench: building %s: %w", name, err)
		}
		p, err := runAdaptiveOne(g, m, theta)
		m.Device().Close()
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive %s: %w", name, err)
		}
		p.Method = name
		points = append(points, p)
	}
	return points, nil
}

// runAdaptiveOne loads, conditions, and measures one built method.
func runAdaptiveOne(g Geometry, m ftl.Method, theta float64) (AdaptivePoint, error) {
	numPages := g.NumPages()
	trace := newAdaptiveTrace(numPages, m.PageSize(), theta, g.Seed)
	for pid := 0; pid < numPages; pid++ {
		if err := m.WritePage(uint32(pid), trace.images[pid]); err != nil {
			return AdaptivePoint{}, fmt.Errorf("loading pid %d: %w", pid, err)
		}
	}
	if err := m.Flush(); err != nil {
		return AdaptivePoint{}, err
	}

	// Condition to the steady-state criterion under the same mixed trace
	// (mirrors workload.Driver.Condition, which drives a uniform trace).
	const batch = 512
	for done := 0; done < g.ConditionMaxOps && meanGCRounds(m) < g.GCRounds; done += batch {
		for i := 0; i < batch; i++ {
			pid, img := trace.next()
			if err := m.WritePage(pid, img); err != nil {
				return AdaptivePoint{}, fmt.Errorf("conditioning: %w", err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		return AdaptivePoint{}, err
	}

	dev := m.Device()
	dev.ResetStats()
	ResetGCStatsOf(m)
	store, _ := m.(*core.Store)
	var telBefore core.Telemetry
	if store != nil {
		telBefore = store.Telemetry()
	}

	ops := g.MeasureOps
	for i := 0; i < ops; i++ {
		pid, img := trace.next()
		if err := m.WritePage(pid, img); err != nil {
			return AdaptivePoint{}, fmt.Errorf("measuring: %w", err)
		}
	}
	// Charge buffered differentials to the measured phase.
	if err := m.Flush(); err != nil {
		return AdaptivePoint{}, err
	}

	st := dev.Stats()
	p := AdaptivePoint{
		Ops:       int64(ops),
		ChannelGC: ChannelGCOf(m),
	}
	p.FlashOps = core.FlashOpsPerLogicalWrite{
		LogicalWrites: int64(ops),
		Programs:      st.Writes,
		Erases:        st.Erases,
		PDLRouted:     int64(ops),
	}
	if p.FlashOps.LogicalWrites > 0 {
		p.FlashOps.PerWrite = float64(p.FlashOps.Programs+p.FlashOps.Erases) /
			float64(p.FlashOps.LogicalWrites)
	}
	if store != nil && store.Adaptive() {
		tel := store.Telemetry()
		p.FlashOps.PDLRouted = tel.AdaptivePDLRoutes - telBefore.AdaptivePDLRoutes
		p.FlashOps.OPURouted = tel.AdaptiveOPURoutes - telBefore.AdaptiveOPURoutes
	}
	return p, nil
}

// WriteAdaptiveTable prints one channel count's measured points: the cost
// metric, its decomposition, the adaptive route split, and the GC-driven
// mode migrations.
func WriteAdaptiveTable(w io.Writer, points []AdaptivePoint) {
	fmt.Fprintf(w, "%-12s %12s %10s %8s %12s %12s %10s\n",
		"method", "flashops/wr", "programs", "erases", "pdl_routed", "opu_routed", "gc_migr")
	for _, p := range points {
		var migr int64
		for _, ch := range p.ChannelGC {
			migr += ch.ModeMigrations
		}
		fmt.Fprintf(w, "%-12s %12.4f %10d %8d %12d %12d %10d\n",
			p.Method, p.FlashOps.PerWrite, p.FlashOps.Programs, p.FlashOps.Erases,
			p.FlashOps.PDLRouted, p.FlashOps.OPURouted, migr)
	}
}

// meanGCRounds estimates how many times the average block has been
// reclaimed (the conditioning criterion; mirrors workload.Driver).
func meanGCRounds(m ftl.Method) float64 {
	numBlocks := float64(m.Device().Params().NumBlocks)
	switch v := m.(type) {
	case *ipl.Store:
		return float64(v.Merges()) / numBlocks
	case interface{ Allocator() *ftl.Allocator }:
		return v.Allocator().MeanVictimRounds()
	default:
		return float64(m.Stats().Erases) / numBlocks
	}
}
