package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"pdl/internal/core"
	"pdl/internal/ftl"
	"pdl/internal/latency"
)

// TailPoint is one measured configuration of the garbage-collection
// tail-latency experiment: the wall-clock latency distribution of
// individual reflections (WritePage calls) under a given GC mode.
type TailPoint struct {
	// Mode is "sync" (the paper's foreground cleaning) or "background".
	Mode    string
	Workers int
	// Channels is the device's channel count (1: plain chip); background
	// mode runs one collector per channel.
	Channels int
	Ops      int64
	// Elapsed is the wall-clock time of the measured phase; throughput is
	// Ops/Elapsed — the experiment holds offered work equal across modes,
	// so the percentile columns compare at comparable throughput.
	Elapsed       time.Duration
	P50, P99, Max time.Duration
	// Latency is the full summary (p50/p90/p95/p99/max + histogram) that
	// the persisted report schema carries; P50/P99/Max above are its
	// table-column projections.
	Latency latency.Summary
	// GCRuns is the total number of victim collections during measurement;
	// BackgroundRuns of them ran on the engine goroutine, and Fallbacks
	// counts foreground allocations that hit the reserve floor anyway
	// (backpressure events).
	GCRuns         int64
	BackgroundRuns int64
	Fallbacks      int64
	// ChannelGC is the measured phase's per-channel collection breakdown.
	ChannelGC []ftl.ChannelGCStats
}

// OpsPerSecond returns reflections per wall-clock second.
func (p TailPoint) OpsPerSecond() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Elapsed.Seconds()
}

// ExpGCTail measures the reflection latency distribution of a PDL store
// with synchronous versus background garbage collection — the experiment
// behind the Options.BackgroundGC design. Both modes run the identical
// partitioned update workload with the same worker count and operation
// budget over identically conditioned databases; the only difference is
// where victim relocation runs. Synchronous mode charges entire
// collection cycles to whichever unlucky reflection triggered them (the
// foreground-cleaning tail Dayan & Bonnet identify); background mode
// moves them off the write path, so p99 and max should drop while p50 and
// throughput stay comparable.
//
// Latencies are host wall-clock (this is a lock/scheduling experiment,
// not a simulated-flash-cost one), so absolute numbers are hardware
// dependent; the sync-vs-background comparison is the result.
func ExpGCTail(g Geometry, maxDiff, workers, ops int) ([]TailPoint, error) {
	if workers < 1 {
		workers = 1
	}
	var points []TailPoint
	for _, mode := range []string{"sync", "background"} {
		pt, err := runTailPoint(g, mode, maxDiff, workers, ops)
		if err != nil {
			return nil, fmt.Errorf("bench: gctail %s: %w", mode, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

func runTailPoint(g Geometry, mode string, maxDiff, workers, ops int) (TailPoint, error) {
	numPages := g.NumPages()
	if numPages < workers {
		return TailPoint{}, fmt.Errorf("database of %d pages too small for %d workers", numPages, workers)
	}
	dev, err := g.device(g.Params, "gctail-"+mode)
	if err != nil {
		return TailPoint{}, err
	}
	defer dev.Close()
	s, err := core.New(dev, numPages, core.Options{
		MaxDifferentialSize: maxDiff,
		ReserveBlocks:       2,
		Shards:              workers,
		BackgroundGC:        mode == "background",
	})
	if err != nil {
		return TailPoint{}, err
	}
	defer s.Close()
	size := s.PageSize()

	// Load and condition single-threaded to the same GC steady state the
	// paper's experiments measure at, so both modes start with equally
	// fragmented flash.
	rng := rand.New(rand.NewSource(g.Seed))
	page := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			return TailPoint{}, err
		}
	}
	for i := 0; s.Allocator().MeanVictimRounds() < g.GCRounds && i < g.ConditionMaxOps; i++ {
		pid := uint32(rng.Intn(numPages))
		if err := s.ReadPage(pid, page); err != nil {
			return TailPoint{}, err
		}
		off := rng.Intn(size - 32)
		rng.Read(page[off : off+32])
		if err := s.WritePage(pid, page); err != nil {
			return TailPoint{}, err
		}
	}
	gcBefore := s.Allocator().GCRuns()
	bgBefore := s.BackgroundGCStats().Collected
	fbBefore := s.Telemetry().SyncGCFallbacks
	chBefore := ChannelGCOf(s)

	// Measure: workers own disjoint pid slices (pid % workers == w) and
	// each times its WritePage calls individually.
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		share := ops / workers
		if w < ops%workers {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.Seed + int64(w)*0x9E37))
			page := make([]byte, size)
			lat := make([]time.Duration, 0, share)
			partition := numPages / workers
			if w < numPages%workers {
				partition++
			}
			for i := 0; i < share; i++ {
				pid := uint32(rng.Intn(partition)*workers + w)
				if err := s.ReadPage(pid, page); err != nil {
					errs[w] = err
					return
				}
				off := rng.Intn(size - 32)
				rng.Read(page[off : off+32])
				t0 := time.Now()
				err := s.WritePage(pid, page)
				lat = append(lat, time.Since(t0))
				if err != nil {
					errs[w] = err
					return
				}
			}
			lats[w] = lat
		}(w, share)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return TailPoint{}, err
		}
	}
	if err := s.Close(); err != nil {
		return TailPoint{}, err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return TailPoint{}, fmt.Errorf("no reflections measured (ops=%d, workers=%d)", ops, workers)
	}
	// Summarize sorts in place; the percentile rule is the shared one in
	// internal/latency, so these columns and the persisted reports agree.
	sum := latency.Summarize(all)
	chGC := ChannelGCOf(s)
	for ch := range chGC {
		chGC[ch].Runs -= chBefore[ch].Runs
		chGC[ch].PagesMoved -= chBefore[ch].PagesMoved
		chGC[ch].ColdMigrations -= chBefore[ch].ColdMigrations
		chGC[ch].DiffStreamPages -= chBefore[ch].DiffStreamPages
	}
	return TailPoint{
		Mode:           mode,
		Workers:        workers,
		Channels:       s.Channels(),
		Ops:            sum.Count,
		Elapsed:        elapsed,
		P50:            latency.Percentile(all, 50),
		P99:            latency.Percentile(all, 99),
		Max:            all[len(all)-1],
		Latency:        sum,
		GCRuns:         s.Allocator().GCRuns() - gcBefore,
		BackgroundRuns: s.BackgroundGCStats().Collected - bgBefore,
		Fallbacks:      s.Telemetry().SyncGCFallbacks - fbBefore,
		ChannelGC:      chGC,
	}, nil
}

// WriteGCTailTable prints the tail-latency comparison.
func WriteGCTailTable(w io.Writer, points []TailPoint) {
	fmt.Fprintf(w, "%-12s %8s %6s %10s %12s %12s %12s %8s %8s %10s\n",
		"gc-mode", "workers", "chans", "ops/s", "p50-us", "p99-us", "max-us", "gc-runs", "bg-runs", "fallbacks")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %8d %6d %10.0f %12.1f %12.1f %12.1f %8d %8d %10d\n",
			p.Mode, p.Workers, p.Channels, p.OpsPerSecond(),
			float64(p.P50.Nanoseconds())/1000,
			float64(p.P99.Nanoseconds())/1000,
			float64(p.Max.Nanoseconds())/1000,
			p.GCRuns, p.BackgroundRuns, p.Fallbacks)
	}
}
