package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pdl"
)

const (
	// One run builds and conditions the store at least minSetups times,
	// and until the set-ups took setupBudget seconds or maxSetups were
	// made; setup_s is the median, so one slow set-up cannot set it and a
	// set-up of a tenth of a second is still measured steadily.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2.0
	// recoverReps is how many times the abandoned device is recovered;
	// recover_s is the median. One recovery takes 20 to 60 ms on two worker
	// goroutines, and moves with the scheduler.
	recoverReps = 9
	// maxSpans bounds the traced run's span buffer (32 B a span). The
	// recording windows end early when it fills.
	maxSpans = 1 << 20
	// The traced run's pass-through and recording windows, as shares of the
	// measured phase's operations.
	passShare   = 0.15
	recordShare = 0.35
)

// options is one invocation's arguments.
type options struct {
	seed    int64
	seconds float64
	scale   float64 // multiplies records and blocks; 1 outside the tests
	trace   bool
	dir     string
}

// result is one workload's outcome; the last line of standard output is
// its correct, attempted, failed and metrics fields.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Also holds metrics measured beside the ones the invocation was asked
	// for; they are printed and kept in the -json file, not in the driver's
	// line.
	Also map[string]metricValue `json:"also,omitempty"`
}

// ops is how many operations share of w's measured phase is.
func (o options) ops(w *workload, share float64) int64 {
	return max(int64(float64(w.ops)*o.seconds/10*share), numWindows)
}

func (o options) config(traced bool) config {
	return config{seed: o.seed, scale: o.scale, dir: o.dir, traced: traced}
}

// restart is what the closing durability check measured.
type restart struct {
	recoverS         []float64
	reopenS          float64
	simMs            float64
	pagesScanned     float64
	validPages       int64
	attempted, fails int64
}

// checkRestart ends a run the way every workload ends. The measured
// phase was acknowledged; now issue updates that are never acknowledged,
// abandon the store with no flush, recover the device recoverReps times,
// reopen, and read everything back. Every key or page must hold its
// acknowledged content or a later unacknowledged one, byte for byte.
func (e *env) checkRestart() (restart, error) {
	var r restart
	p := forEach(e.cls, e.load.unacked)
	r.attempted, r.fails = p.ops, p.failed

	// Close stops the collectors only: differentials still in the write
	// buffers and dirty pool frames are lost, as in a crash.
	if err := e.store.Close(); err != nil {
		return r, fmt.Errorf("background collector: %w", err)
	}
	alloc := e.store.Allocator()
	for b := 0; b < e.inner.Params().NumBlocks; b++ {
		bs := alloc.BlockStats(b)
		r.validPages += int64(bs.Written - bs.Obsolete)
	}

	for i := 0; i < recoverReps; i++ {
		before := e.inner.Stats()
		t := time.Now()
		rs, err := pdl.Recover(e.inner, e.numPages, e.opts)
		d := time.Since(t)
		if err != nil {
			return r, fmt.Errorf("recover: %w", err)
		}
		r.recoverS = append(r.recoverS, d.Seconds())
		if i == 0 {
			cost := e.inner.Stats().Sub(before)
			r.simMs = float64(cost.TimeMicros) / 1000
			r.pagesScanned = float64(cost.Reads)
		}
		if i < recoverReps-1 {
			if err := rs.Close(); err != nil {
				return r, fmt.Errorf("recovered store: %w", err)
			}
			continue
		}
		e.store, e.method = rs, rs
	}
	t := time.Now()
	if err := e.load.reopen(e.store); err != nil {
		return r, err
	}
	r.reopenS = time.Since(t).Seconds()

	p = forEach(e.cls[:1], e.load.verifyAll)
	r.attempted += p.ops
	r.fails += p.failed
	return r, nil
}

func (r restart) metrics(m metrics, e *env) {
	m["recover_s"] = median(r.recoverS) + r.reopenS
	m["space_amp"] = per(float64(r.validPages)*float64(e.inner.Params().DataSize), float64(e.load.liveUserBytes()))
	m["recover.sim_ms"] = r.simMs
	m["recover.pages_scanned"] = r.pagesScanned
	if e.w.kv {
		m["recover.reopen_kv_ms"] = r.reopenS * 1000
	}
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the second collection drops what the sync.Pools kept through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// untraced builds the store in its real configuration, runs the measured
// phase, acknowledges it and runs the restart check, and fills in every
// metric that comes from wall clocks and public counters. The end-to-end
// invocation repeats the set-up for a steady setup_s.
func untraced(w *workload, o options, repeat bool, m metrics, res *result) error {
	var e *env
	var setups []float64
	for total := 0.0; ; {
		t := time.Now()
		var err error
		if e, err = build(w, o.config(false)); err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		setups = append(setups, d)
		total += d
		if n := len(setups); !repeat || n >= maxSetups || n >= minSetups && total >= setupBudget {
			break
		}
		e.discard()
	}
	defer e.discard()
	m["setup_s"] = median(setups)

	before := e.snapshot()
	p := runPhase(e.cls, o.ops(w, 1), true, e.load.step, nil)
	m["heap_mb"] = heapMB()
	// The counts run through the acknowledgement: a write-back store has
	// not paid for a Put until the page reaches flash, and on ycsb_b_hot,
	// whose pools never evict, that is all the flash cost there is.
	t := time.Now()
	if err := e.load.ack(); err != nil {
		return err
	}
	if w.kv {
		m["kv.sync_ms"] = time.Since(t).Seconds() * 1000
	}
	after := e.snapshot()
	wallMetrics(m, p)
	e.counterMetrics(m, before, after, p)

	r, err := e.checkRestart()
	if err != nil {
		return err
	}
	r.metrics(m, e)
	res.Attempted += p.ops + r.attempted
	res.Failed += p.failed + r.fails
	return nil
}

// traced runs the same set-up with both seams wrapped, one client and
// synchronous GC: a pass-through window with recording off, then the
// recording windows, then the acknowledgement. It fills in the per-layer
// time metrics and writes the span file.
func traced(w *workload, o options, m metrics, res *result) error {
	e, err := build(w, o.config(true))
	if err != nil {
		return err
	}
	defer e.discard()

	pass := runPhase(e.cls, o.ops(w, passShare), false, e.load.step, nil)
	m["driver.scaling_2c"] = m["ops_per_s"] * pass.secondsPerOp()

	gcBefore, devBefore := e.store.Allocator().GCStats(), e.inner.Stats()
	e.rec.on.Store(true)
	rec := runPhase(e.cls, o.ops(w, recordShare), false, e.load.step, e.rec.full)
	ack := len(e.rec.recorded())
	err = e.load.ack()
	e.rec.on.Store(false)
	if err != nil {
		return err
	}
	gcCost := e.store.Allocator().GCStats().Sub(gcBefore)
	devCost := e.inner.Stats().Sub(devBefore)

	spans := e.rec.recorded()
	spanMetrics(m, spans, ack, rec.ops, rec.wall.Nanoseconds(), w.kv)
	m["gc.sim_us_per_op"] = per(float64(gcCost.TimeMicros), float64(rec.ops))
	m["gc.sim_share"] = per(float64(gcCost.TimeMicros), float64(devCost.TimeMicros))
	m["trace.overhead_ratio"] = per(rec.secondsPerOp(), pass.secondsPerOp())
	kernelMetrics(m, e)

	res.Attempted += pass.ops + rec.ops
	res.Failed += pass.failed + rec.failed
	return writeTrace(filepath.Join(o.dir, "trace_"+w.name+".json"), w.name, spans)
}

// runWorkload is one invocation on one workload. The traced invocation
// runs the whole untraced phase first, so its counter metrics are those
// of the end-to-end invocation.
func runWorkload(w *workload, o options) (result, error) {
	res := result{Workload: w.name, Seed: o.seed, Seconds: o.seconds}
	m := metrics{}
	if err := untraced(w, o, !o.trace, m, &res); err != nil {
		return res, err
	}
	if !o.trace {
		res.Metrics = m.emit(endToEnd)
		res.Also = m.emit(untracedToo)
	} else {
		res.Trace = 1
		if err := traced(w, o, m, &res); err != nil {
			return res, err
		}
		res.Metrics = m.emit(perLayer)
	}
	res.Correct = res.Failed == 0
	return res, nil
}
