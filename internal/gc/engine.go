// Package gc runs flash garbage collection incrementally on a background
// goroutine, so foreground page reflections stop paying for block
// reclamation inline.
//
// The paper's allocator (like JFFS's, footnote 14) cleans synchronously:
// when an allocation would dip into the erased-block reserve, the caller
// collects victims — relocating every valid page of each victim — before
// its own one-page write proceeds. That foreground cleaning is the
// dominant tail-latency source in page-mapping FTLs (Dayan & Bonnet,
// "Garbage Collection Techniques for Flash-Resident Page-Mapping FTLs").
// This package moves the same victim-selection + relocation work behind a
// watermark:
//
//	          free blocks
//	high ─────────────────────  engine idles
//	          ↓ drains
//	low  ─────────────────────  engine collects until ≥ high
//	          ↓ drains faster than collection
//	reserve ──────────────────  foreground backpressure: allocators
//	                            fall back to synchronous collection
//
// The engine is a three-state machine — idle (parked on its kick
// channel), collecting (one victim per increment, re-acquiring the
// caller's serialization between increments so foreground operations
// interleave), and stopped (after Stop, or after a collection error,
// which is kept sticky and re-surfaced by Err) — and it is policy-free:
// everything device- and method-specific lives behind the Collector
// interface.
package gc

import (
	"sync"
	"sync/atomic"
)

// Collector is the engine's view of the thing being collected. The PDL
// store implements it over its allocator: CollectOne takes the
// channel's lock, runs one allocator garbage-collection increment (victim
// selection, relocation, erase), and releases the lock.
type Collector interface {
	// CollectOne performs one bounded collection increment, returning
	// collected == false when nothing is reclaimable. It must do its own
	// locking; the engine calls it with no locks held and never
	// concurrently with itself.
	CollectOne() (collected bool, err error)
	// FreeBlocks returns the current erased-block count. It must be safe
	// to call from any goroutine without locks (the allocator keeps an
	// atomic mirror for exactly this).
	FreeBlocks() int
}

// Config sets the engine's watermarks, in erased blocks.
type Config struct {
	// LowWater arms the engine: a Kick while FreeBlocks() <= LowWater
	// starts collecting. Allocation paths kick after handing out a page
	// that leaves the pool at or below this mark.
	LowWater int
	// HighWater is where collection stops (hysteresis). Values <= LowWater
	// are raised to LowWater+1.
	HighWater int
}

// Stats counts what the engine has done, readable at any time.
type Stats struct {
	// Wakeups is the number of idle->collecting transitions.
	Wakeups int64
	// Collected is the number of victim blocks reclaimed in background.
	Collected int64
}

// Engine drives a Collector from its own goroutine. Create with New,
// arm with Start, nudge with Kick, and shut down with Stop. All methods
// are safe for concurrent use.
type Engine struct {
	c   Collector
	cfg Config

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	started  atomic.Bool
	stopped  atomic.Bool
	stopOnce sync.Once

	wakeups   atomic.Int64
	collected atomic.Int64
	err       atomic.Pointer[error] // first collection error, sticky
}

// New builds an engine over c. Start must be called before Kick has any
// effect.
func New(c Collector, cfg Config) *Engine {
	if cfg.LowWater < 1 {
		cfg.LowWater = 1
	}
	if cfg.HighWater <= cfg.LowWater {
		cfg.HighWater = cfg.LowWater + 1
	}
	return &Engine{
		c:    c,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Config returns the watermarks the engine runs with.
func (e *Engine) Config() Config { return e.cfg }

// Start launches the background goroutine. Starting twice is a no-op.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	go e.run()
}

// Kick nudges the engine: if the free-block count is at or below the low
// watermark it wakes up and collects until the high watermark is restored
// (or nothing is left to reclaim). Kick never blocks — redundant kicks
// coalesce — so allocation hot paths can call it while holding locks.
func (e *Engine) Kick() {
	if e.stopped.Load() {
		return
	}
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Stop shuts the engine down and waits for the goroutine to exit. It
// returns the sticky collection error, if any. Stop is idempotent, and a
// Stop before Start just marks the engine stopped.
func (e *Engine) Stop() error {
	e.stopOnce.Do(func() {
		e.stopped.Store(true)
		close(e.stop)
		if e.started.Load() {
			<-e.done
		}
	})
	return e.Err()
}

// Err returns the first error a background collection hit, or nil. After
// an error the engine stops collecting; foreground allocators then reach
// their synchronous fallback, which surfaces the underlying condition on
// the calling goroutine.
func (e *Engine) Err() error {
	if p := e.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns what the engine has done so far.
func (e *Engine) Stats() Stats {
	return Stats{
		Wakeups:   e.wakeups.Load(),
		Collected: e.collected.Load(),
	}
}

func (e *Engine) run() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case <-e.kick:
		}
		if e.c.FreeBlocks() > e.cfg.LowWater {
			continue // spurious kick; the pool is healthy
		}
		e.wakeups.Add(1)
		for e.c.FreeBlocks() < e.cfg.HighWater {
			select {
			case <-e.stop:
				return
			default:
			}
			collected, err := e.c.CollectOne()
			if err != nil {
				e.err.CompareAndSwap(nil, &err)
				return
			}
			if !collected {
				break // nothing reclaimable; wait for the next kick
			}
			e.collected.Add(1)
		}
	}
}
