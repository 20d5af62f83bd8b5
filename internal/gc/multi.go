package gc

import "errors"

// MultiEngine runs one Engine — one collection goroutine, one watermark
// state machine — per flash channel. Each engine drives its own
// Collector, which collects victims of exactly one channel under that
// channel's serialization, so K channels reclaim space in parallel: a
// hot channel collecting does not stall allocation (or collection) on
// the others. Over a single-channel device the MultiEngine degenerates
// to one Engine and behaves exactly like PR 3's background collector.
//
// Watermarks are per channel: each engine compares its channel's erased
// block count against the same Config. Errors stay sticky per engine;
// Err surfaces the first one found (lowest channel index wins) and Stop
// joins all of them.
type MultiEngine struct {
	engines []*Engine
}

// NewMulti builds one engine per collector, all sharing cfg. The
// collector at index ch must confine itself to channel ch.
func NewMulti(collectors []Collector, cfg Config) *MultiEngine {
	m := &MultiEngine{engines: make([]*Engine, len(collectors))}
	for i, c := range collectors {
		m.engines[i] = New(c, cfg)
	}
	return m
}

// Channels returns the number of per-channel engines.
func (m *MultiEngine) Channels() int { return len(m.engines) }

// Engine returns channel ch's engine (tests and diagnostics).
func (m *MultiEngine) Engine(ch int) *Engine { return m.engines[ch] }

// Start launches every per-channel goroutine.
func (m *MultiEngine) Start() {
	for _, e := range m.engines {
		e.Start()
	}
}

// Kick nudges channel ch's engine. Like Engine.Kick it never blocks.
func (m *MultiEngine) Kick(ch int) { m.engines[ch].Kick() }

// Stop shuts every engine down, waits for all goroutines to exit, and
// joins their sticky errors.
func (m *MultiEngine) Stop() error {
	errs := make([]error, len(m.engines))
	for i, e := range m.engines {
		errs[i] = e.Stop()
	}
	return errors.Join(errs...)
}

// Err returns the first sticky collection error across channels, or nil.
func (m *MultiEngine) Err() error {
	for _, e := range m.engines {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Stats sums the per-channel engine stats.
func (m *MultiEngine) Stats() Stats {
	var s Stats
	for _, e := range m.engines {
		es := e.Stats()
		s.Wakeups += es.Wakeups
		s.Collected += es.Collected
	}
	return s
}

// ChannelStats returns channel ch's engine stats.
func (m *MultiEngine) ChannelStats(ch int) Stats { return m.engines[ch].Stats() }
