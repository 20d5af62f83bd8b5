package atomiccounter

import (
	"sync"
	"sync/atomic"
)

// Counters mirrors flash.Counters: the all-atomic counter struct whose
// fields must only be touched through the sync/atomic API.
type Counters struct {
	reads  atomic.Int64
	writes atomic.Int64
}

type Dev struct {
	counters Counters
}

func (d *Dev) goodAtomic() int64 {
	d.counters.reads.Add(1)
	d.counters.writes.Store(0)
	return d.counters.reads.Load()
}

func (d *Dev) badPlainField() int64 {
	r := d.counters.reads // want `field reads of atomic counter struct Counters accessed outside the sync/atomic API`
	return r.Load()
}

// writeTelemetry and integrityTelemetry mirror core's write-path and
// integrity counter blocks, which are checked like its readTelemetry.
type writeTelemetry struct {
	bufferFlushes atomic.Int64
}

type integrityTelemetry struct {
	pagesHealed atomic.Int64
}

type Store struct {
	wtel writeTelemetry
	itel integrityTelemetry
}

func (s *Store) goodBlocks() int64 {
	s.wtel.bufferFlushes.Add(1)
	return s.itel.pagesHealed.Load()
}

func (s *Store) badCopies() {
	w := s.wtel.bufferFlushes // want `field bufferFlushes of atomic counter struct writeTelemetry accessed outside the sync/atomic API`
	h := &s.itel.pagesHealed  // want `field pagesHealed of atomic counter struct integrityTelemetry accessed outside the sync/atomic API`
	_, _ = w.Load(), h.Load()
}

// Telemetry mirrors core.Telemetry: a plain counter container.
type Telemetry struct {
	Flushes int64
}

// Mixed bumps one site atomically and another bare: every plain access
// is reported, whatever lock it happens to hold.
type Mixed struct {
	tel Telemetry
}

func (m *Mixed) goodAtomicAdd() {
	atomic.AddInt64(&m.tel.Flushes, 1)
}

func (m *Mixed) badPlainBump() {
	m.tel.Flushes++ // want `plain access of counter Mixed.tel, which is accessed with sync/atomic elsewhere \(mixed access\)`
}

// Alloc mirrors ftl.Allocator.gcStats: writes follow a caller-holds
// convention the analyzer cannot see, so no guard is inferred and no
// access is reported.
type Alloc struct {
	mu      sync.Mutex
	gcStats Stats
}

func (a *Alloc) bump() {
	a.gcStats.Reads++
}

func (a *Alloc) snapshot() Stats {
	return a.gcStats
}
