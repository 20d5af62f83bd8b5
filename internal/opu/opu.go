// Package opu implements the out-place update (OPU) page-based method, the
// paper's primary baseline (section 3, "The Page-Based Approach").
//
// OPU keeps a page-level logical-to-physical mapping table. To reflect an
// updated logical page it writes the whole page into a newly allocated
// physical page, sets the previous physical page obsolete (a spare-area
// program, counted as a write operation), and updates the mapping. Reads
// cost exactly one page read. Garbage collection relocates the valid pages
// of the victim block and erases it.
//
// The paper notes this page-level-mapped OPU "is known to have good
// performance even though the method consumes memory excessively" [9].
package opu

import (
	"fmt"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Store is an OPU flash translation layer over any flash device.
type Store struct {
	dev    flash.Device
	params flash.Params
	alloc  *ftl.Allocator

	numPages int
	mapping  []flash.PPN // pid -> ppn, NilPPN if never written
	reverse  map[flash.PPN]uint32
	ts       uint64

	scratch  []byte
	spareBuf []byte
}

var _ ftl.Method = (*Store)(nil)

// New builds an OPU store for a database of numPages logical pages over
// dev, keeping reserveBlocks erased blocks for garbage collection.
func New(dev flash.Device, numPages, reserveBlocks int) (*Store, error) {
	p := dev.Params()
	if numPages <= 0 {
		return nil, fmt.Errorf("opu: numPages must be positive, got %d", numPages)
	}
	if numPages > p.NumPages() {
		return nil, fmt.Errorf("opu: database of %d pages exceeds flash capacity of %d pages",
			numPages, p.NumPages())
	}
	if err := ftl.CheckHeaderFits(p.SpareSize); err != nil {
		return nil, fmt.Errorf("opu: %w", err)
	}
	s := &Store{
		dev:      dev,
		params:   p,
		alloc:    ftl.NewAllocator(dev, reserveBlocks),
		numPages: numPages,
		mapping:  make([]flash.PPN, numPages),
		reverse:  make(map[flash.PPN]uint32, numPages),
		scratch:  make([]byte, p.DataSize),
		spareBuf: make([]byte, p.SpareSize),
	}
	for i := range s.mapping {
		s.mapping[i] = flash.NilPPN
	}
	s.alloc.SetRelocator(s.relocate)
	return s, nil
}

// Name implements ftl.Method.
func (s *Store) Name() string { return "OPU" }

// Device implements ftl.Method.
func (s *Store) Device() flash.Device { return s.dev }

// PageSize implements ftl.Method.
func (s *Store) PageSize() int { return s.params.DataSize }

// Stats implements ftl.Method.
func (s *Store) Stats() flash.Stats { return s.dev.Stats() }

// NumPages returns the database size in logical pages.
func (s *Store) NumPages() int { return s.numPages }

// Allocator exposes the allocator for stats inspection.
func (s *Store) Allocator() *ftl.Allocator { return s.alloc }

// ReadPage implements ftl.Method: a single physical page read.
func (s *Store) ReadPage(pid uint32, buf []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(buf, s.params.DataSize); err != nil {
		return err
	}
	ppn := s.mapping[pid]
	if ppn == flash.NilPPN {
		return fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, pid)
	}
	return s.dev.ReadData(ppn, buf)
}

// WritePage implements ftl.Method: write the whole logical page into a new
// physical page, then set the old physical page obsolete.
func (s *Store) WritePage(pid uint32, data []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(data, s.params.DataSize); err != nil {
		return err
	}
	ppn, err := s.alloc.Alloc()
	if err != nil {
		return err
	}
	s.ts++
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeData, PID: pid, TS: s.ts}, s.spareBuf)
	if err := s.dev.Program(ppn, data, s.spareBuf); err != nil {
		return err
	}
	old := s.mapping[pid]
	s.mapping[pid] = ppn
	s.reverse[ppn] = pid
	if old != flash.NilPPN {
		delete(s.reverse, old)
		if err := s.alloc.MarkObsolete(old); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements ftl.Method; OPU buffers nothing.
func (s *Store) Flush() error { return nil }

// relocate moves the valid pages of a garbage-collection victim block to
// freshly allocated pages.
func (s *Store) relocate(victim int) error {
	p := s.params
	for i := 0; i < p.PagesPerBlock; i++ {
		ppn := p.PPNOf(victim, i)
		pid, ok := s.reverse[ppn]
		if !ok {
			continue // free or obsolete
		}
		if err := s.dev.ReadData(ppn, s.scratch); err != nil {
			return err
		}
		dst, err := s.alloc.Alloc()
		if err != nil {
			return err
		}
		s.ts++
		ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeData, PID: pid, TS: s.ts}, s.spareBuf)
		if err := s.dev.Program(dst, s.scratch, s.spareBuf); err != nil {
			return err
		}
		delete(s.reverse, ppn)
		s.mapping[pid] = dst
		s.reverse[dst] = pid
	}
	return nil
}
