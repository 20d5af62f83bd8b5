// Package ipu implements the in-place update (IPU) page-based method
// (section 3 of the paper).
//
// IPU stores each logical page at a fixed physical page. Overwriting
// logical page l1 living in physical page p1 of block b1 takes four steps:
// (1) read all pages of b1 except p1; (2) erase b1; (3) write l1 into p1;
// (4) write the pages read in step (1) back. The paper includes IPU as the
// worst-case baseline: "the in-place update scheme suffers from severe
// performance problems and is rarely used in flash memory".
package ipu

import (
	"fmt"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Store is an IPU flash translation layer: logical page pid lives at
// physical page pid, permanently.
type Store struct {
	dev      flash.Device
	params   flash.Params
	numPages int
	written  []bool
	ts       uint64
	spareBuf []byte

	// scratch holds the data and spare of one whole block during the
	// read-erase-rewrite cycle.
	blockData  [][]byte
	blockSpare [][]byte
}

var _ ftl.Method = (*Store)(nil)

// New builds an IPU store for a database of numPages logical pages.
func New(dev flash.Device, numPages int) (*Store, error) {
	p := dev.Params()
	if numPages <= 0 {
		return nil, fmt.Errorf("ipu: numPages must be positive, got %d", numPages)
	}
	if numPages > p.NumPages() {
		return nil, fmt.Errorf("ipu: database of %d pages exceeds flash capacity of %d pages",
			numPages, p.NumPages())
	}
	if err := ftl.CheckHeaderFits(p.SpareSize); err != nil {
		return nil, fmt.Errorf("ipu: %w", err)
	}
	s := &Store{
		dev:        dev,
		params:     p,
		numPages:   numPages,
		written:    make([]bool, numPages),
		spareBuf:   make([]byte, p.SpareSize),
		blockData:  make([][]byte, p.PagesPerBlock),
		blockSpare: make([][]byte, p.PagesPerBlock),
	}
	for i := range s.blockData {
		s.blockData[i] = make([]byte, p.DataSize)
		s.blockSpare[i] = make([]byte, p.SpareSize)
	}
	return s, nil
}

// Name implements ftl.Method.
func (s *Store) Name() string { return "IPU" }

// Device implements ftl.Method.
func (s *Store) Device() flash.Device { return s.dev }

// PageSize implements ftl.Method.
func (s *Store) PageSize() int { return s.params.DataSize }

// Stats implements ftl.Method.
func (s *Store) Stats() flash.Stats { return s.dev.Stats() }

// NumPages returns the database size in logical pages.
func (s *Store) NumPages() int { return s.numPages }

// ReadPage implements ftl.Method: a single read of the fixed location.
func (s *Store) ReadPage(pid uint32, buf []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(buf, s.params.DataSize); err != nil {
		return err
	}
	if !s.written[pid] {
		return fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, pid)
	}
	return s.dev.ReadData(flash.PPN(pid), buf)
}

// WritePage implements ftl.Method. If the fixed physical page is still
// erased it is programmed directly (initial load); otherwise the whole
// containing block goes through the read-erase-rewrite cycle.
func (s *Store) WritePage(pid uint32, data []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	p := s.params
	if err := ftl.CheckPageBuf(data, p.DataSize); err != nil {
		return err
	}
	ppn := flash.PPN(pid)
	s.ts++
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeData, PID: pid, TS: s.ts}, s.spareBuf)

	if !s.written[pid] {
		// Initial load: the page is erased, program directly.
		if err := s.dev.Program(ppn, data, s.spareBuf); err != nil {
			return err
		}
		s.written[pid] = true
		return nil
	}

	blk := p.BlockOf(ppn)
	target := p.PageOf(ppn)
	// Step 1: read all other written pages of the block.
	occupied := make([]bool, p.PagesPerBlock)
	for i := 0; i < p.PagesPerBlock; i++ {
		if i == target {
			continue
		}
		other := p.PPNOf(blk, i)
		if int(other) >= s.numPages || !s.written[other] {
			continue
		}
		occupied[i] = true
		if err := s.dev.Read(other, s.blockData[i], s.blockSpare[i]); err != nil {
			return err
		}
	}
	// Step 2: erase the block.
	if err := s.dev.Erase(blk); err != nil {
		return err
	}
	// Step 3: write the updated logical page.
	if err := s.dev.Program(ppn, data, s.spareBuf); err != nil {
		return err
	}
	// Step 4: write the other pages back.
	for i := 0; i < p.PagesPerBlock; i++ {
		if !occupied[i] {
			continue
		}
		if err := s.dev.Program(p.PPNOf(blk, i), s.blockData[i], s.blockSpare[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements ftl.Method; IPU buffers nothing.
func (s *Store) Flush() error { return nil }
