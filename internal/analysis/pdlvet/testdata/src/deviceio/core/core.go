// Package core is the allowlisted half of the deviceio corpus: its
// path element ("core") may issue device mutations, so the under-lock
// rule and the raw-read funnel rule apply here.
package core

import "sync"

type Chip struct{ mu sync.RWMutex }

func (c *Chip) Read(p uint32, b []byte) error             { return nil }
func (c *Chip) ReadData(p uint32, b []byte) error         { return nil }
func (c *Chip) ReadSpare(p uint32, b []byte) error        { return nil }
func (c *Chip) Program(p uint32, b, spare []byte) error   { return nil }
func (c *Chip) ProgramSpare(p uint32, spare []byte) error { return nil }

// Allocator mirrors ftl.Allocator's two ways of retiring a page.
type Allocator struct{}

func (a *Allocator) MarkObsolete(p uint32) error { return nil }
func (a *Allocator) NoteObsolete(p uint32)       {}

type mapTable struct{ mu sync.RWMutex }

type Store struct {
	dev   *Chip
	mt    *mapTable
	alloc *Allocator
}

// goodProgram mutates the device from an allowlisted package with no
// inner lock held: silent.
func (s *Store) goodProgram(b []byte) {
	s.dev.Program(0, b, nil)
}

func (s *Store) badProgramUnderMapTable(b []byte) {
	s.mt.mu.Lock()
	defer s.mt.mu.Unlock()
	s.dev.Program(0, b, nil) // want `device Program call while holding the maptable lock`
}

// verifiedRead is a designated raw-read funnel: the directive on its doc
// comment blesses every device read in its body.
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) verifiedRead(p uint32, b, spare []byte) error {
	if spare == nil {
		return s.dev.ReadData(p, b)
	}
	return s.dev.Read(p, b)
}

// badRawRead reads the device outside a funnel: every byte it returns
// skipped verification.
func (s *Store) badRawRead(b []byte) {
	s.dev.Read(0, b) // want `raw device read Read outside a verifying funnel`
}

func (s *Store) badRawReadSpare(b []byte) {
	s.dev.ReadSpare(0, b) // want `raw device read ReadSpare outside a verifying funnel`
}

// suppressedRawRead demonstrates the line-level escape for call sites
// that are provably outside the verification contract.
func (s *Store) suppressedRawRead(b []byte) {
	//pdlvet:ignore deviceio reads a page the caller just programmed under its channel lock
	s.dev.Read(0, b)
}

// funnelStillLockChecked shows the funnel directive does not waive the
// under-lock rule: a funnel reading under the mapTable lock still
// reports.
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) funnelStillLockChecked(b []byte) {
	s.mt.mu.RLock()
	defer s.mt.mu.RUnlock()
	s.dev.Read(0, b) // want `device Read call while holding the maptable lock`
}

// goodRetire retires a superseded page in the allocator's counters: silent.
func (s *Store) goodRetire(p uint32) {
	s.alloc.NoteObsolete(p)
}

// badSpareProgram programs an obsolete flag itself: core never does.
func (s *Store) badSpareProgram(spare []byte) {
	s.dev.ProgramSpare(0, spare) // want `device ProgramSpare in core: page validity is DRAM state`
}

// badObsoleteMark retires a page with the allocator's physical mark: core
// never does.
func (s *Store) badObsoleteMark(p uint32) error {
	return s.alloc.MarkObsolete(p) // want `physical obsolete mark in core: page validity is DRAM state`
}
