// Package bench reproduces the paper's evaluation (section 5): it builds
// the six compared method configurations, conditions each database to a
// garbage-collection steady state, and runs Experiments 1-7, emitting the
// same rows and series the paper's figures plot.
//
// Experiments 1-4 are one sweep (prepare, measure, release, Row) over one
// parameter each; Experiment 5 recomputes Experiment 1's rows under other
// timings, Experiment 6 prints Experiment 2's erase counts, and Experiment
// 7 runs TPC-C. A Suite runs them by id and prints each as a table,
// reusing Experiment 1's and 2's rows for 5 and 6.
//
// All reported times are simulated flash I/O times (see internal/flash);
// shapes and ratios are comparable with the paper even though the
// default geometry is scaled down from the 2-Gbyte chip.
package bench

import (
	"fmt"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/opu"
)

// Kind selects a page-update method family.
type Kind int

// Method families compared in the paper.
const (
	KindPDL Kind = iota
	KindOPU
	KindIPU
	KindIPL
)

// MethodSpec describes one method configuration.
type MethodSpec struct {
	Kind Kind
	// Param is Max_Differential_Size in bytes for PDL, or log pages per
	// block for IPL. Ignored for OPU and IPU.
	Param int
}

// StandardMethods returns the six configurations of Figure 12, scaled to
// the page geometry: IPL(18KB), IPL(64KB), PDL(2KB), PDL(256B), OPU, IPU.
// For non-default page sizes the same fractions are kept (differentials up
// to one page / one eighth of a page; 9/64 and 32/64 of each block as log
// pages).
func StandardMethods(p flash.Params) []MethodSpec {
	return []MethodSpec{
		{Kind: KindIPL, Param: 9 * p.PagesPerBlock / 64},
		{Kind: KindIPL, Param: 32 * p.PagesPerBlock / 64},
		{Kind: KindPDL, Param: p.DataSize},
		{Kind: KindPDL, Param: p.DataSize / 8},
		{Kind: KindOPU},
		{Kind: KindIPU},
	}
}

// Build constructs the method over a fresh device.
func (s MethodSpec) Build(dev flash.Device, numPages int) (ftl.Method, error) {
	switch s.Kind {
	case KindPDL:
		return core.New(dev, numPages, core.Options{
			MaxDifferentialSize: s.Param,
			// The paper-reproduction experiments measure PDL_Reading as
			// published — two flash reads for a diff-bearing page — so the
			// differential cache is pinned off here; the ycsb_c_cold
			// workload of benchmark/ measures the cache's effect.
			DiffCachePages: core.DiffCacheOff,
		})
	case KindOPU:
		return opu.New(dev, numPages, 2)
	case KindIPU:
		return ipu.New(dev, numPages)
	case KindIPL:
		return ipl.New(dev, numPages, ipl.Options{LogPagesPerBlock: s.Param})
	default:
		return nil, fmt.Errorf("bench: unknown method kind %d", s.Kind)
	}
}

// Name returns the reporting label of the spec for the given geometry.
func (s MethodSpec) Name(p flash.Params) string {
	switch s.Kind {
	case KindPDL:
		if s.Param >= 1024 && s.Param%1024 == 0 {
			return fmt.Sprintf("PDL(%dKB)", s.Param/1024)
		}
		return fmt.Sprintf("PDL(%dB)", s.Param)
	case KindOPU:
		return "OPU"
	case KindIPU:
		return "IPU"
	case KindIPL:
		b := s.Param * p.DataSize
		if b >= 1024 && b%1024 == 0 {
			return fmt.Sprintf("IPL(%dKB)", b/1024)
		}
		return fmt.Sprintf("IPL(%dB)", b)
	default:
		return "?"
	}
}

// GCStatsOf extracts the garbage-collection cost a method accumulated
// (relocation + erase for PDL/OPU, merges for IPL, none for IPU).
func GCStatsOf(m ftl.Method) flash.Stats {
	switch v := m.(type) {
	case interface{ Allocator() *ftl.Allocator }:
		return v.Allocator().GCStats()
	case *ipl.Store:
		return v.GCStats()
	default:
		return flash.Stats{}
	}
}

// ResetGCStatsOf zeroes a method's garbage-collection accounting.
func ResetGCStatsOf(m ftl.Method) {
	switch v := m.(type) {
	case interface{ Allocator() *ftl.Allocator }:
		v.Allocator().ResetGCStats()
	case *ipl.Store:
		v.ResetGCStats()
	}
}
