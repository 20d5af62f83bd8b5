package pdlvet

import "pdl/internal/analysis/vetkit"

// Analyzers returns the full pdlvet suite in reporting order.
func Analyzers() []*vetkit.Analyzer {
	return []*vetkit.Analyzer{LockOrder, DeviceIO, AtomicCounter}
}
