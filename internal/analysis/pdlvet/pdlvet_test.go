package pdlvet

import (
	"testing"

	"pdl/internal/analysis/vetkit"
	"pdl/internal/analysis/vetkit/vettest"
)

func TestLockOrder(t *testing.T) {
	vettest.Run(t, "testdata/src", []*vetkit.Analyzer{LockOrder}, "lockorder")
}

func TestDeviceIO(t *testing.T) {
	vettest.Run(t, "testdata/src", []*vetkit.Analyzer{DeviceIO}, "deviceio", "deviceio/core")
}

func TestAtomicCounter(t *testing.T) {
	vettest.Run(t, "testdata/src", []*vetkit.Analyzer{AtomicCounter}, "atomiccounter")
}
