package flash_test

// The full ftltest conformance matrix over the striped device with
// emulator sub-chips: every page-update method, the device-level batch
// suites, at channel counts 1 (degenerate pass-through) and 4. The
// suites themselves are unchanged — a striped device must be
// indistinguishable from a monolithic chip of the same total geometry.

import (
	"fmt"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/opu"
)

var stripedChannelCounts = []int{1, 4}

func forEachChannelCount(t *testing.T, run func(t *testing.T, dev ftltest.DeviceFactory)) {
	for _, nchan := range stripedChannelCounts {
		t.Run(fmt.Sprintf("channels=%d", nchan), func(t *testing.T) {
			run(t, ftltest.StripedDevice(nchan, ftltest.EmulatorDevice))
		})
	}
}

func TestPDLConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return core.New(d, numPages, core.Options{MaxDifferentialSize: 128})
		})
	})
}

func TestPDLBackgroundGCConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			s, err := core.New(d, numPages, core.Options{
				MaxDifferentialSize: 128,
				Shards:              4,
				BackgroundGC:        true,
			})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { s.Close() })
			return s, nil
		})
	})
}

func TestOPUConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return opu.New(d, numPages, 2)
		})
	})
}

func TestIPUConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return ipu.New(d, numPages)
		})
	})
}

func TestIPLConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return ipl.New(d, numPages, ipl.Options{})
		})
	})
}

func TestDeviceBatchConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, ftltest.RunDeviceBatchSuite)
}

func TestDeviceReadBatchConformanceOnStriped(t *testing.T) {
	forEachChannelCount(t, ftltest.RunDeviceReadBatchSuite)
}
