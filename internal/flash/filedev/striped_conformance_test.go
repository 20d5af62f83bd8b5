package filedev_test

// The striped conformance matrix with file-backed sub-devices: each
// channel gets its own image file, the way a multi-channel SSD gives
// each channel its own flash package. Channel counts 1 and 4 run the
// identical ftltest suites as the monolithic backends.

import (
	"fmt"
	"path/filepath"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/opu"
)

// stripedFileDevice builds a striped device whose sub-devices are
// file-backed, one image file per channel.
func stripedFileDevice(nchan int) ftltest.DeviceFactory {
	return ftltest.StripedDevice(nchan, func(t *testing.T, p flash.Params) flash.Device {
		d, err := filedev.Open(filepath.Join(t.TempDir(), "chan.img"), filedev.Options{Params: p})
		if err != nil {
			t.Fatalf("filedev.Open: %v", err)
		}
		return d
	})
}

func forEachStripedFileDevice(t *testing.T, run func(t *testing.T, dev ftltest.DeviceFactory)) {
	for _, nchan := range []int{1, 4} {
		t.Run(fmt.Sprintf("channels=%d", nchan), func(t *testing.T) {
			run(t, stripedFileDevice(nchan))
		})
	}
}

func TestPDLConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return core.New(d, numPages, core.Options{MaxDifferentialSize: 128})
		})
	})
}

func TestPDLBackgroundGCConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, func(t *testing.T, dev ftltest.DeviceFactory) {
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

func TestOPUConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return opu.New(d, numPages, 2)
		})
	})
}

func TestIPUConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return ipu.New(d, numPages)
		})
	})
}

func TestIPLConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, func(t *testing.T, dev ftltest.DeviceFactory) {
		ftltest.RunMethodSuiteOn(t, dev, func(d flash.Device, numPages int) (ftl.Method, error) {
			return ipl.New(d, numPages, ipl.Options{})
		})
	})
}

func TestDeviceBatchConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, ftltest.RunDeviceBatchSuite)
}

func TestDeviceReadBatchConformanceOnStripedFileDevice(t *testing.T) {
	forEachStripedFileDevice(t, ftltest.RunDeviceReadBatchSuite)
}
