package bench

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/tpcc"
)

// closeCounter is a flash.Device that reports its Close to the test.
type closeCounter struct {
	flash.Device
	closes *int
}

func (c closeCounter) Close() error {
	*c.closes++
	return c.Device.Close()
}

// TestExperimentsCloseTheirDevices holds the rule that every device a
// Geometry.NewDevice hook hands out is closed exactly once, on the error
// paths too: a file-backed run otherwise leaks one descriptor (and, under
// SyncOnClose, one unsynced image) per point.
func TestExperimentsCloseTheirDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	var opens, closes int
	g := testGeometry()
	g.MeasureOps = 500
	g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
		opens++
		return closeCounter{flash.NewChip(p), &closes}, nil
	}
	specs := []MethodSpec{{Kind: KindOPU}, {Kind: KindPDL, Param: g.Params.DataSize / 8}}
	check := func(what string, want int) {
		t.Helper()
		if opens != want || closes != want {
			t.Errorf("%s: %d devices opened, %d closed, want %d of each", what, opens, closes, want)
		}
		opens, closes = 0, 0
	}

	if _, err := Exp1(g, specs); err != nil {
		t.Fatal(err)
	}
	check("Exp1", len(specs))

	cfg := Exp7Config{
		Scale: tpcc.Scale{
			Warehouses:               1,
			ItemCount:                100,
			DistrictsPerWarehouse:    2,
			CustomersPerDistrict:     10,
			InitialOrdersPerDistrict: 10,
			MaxNewTransactions:       500,
		},
		BufferPcts: []float64{1, 10},
		WarmupTxns: 20,
		MeasureTxn: 50,
		Seed:       1,
	}
	if _, err := Exp7(g, specs, cfg); err != nil {
		t.Fatal(err)
	}
	check("Exp7", len(specs)*len(cfg.BufferPcts))

	// A database larger than the device: Build refuses it, and prepare
	// must not keep the device it had already opened.
	g.DBFrac = 2
	if _, err := Exp1(g, specs[:1]); err == nil {
		t.Fatal("Exp1 accepted a database twice the size of the device")
	}
	check("failed prepare", 1)
}

// TestExp1BackendIndependent holds the rule that the simulated tables do
// not depend on the storage medium: access patterns are a function of the
// method and the seed, so Exp1 over filedev files returns the rows it
// returns over the emulator.
func TestExp1BackendIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	emu, err := exp1Emu()
	if err != nil {
		t.Fatal(err)
	}
	g := testGeometry()
	specs := StandardMethods(g.Params)
	dir := t.TempDir()
	var runs int
	g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
		runs++
		return filedev.Open(filepath.Join(dir, fmt.Sprintf("run%d.flash", runs)),
			filedev.Options{Params: p, Reset: true})
	}
	file, err := Exp1(g, specs)
	if err != nil {
		t.Fatal(err)
	}
	if runs != len(specs) {
		t.Errorf("file backend opened %d devices, want %d", runs, len(specs))
	}
	if !reflect.DeepEqual(emu, file) {
		t.Errorf("Exp1 rows differ between backends:\n emu  %+v\n file %+v", emu, file)
	}
}
