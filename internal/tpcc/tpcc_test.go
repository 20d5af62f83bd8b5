package tpcc

import (
	"errors"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/opu"
)

// tinyScale is a very small database for fast tests.
func tinyScale() Scale {
	return Scale{
		Warehouses:               1,
		ItemCount:                200,
		DistrictsPerWarehouse:    3,
		CustomersPerDistrict:     20,
		InitialOrdersPerDistrict: 20,
		MaxNewTransactions:       600,
	}
}

func newDB(t *testing.T, method func(chip *flash.Chip, numPages int) (ftl.Method, error), bufferPages int) *DB {
	t.Helper()
	s := tinyScale()
	pages, err := PagesNeeded(s, flash.DefaultDataSize)
	if err != nil {
		t.Fatal(err)
	}
	// Flash sized at ~2.5x the database for GC headroom.
	blocks := (pages*5/2)/flash.DefaultPagesPerBlock + 4
	chip := flash.NewChip(flash.ScaledParams(blocks))
	m, err := method(chip, pages)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(m, s, bufferPages, 7)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func pdlMethod(chip *flash.Chip, numPages int) (ftl.Method, error) {
	return core.New(chip, numPages, core.Options{MaxDifferentialSize: 256})
}

func opuMethod(chip *flash.Chip, numPages int) (ftl.Method, error) {
	return opu.New(chip, numPages, 2)
}

func TestScaleValidate(t *testing.T) {
	if err := DefaultScale(2).Validate(); err != nil {
		t.Errorf("default scale invalid: %v", err)
	}
	if err := (Scale{}).Validate(); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestPagesNeeded(t *testing.T) {
	pages, err := PagesNeeded(tinyScale(), flash.DefaultDataSize)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 50 {
		t.Errorf("PagesNeeded = %d, suspiciously small", pages)
	}
	if _, err := PagesNeeded(Scale{}, 2048); err == nil {
		t.Error("invalid scale accepted")
	}
}

func TestLoadAndRunAllTxTypes(t *testing.T) {
	db := newDB(t, pdlMethod, 64)
	for _, tt := range []TxType{TxNewOrder, TxPayment, TxOrderStatus, TxDelivery, TxStockLevel} {
		for i := 0; i < 5; i++ {
			if err := db.Run(tt); err != nil {
				t.Fatalf("%v #%d: %v", tt, i, err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestMixDistribution(t *testing.T) {
	db := newDB(t, opuMethod, 64)
	counts := map[TxType]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[db.NextTx()]++
	}
	frac := func(tt TxType) float64 { return float64(counts[tt]) / n * 100 }
	if f := frac(TxNewOrder); f < 40 || f > 50 {
		t.Errorf("NewOrder = %.1f%%, want ~45%%", f)
	}
	if f := frac(TxPayment); f < 38 || f > 48 {
		t.Errorf("Payment = %.1f%%, want ~43%%", f)
	}
	for _, tt := range []TxType{TxOrderStatus, TxDelivery, TxStockLevel} {
		if f := frac(tt); f < 2 || f > 7 {
			t.Errorf("%v = %.1f%%, want ~4%%", tt, f)
		}
	}
}

func TestSustainedMixedWorkload(t *testing.T) {
	db := newDB(t, pdlMethod, 48)
	for i := 0; i < 400; i++ {
		tt := db.NextTx()
		if err := db.Run(tt); err != nil {
			if errors.Is(err, ErrExhausted) {
				t.Fatalf("tx %d (%v): headroom exhausted too early", i, tt)
			}
			t.Fatalf("tx %d (%v): %v", i, tt, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The workload must have driven flash I/O through the method.
	if db.Pool().Method().Stats().Ops() == 0 {
		t.Error("no flash I/O recorded")
	}
}

func TestExhaustionIsReported(t *testing.T) {
	s := tinyScale()
	s.MaxNewTransactions = 30 // one new order per district then done
	pages, err := PagesNeeded(s, flash.DefaultDataSize)
	if err != nil {
		t.Fatal(err)
	}
	blocks := (pages*5/2)/flash.DefaultPagesPerBlock + 4
	chip := flash.NewChip(flash.ScaledParams(blocks))
	m, err := opuMethod(chip, pages)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(m, s, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	sawExhausted := false
	for i := 0; i < 2000; i++ {
		if err := db.Run(TxNewOrder); err != nil {
			if errors.Is(err, ErrExhausted) {
				sawExhausted = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawExhausted {
		t.Error("headroom exhaustion never reported")
	}
}

func TestSmallBufferCausesMoreIO(t *testing.T) {
	// Experiment 7's premise: a smaller DBMS buffer produces more flash
	// I/O per transaction.
	run := func(bufferPages int) int64 {
		db := newDB(t, opuMethod, bufferPages)
		dev := db.Pool().Method().Device()
		dev.ResetStats()
		for i := 0; i < 300; i++ {
			if err := db.Run(db.NextTx()); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats().TimeMicros
	}
	small := run(8)
	large := run(512)
	if small <= large {
		t.Errorf("small buffer I/O (%d us) <= large buffer I/O (%d us)", small, large)
	}
}
