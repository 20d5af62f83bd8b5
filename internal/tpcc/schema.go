// Package tpcc implements a scaled TPC-C workload over the storage layer,
// reproducing Experiment 7 of the paper: I/O time per transaction as the
// DBMS buffer size varies from 0.1% to 10% of the database.
//
// The paper ran TPC-C on the Odysseus ORDBMS; here the substrate is this
// module's own heap/buffer stack. What Experiment 7 actually measures is
// the flash cost of the TPC-C page reference string — a skewed mix of
// small record updates (New-Order, Payment) and reads (Order-Status,
// Stock-Level) — filtered through a DBMS buffer, and that is preserved.
// Record layouts carry the TPC-C fields at realistic sizes; row counts
// scale down with the warehouse count and a scale factor so the database
// fits an emulated chip. Primary-key lookups go through in-memory indexes:
// index pages are excluded identically for every method, so the comparison
// between methods is unaffected.
package tpcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Scale configures database sizing.
type Scale struct {
	// Warehouses is the number of warehouses (TPC-C's scaling unit).
	Warehouses int
	// ItemCount is the size of the ITEM table (TPC-C: 100,000).
	ItemCount int
	// DistrictsPerWarehouse (TPC-C: 10).
	DistrictsPerWarehouse int
	// CustomersPerDistrict (TPC-C: 3,000).
	CustomersPerDistrict int
	// InitialOrdersPerDistrict (TPC-C: 3,000).
	InitialOrdersPerDistrict int
	// MaxNewTransactions bounds how many transactions the grown tables
	// (ORDER, ORDER-LINE, HISTORY, NEW-ORDER) must accommodate.
	MaxNewTransactions int
}

// DefaultScale returns a laptop-scale configuration: the TPC-C shape with
// row counts divided by roughly 20.
func DefaultScale(warehouses int) Scale {
	return Scale{
		Warehouses:               warehouses,
		ItemCount:                5000,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     150,
		InitialOrdersPerDistrict: 150,
		MaxNewTransactions:       20000,
	}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	switch {
	case s.Warehouses < 1:
		return fmt.Errorf("tpcc: need at least one warehouse")
	case s.ItemCount < 10:
		return fmt.Errorf("tpcc: ItemCount too small")
	case s.DistrictsPerWarehouse < 1 || s.CustomersPerDistrict < 3 || s.InitialOrdersPerDistrict < 3:
		return fmt.Errorf("tpcc: degenerate scale")
	case s.MaxNewTransactions < 0:
		return fmt.Errorf("tpcc: negative MaxNewTransactions")
	}
	return nil
}

// Record sizes in bytes, following the TPC-C schema's row widths.
const (
	warehouseSize = 89
	districtSize  = 95
	customerSize  = 655
	historySize   = 46
	newOrderSize  = 8
	orderSize     = 24
	orderLineSize = 54
	itemSize      = 82
	stockSize     = 306
)

// Fixed field offsets inside the encoded records (the remaining bytes are
// filler representing the text fields).
const (
	// warehouse: [0:8] W_YTD (cents)
	offWarehouseYTD = 0
	// district: [0:8] D_YTD, [8:12] D_NEXT_O_ID
	offDistrictYTD     = 0
	offDistrictNextOID = 8
	// customer: [0:8] C_BALANCE, [8:16] C_YTD_PAYMENT, [16:20] C_PAYMENT_CNT,
	// [20:24] C_DELIVERY_CNT
	offCustBalance     = 0
	offCustYTDPayment  = 8
	offCustPaymentCnt  = 16
	offCustDeliveryCnt = 20
	// order: [0:4] O_C_ID, [4:8] O_CARRIER_ID, [8:12] O_OL_CNT, [12:20] O_ENTRY_D
	offOrderCID       = 0
	offOrderCarrierID = 4
	offOrderOLCnt     = 8
	offOrderEntryD    = 12
	// order line: [0:4] OL_I_ID, [4:12] OL_AMOUNT, [12:20] OL_DELIVERY_D,
	// [20:24] OL_QUANTITY
	offOLItemID    = 0
	offOLAmount    = 4
	offOLDeliveryD = 12
	offOLQuantity  = 20
	// stock: [0:4] S_QUANTITY, [4:12] S_YTD, [12:16] S_ORDER_CNT,
	// [16:20] S_REMOTE_CNT
	offStockQuantity = 0
	offStockYTD      = 4
	offStockOrderCnt = 12
	offStockRemote   = 16
	// item: [0:8] I_PRICE
	offItemPrice = 0
)

func getU32(rec []byte, off int) uint32    { return binary.LittleEndian.Uint32(rec[off:]) }
func putU32(rec []byte, off int, v uint32) { binary.LittleEndian.PutUint32(rec[off:], v) }
func getU64(rec []byte, off int) uint64    { return binary.LittleEndian.Uint64(rec[off:]) }
func putU64(rec []byte, off int, v uint64) { binary.LittleEndian.PutUint64(rec[off:], v) }

// fillRecord builds a record of the given size with deterministic filler.
func fillRecord(rng *rand.Rand, size int) []byte {
	rec := make([]byte, size)
	rng.Read(rec)
	return rec
}

// Key builders for the in-memory primary-key indexes.

type districtKey struct{ w, d int }
type customerKey struct{ w, d, c int }
type orderKey struct{ w, d, o int }
type stockKey struct{ w, i int }
