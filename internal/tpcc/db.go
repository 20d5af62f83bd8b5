package tpcc

import (
	"fmt"
	"math/rand"

	"pdl/internal/buffer"
	"pdl/internal/ftl"
	"pdl/internal/storage"
)

// DB is a loaded TPC-C database over a page-update method.
type DB struct {
	scale Scale
	pool  *buffer.Pool
	rng   *rand.Rand

	warehouses *storage.Heap
	districts  *storage.Heap
	customers  *storage.Heap
	history    *storage.Heap
	newOrders  *storage.Heap
	orders     *storage.Heap
	orderLines *storage.Heap
	items      *storage.Heap
	stock      *storage.Heap

	// In-memory primary-key indexes (index I/O is excluded identically
	// for every method under test; see the package comment).
	warehouseRID map[int]storage.RID
	districtRID  map[districtKey]storage.RID
	customerRID  map[customerKey]storage.RID
	orderRID     map[orderKey]storage.RID
	orderLines4  map[orderKey][]storage.RID
	itemRID      map[int]storage.RID
	stockRID     map[stockKey]storage.RID

	// Per-district order bookkeeping.
	nextOID    map[districtKey]int
	oldestNewO map[districtKey]int
	newOrderRH map[orderKey]storage.RID

	numPages int
}

// NumPages returns the number of logical pages the database occupies
// (including growth headroom).
func (db *DB) NumPages() int { return db.numPages }

// Pool returns the buffer pool (for stats).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// PagesNeeded estimates the logical pages a database of this scale needs,
// so callers can size the flash chip and the method before loading.
func PagesNeeded(s Scale, pageSize int) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	usable := pageSize - 8 // slotted page header + slack
	perPage := func(recSize int) int {
		n := usable / (recSize + 4)
		if n < 1 {
			n = 1
		}
		return n
	}
	pages := func(count, recSize int) int {
		return count/perPage(recSize) + 2
	}
	W := s.Warehouses
	D := W * s.DistrictsPerWarehouse
	C := D * s.CustomersPerDistrict
	O := D*s.InitialOrdersPerDistrict + s.MaxNewTransactions
	total := pages(W, warehouseSize) +
		pages(D, districtSize) +
		pages(C, customerSize) +
		pages(C+s.MaxNewTransactions, historySize) +
		pages(O, newOrderSize) +
		pages(O, orderSize) +
		pages(O*11, orderLineSize) +
		pages(s.ItemCount, itemSize) +
		pages(W*s.ItemCount, stockSize)
	return total, nil
}

// Load builds and populates a TPC-C database of the given scale over
// method, using a buffer pool of bufferPages frames.
func Load(method ftl.Method, s Scale, bufferPages int, seed int64) (*DB, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pageSize := method.PageSize()
	if customerSize+16 > pageSize {
		return nil, fmt.Errorf("tpcc: page size %d too small for customer records", pageSize)
	}
	pool, err := buffer.NewPool(method, bufferPages)
	if err != nil {
		return nil, err
	}
	db := &DB{
		scale:        s,
		pool:         pool,
		rng:          rand.New(rand.NewSource(seed)),
		warehouseRID: make(map[int]storage.RID),
		districtRID:  make(map[districtKey]storage.RID),
		customerRID:  make(map[customerKey]storage.RID),
		orderRID:     make(map[orderKey]storage.RID),
		orderLines4:  make(map[orderKey][]storage.RID),
		itemRID:      make(map[int]storage.RID),
		stockRID:     make(map[stockKey]storage.RID),
		nextOID:      make(map[districtKey]int),
		oldestNewO:   make(map[districtKey]int),
		newOrderRH:   make(map[orderKey]storage.RID),
	}

	usable := pageSize - 8
	perPage := func(recSize int) int {
		n := usable / (recSize + 4)
		if n < 1 {
			n = 1
		}
		return n
	}
	next := uint32(0)
	heap := func(count, recSize int) (*storage.Heap, error) {
		pages := uint32(count/perPage(recSize) + 2)
		h, err := storage.NewHeap(pool, next, pages)
		next += pages
		return h, err
	}
	W := s.Warehouses
	D := W * s.DistrictsPerWarehouse
	C := D * s.CustomersPerDistrict
	O := D*s.InitialOrdersPerDistrict + s.MaxNewTransactions
	if db.warehouses, err = heap(W, warehouseSize); err != nil {
		return nil, err
	}
	if db.districts, err = heap(D, districtSize); err != nil {
		return nil, err
	}
	if db.customers, err = heap(C, customerSize); err != nil {
		return nil, err
	}
	if db.history, err = heap(C+s.MaxNewTransactions, historySize); err != nil {
		return nil, err
	}
	if db.newOrders, err = heap(O, newOrderSize); err != nil {
		return nil, err
	}
	if db.orders, err = heap(O, orderSize); err != nil {
		return nil, err
	}
	if db.orderLines, err = heap(O*11, orderLineSize); err != nil {
		return nil, err
	}
	if db.items, err = heap(s.ItemCount, itemSize); err != nil {
		return nil, err
	}
	if db.stock, err = heap(W*s.ItemCount, stockSize); err != nil {
		return nil, err
	}
	db.numPages = int(next)

	if err := db.populate(); err != nil {
		return nil, err
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return db, nil
}

// populate fills the tables with initial rows.
func (db *DB) populate() error {
	s := db.scale
	for w := 0; w < s.Warehouses; w++ {
		rec := fillRecord(db.rng, warehouseSize)
		putU64(rec, offWarehouseYTD, 0)
		rid, err := db.warehouses.Insert(rec)
		if err != nil {
			return fmt.Errorf("tpcc: warehouse %d: %w", w, err)
		}
		db.warehouseRID[w] = rid
		for d := 0; d < s.DistrictsPerWarehouse; d++ {
			dk := districtKey{w, d}
			drec := fillRecord(db.rng, districtSize)
			putU64(drec, offDistrictYTD, 0)
			putU32(drec, offDistrictNextOID, uint32(s.InitialOrdersPerDistrict))
			drid, err := db.districts.Insert(drec)
			if err != nil {
				return fmt.Errorf("tpcc: district %v: %w", dk, err)
			}
			db.districtRID[dk] = drid
			db.nextOID[dk] = s.InitialOrdersPerDistrict
			db.oldestNewO[dk] = s.InitialOrdersPerDistrict * 2 / 3

			for c := 0; c < s.CustomersPerDistrict; c++ {
				crec := fillRecord(db.rng, customerSize)
				putU64(crec, offCustBalance, 0)
				putU64(crec, offCustYTDPayment, 0)
				putU32(crec, offCustPaymentCnt, 0)
				putU32(crec, offCustDeliveryCnt, 0)
				crid, err := db.customers.Insert(crec)
				if err != nil {
					return fmt.Errorf("tpcc: customer: %w", err)
				}
				db.customerRID[customerKey{w, d, c}] = crid
			}
			// Initial orders: one per customer id cyclically, the last
			// third still undelivered (in NEW-ORDER).
			for o := 0; o < s.InitialOrdersPerDistrict; o++ {
				if err := db.insertOrder(dk, o, o%s.CustomersPerDistrict,
					o >= db.oldestNewO[dk]); err != nil {
					return err
				}
			}
		}
	}
	for i := 0; i < s.ItemCount; i++ {
		rec := fillRecord(db.rng, itemSize)
		putU64(rec, offItemPrice, uint64(100+db.rng.Intn(9900)))
		rid, err := db.items.Insert(rec)
		if err != nil {
			return fmt.Errorf("tpcc: item %d: %w", i, err)
		}
		db.itemRID[i] = rid
	}
	for w := 0; w < s.Warehouses; w++ {
		for i := 0; i < s.ItemCount; i++ {
			rec := fillRecord(db.rng, stockSize)
			putU32(rec, offStockQuantity, uint32(10+db.rng.Intn(90)))
			putU64(rec, offStockYTD, 0)
			putU32(rec, offStockOrderCnt, 0)
			putU32(rec, offStockRemote, 0)
			rid, err := db.stock.Insert(rec)
			if err != nil {
				return fmt.Errorf("tpcc: stock: %w", err)
			}
			db.stockRID[stockKey{w, i}] = rid
		}
	}
	return nil
}

// insertOrder creates an order with lines; newOrder also creates the
// NEW-ORDER row.
func (db *DB) insertOrder(dk districtKey, oid, cid int, newOrder bool) error {
	ok := orderKey{dk.w, dk.d, oid}
	olCnt := 5 + db.rng.Intn(11)
	rec := fillRecord(db.rng, orderSize)
	putU32(rec, offOrderCID, uint32(cid))
	putU32(rec, offOrderCarrierID, 0)
	putU32(rec, offOrderOLCnt, uint32(olCnt))
	putU64(rec, offOrderEntryD, uint64(oid))
	rid, err := db.orders.Insert(rec)
	if err != nil {
		return fmt.Errorf("tpcc: order %v: %w", ok, err)
	}
	db.orderRID[ok] = rid
	lines := make([]storage.RID, 0, olCnt)
	for l := 0; l < olCnt; l++ {
		lrec := fillRecord(db.rng, orderLineSize)
		putU32(lrec, offOLItemID, uint32(db.rng.Intn(db.scale.ItemCount)))
		putU64(lrec, offOLAmount, uint64(db.rng.Intn(999900)))
		putU64(lrec, offOLDeliveryD, 0)
		putU32(lrec, offOLQuantity, 5)
		lrid, err := db.orderLines.Insert(lrec)
		if err != nil {
			return fmt.Errorf("tpcc: order line: %w", err)
		}
		lines = append(lines, lrid)
	}
	db.orderLines4[ok] = lines
	if newOrder {
		norec := fillRecord(db.rng, newOrderSize)
		norid, err := db.newOrders.Insert(norec)
		if err != nil {
			return fmt.Errorf("tpcc: new-order: %w", err)
		}
		db.newOrderRH[ok] = norid
	}
	return nil
}

// Flush writes all buffered state through to flash.
func (db *DB) Flush() error { return db.pool.Flush() }
