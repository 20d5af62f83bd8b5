package pdl_test

import (
	"fmt"
	"log"

	"pdl"
)

// Example demonstrates the core loop: a small update costs PDL the one
// flash read that recreates the page (the write diffs against the base
// image that read has just fetched) and no program at all until the
// differential write buffer fills.
func Example() {
	chip := pdl.NewChip(pdl.ScaledFlashParams(32))
	store, err := pdl.Open(chip, 256, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	page := make([]byte, chip.Params().DataSize)
	copy(page, "hello flash")
	if err := store.WritePage(42, page); err != nil {
		log.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}

	// A small in-place update.
	chip.ResetStats()
	if err := store.ReadPage(42, page); err != nil {
		log.Fatal(err)
	}
	copy(page, "HELLO flash")
	if err := store.WritePage(42, page); err != nil {
		log.Fatal(err)
	}
	s := chip.Stats()
	fmt.Printf("small update: %d reads, %d writes\n", s.Reads, s.Writes)

	if err := store.ReadPage(42, page); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content: %s\n", page[:11])
	// Output:
	// small update: 1 reads, 0 writes
	// content: HELLO flash
}

// ExampleRecover shows crash recovery: a store rebuilt from the chip alone.
func ExampleRecover() {
	chip := pdl.NewChip(pdl.ScaledFlashParams(32))
	store, err := pdl.Open(chip, 64, pdl.Options{})
	if err != nil {
		log.Fatal(err)
	}
	page := make([]byte, chip.Params().DataSize)
	copy(page, "durable data")
	if err := store.WritePage(7, page); err != nil {
		log.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}

	// Crash: the store (and its in-memory tables) are gone. Recover scans
	// the chip's spare areas and rebuilds them.
	recovered, err := pdl.Recover(chip, 64, pdl.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := recovered.ReadPage(7, page); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", page[:12])
	// Output:
	// durable data
}

// ExampleNewPool shows the DBMS-side stack: a buffer pool and heap file
// over a PDL store.
func ExampleNewPool() {
	chip := pdl.NewChip(pdl.ScaledFlashParams(32))
	store, err := pdl.Open(chip, 512, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := pdl.NewPool(store, 16)
	if err != nil {
		log.Fatal(err)
	}
	heap, err := pdl.NewHeap(pool, 0, 128)
	if err != nil {
		log.Fatal(err)
	}
	rid, err := heap.Insert([]byte("a record"))
	if err != nil {
		log.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		log.Fatal(err)
	}
	rec, err := heap.Get(rid, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", rec)
	// Output:
	// a record
}
