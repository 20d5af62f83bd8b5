// Quickstart: open a page-differential logging store on an emulated NAND
// chip, write and read logical pages, and inspect the simulated flash
// cost. This is the paper's core loop — note that a lightly updated page
// costs one base-page read (to compute the differential) and no program
// at all until the one-page differential write buffer fills.
//
// The final section swaps the emulator for the persistent file-backed
// device: the same store API, but the data survives a process restart.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"pdl"
)

func main() {
	// A 16-MB emulated chip with the datasheet timings of the paper's
	// Table 1 (Tread=110us, Twrite=1010us, Terase=1500us).
	chip := pdl.NewChip(pdl.ScaledFlashParams(128))

	// PDL(256B): differentials above 256 bytes fall back to rewriting the
	// page — the configuration the paper recommends.
	store, err := pdl.Open(chip, 2048, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}

	pageSize := store.PageSize()
	page := make([]byte, pageSize)
	rng := rand.New(rand.NewSource(1))

	// Load 2048 logical pages.
	for pid := uint32(0); pid < 2048; pid++ {
		rng.Read(page)
		if err := store.WritePage(pid, page); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded 2048 pages: %v\n", chip.Stats())

	// A small update: read-modify-write of one page.
	chip.ResetStats()
	if err := store.ReadPage(7, page); err != nil {
		log.Fatal(err)
	}
	copy(page[100:], []byte("page-differential logging"))
	if err := store.WritePage(7, page); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one small update: %v  <- recreate; the write diffs against the base image just read; zero writes (differential buffered)\n", chip.Stats())

	// The differential write buffer persists on Flush (write-through).
	chip.ResetStats()
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flush:            %v  <- the buffered differential becomes one differential page\n", chip.Stats())

	// Reading the updated page merges base page + differential.
	chip.ResetStats()
	if err := store.ReadPage(7, page); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read updated:     %v  <- at most two reads, ever\n", chip.Stats())
	fmt.Printf("content check:    %q\n", page[100:125])

	// Compare with the page-based baseline on the same workload.
	chipOPU := pdl.NewChip(pdl.ScaledFlashParams(128))
	opu, err := pdl.OpenOPU(chipOPU, 2048)
	if err != nil {
		log.Fatal(err)
	}
	for pid := uint32(0); pid < 2048; pid++ {
		rng.Read(page)
		if err := opu.WritePage(pid, page); err != nil {
			log.Fatal(err)
		}
	}
	chipOPU.ResetStats()
	if err := opu.ReadPage(7, page); err != nil {
		log.Fatal(err)
	}
	copy(page[100:], []byte("out-place update baseline"))
	if err := opu.WritePage(7, page); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOPU same update:  %v  <- whole-page write + obsolete mark\n", chipOPU.Stats())

	// The same store runs on persistent storage: a file-backed device
	// survives Close and reopen (and therefore process restarts).
	dir, err := os.MkdirTemp("", "pdl-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "db.flash")

	dev, err := pdl.OpenFileDevice(dbPath, pdl.FileDeviceOptions{
		Params: pdl.ScaledFlashParams(64), // geometry recorded in the file
	})
	if err != nil {
		log.Fatal(err)
	}
	fstore, err := pdl.Open(dev, 512, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	want := make([]byte, fstore.PageSize())
	copy(want, []byte("survives a process restart"))
	if err := fstore.WritePage(11, want); err != nil {
		log.Fatal(err)
	}
	if err := fstore.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		log.Fatal(err)
	}

	// "Restart": reopen the same file and rebuild the store from flash
	// contents alone.
	dev, err = pdl.OpenFileDevice(dbPath, pdl.FileDeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Close()
	restored, err := pdl.Recover(dev, 512, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	got := make([]byte, restored.PageSize())
	if err := restored.ReadPage(11, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		log.Fatal("file-backed page differs after reopen")
	}
	fmt.Printf("\nfile backend:     page 11 recovered from %s after close+reopen: %q\n",
		filepath.Base(dbPath), got[:26])
}
