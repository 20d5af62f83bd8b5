// Keyvalue: the serving layer's concurrent key-value store — lock-striped
// buckets of B+-trees whose leaves hold the records, each behind its own
// buffer pool — run over page-differential logging and over the page-based
// baseline, comparing simulated flash I/O.
//
// The workload is the one the paper's motivation targets: many small
// record updates from concurrent clients. PDL turns each page write-back
// into a small differential; the page-based method rewrites whole pages.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"pdl"
)

const (
	numKeys    = 4000
	numUpdates = 20000
	valueSize  = 64
	clients    = 4
)

func main() {
	fmt.Printf("%-12s %10s %10s %10s %14s\n", "method", "reads", "writes", "erases", "sim I/O time")
	for _, method := range []string{"PDL(256B)", "OPU"} {
		stats, err := run(method)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10d %10d %10d %14s\n",
			method, stats.Reads, stats.Writes, stats.Erases, stats.Time())
	}
}

func run(method string) (pdl.FlashStats, error) {
	opts := pdl.KVOptions{PoolPages: 8}
	numPages := pdl.KVPagesNeeded(numKeys, valueSize, pdl.ScaledFlashParams(1).DataSize, opts)
	chip := pdl.NewChip(pdl.ScaledFlashParams(256)) // 32 MB
	var m pdl.Method
	var err error
	switch method {
	case "PDL(256B)":
		// Shards sized to the client count: concurrent writers land on
		// distinct differential buffers.
		m, err = pdl.Open(chip, int(numPages), pdl.Options{MaxDifferentialSize: 256, Shards: clients})
	case "OPU":
		// The baseline is not concurrency-safe; the kv store funnels it
		// through one mutex automatically.
		m, err = pdl.OpenOPU(chip, int(numPages))
	default:
		return pdl.FlashStats{}, fmt.Errorf("unknown method %q", method)
	}
	if err != nil {
		return pdl.FlashStats{}, err
	}
	db, err := pdl.OpenKV(m, numPages, opts)
	if err != nil {
		return pdl.FlashStats{}, err
	}
	defer db.Close()

	// Load: insert records in batches (each batch is atomic with respect
	// to concurrent Scans).
	rng := rand.New(rand.NewSource(42))
	batch := make([]pdl.KVEntry, 0, 64)
	for k := uint64(0); k < numKeys; k++ {
		val := make([]byte, valueSize)
		rng.Read(val)
		binary.LittleEndian.PutUint64(val, k) // embed the key for checking
		batch = append(batch, pdl.KVEntry{Key: k, Value: val})
		if len(batch) == cap(batch) || k == numKeys-1 {
			if err := db.PutBatch(batch); err != nil {
				return pdl.FlashStats{}, err
			}
			batch = batch[:0]
		}
	}
	if err := db.Sync(); err != nil {
		return pdl.FlashStats{}, err
	}

	// Measure: concurrent point updates through the store (each bumps a
	// counter field of one record).
	chip.ResetStats()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			buf := make([]byte, 0, valueSize)
			for i := 0; i < numUpdates/clients; i++ {
				k := uint64(rng.Intn(numKeys))
				rec, err := db.Get(k, buf)
				if err != nil {
					errs[c] = err
					return
				}
				if got := binary.LittleEndian.Uint64(rec); got != k {
					errs[c] = fmt.Errorf("key %d resolved to record of key %d", k, got)
					return
				}
				binary.LittleEndian.PutUint32(rec[8:], binary.LittleEndian.Uint32(rec[8:])+1)
				if err := db.Put(k, rec); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return pdl.FlashStats{}, err
		}
	}

	// A snapshot-consistent scan sees every loaded key exactly once.
	seen := 0
	err = db.Scan(0, ^uint64(0), numKeys+1, func(k uint64, v []byte) bool {
		seen++
		return true
	})
	if err != nil {
		return pdl.FlashStats{}, err
	}
	if seen != numKeys {
		return pdl.FlashStats{}, fmt.Errorf("scan saw %d keys, want %d", seen, numKeys)
	}
	if err := db.Sync(); err != nil {
		return pdl.FlashStats{}, err
	}
	return chip.Stats(), nil
}
