package buffer_test

// The pool against the page trace of pdlbench -exp 7 (Figure 18): TPC-C's
// appends and its NURand picks reuse a page soon after it arrives, which a
// window of a tenth of a small pool is too short to catch.

import (
	"testing"

	"pdl/internal/bench"
	"pdl/internal/ftl"
	"pdl/internal/tpcc"
)

// memMethod keeps every page in memory and counts what the pool asks of it.
type memMethod struct {
	ftl.Method // nil: the pool and tpcc call nothing else
	pages      map[uint32][]byte
	reads      int64
	writes     int64
}

func (m *memMethod) PageSize() int { return 2048 }
func (m *memMethod) Flush() error  { return nil }

func (m *memMethod) ReadPage(pid uint32, buf []byte) error {
	m.reads++
	if p, ok := m.pages[pid]; ok {
		copy(buf, p)
	} else {
		clear(buf)
	}
	return nil
}

func (m *memMethod) WritePage(pid uint32, data []byte) error {
	m.writes++
	m.pages[pid] = append(m.pages[pid][:0], data...)
	return nil
}

// tpccStream loads Experiment 7's TPC-C database behind a pool of pct
// percent of its pages, runs its warm-up transactions and returns the page
// reads and writes per transaction of its measured ones: the pool's faults
// and write-backs.
func tpccStream(t *testing.T, pct float64) (misses, writebacks float64) {
	t.Helper()
	cfg := bench.DefaultExp7Config()
	pages, err := tpcc.PagesNeeded(cfg.Scale, 2048)
	if err != nil {
		t.Fatal(err)
	}
	m := &memMethod{pages: make(map[uint32][]byte)}
	db, err := tpcc.Load(m, cfg.Scale, max(4, int(float64(pages)*pct/100)), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for range n {
			if err := db.Run(db.NextTx()); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(cfg.WarmupTxns)
	reads, writes := m.reads, m.writes
	run(cfg.MeasureTxn)
	n := float64(cfg.MeasureTxn)
	return float64(m.reads-reads) / n, float64(m.writes-writes) / n
}

// TestTPCCPageStream: at Figure 18's 1% buffer (92 frames) the pool faults
// and writes back fewer pages per transaction than with a fixed window of a
// tenth of its frames, which read 18.567 and 5.718 here; the bounds are
// halfway to the 18.087 and 5.596 of the window the pool sizes itself, which
// grows because the pool misses more than 30% of its accesses.
func TestTPCCPageStream(t *testing.T) {
	misses, writebacks := tpccStream(t, 1)
	t.Logf("1%% buffer: %.3f misses and %.3f write-backs per transaction", misses, writebacks)
	if misses > 18.327 || writebacks > 5.657 {
		t.Errorf("1%% buffer: %.3f misses and %.3f write-backs per transaction, want at most 18.327 and 5.657", misses, writebacks)
	}
}
