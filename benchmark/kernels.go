package main

import (
	"math/rand"
	"time"

	"pdl/internal/diff"
	"pdl/internal/flash/ecc"
	"pdl/internal/ftl"
)

const (
	kernelPages  = 2048 // page images sampled from the store
	kernelPasses = 5    // each kernel reports its fastest pass
)

// fastest runs pass kernelPasses times and returns the shortest, in
// nanoseconds per unit of work.
func fastest(units int, pass func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < kernelPasses; i++ {
		t := time.Now()
		pass()
		best = min(best, time.Since(t))
	}
	return per(float64(best.Nanoseconds()), float64(units))
}

// kernelMetrics times the pure functions the read and write paths spend
// their host CPU in, on page images read back from the store after the
// run, each paired with the workload's own mutation: one value's worth of
// bytes on the KV workloads, one 2% run on page_file.
func kernelMetrics(m metrics, e *env) {
	ps := e.method.PageSize()
	rng := rand.New(rand.NewSource(e.cfg.seed))
	runLen := valueSize
	if !e.w.kv {
		runLen = max(1, int(float64(ps)*pctChanged/100))
	}
	var bases, curs [][]byte
	stride := max(1, e.numPages/kernelPages)
	for pid := 0; pid < e.numPages && len(bases) < kernelPages; pid += stride {
		base := make([]byte, ps)
		if e.store.ReadPage(uint32(pid), base) != nil {
			continue // never written: the KV layout leaves spare pages
		}
		cur := append([]byte(nil), base...)
		off := rng.Intn(ps - runLen + 1)
		rng.Read(cur[off : off+runLen])
		bases, curs = append(bases, base), append(curs, cur)
	}
	n := len(bases)
	if n == 0 {
		return
	}

	// Differential compute, then the records it produced packed into
	// differential pages the way the write buffer spills them.
	diffs := make([]diff.Differential, n)
	m["diff.compute_ns_per_page"] = fastest(n, func() {
		for i := range bases {
			diffs[i], _ = diff.Compute(uint32(i), uint64(i+1), bases[i], curs[i]) // equal-length images cannot fail
		}
	})
	var diffPages [][]byte
	var recs [][]byte
	page := make([]byte, 0, ps)
	for _, d := range diffs {
		if len(page)+d.EncodedSize() > ps {
			diffPages = append(diffPages, pad(page, ps))
			page = make([]byte, 0, ps)
		}
		start := len(page)
		page = d.AppendTo(page)
		recs = append(recs, page[start:])
	}
	diffPages = append(diffPages, pad(page, ps))

	scratch := make([]byte, ps)
	m["diff.apply_ns_per_record"] = fastest(n, func() {
		for i, rec := range recs {
			copy(scratch, bases[i])
			_ = diff.ApplyRecord(rec, scratch) // records come straight from AppendTo
		}
	})
	m["diff.decode_ns_per_page"] = fastest(len(diffPages), func() {
		for _, dp := range diffPages {
			diff.DecodeAll(dp)
		}
	})

	codes := make([][]byte, n)
	m["ecc.compute_ns_per_page"] = fastest(n, func() {
		for i := range bases {
			codes[i], _ = ecc.ComputePage(bases[i]) // the page size is sector-aligned
		}
	})
	m["ecc.verify_ns_per_page"] = fastest(n, func() {
		for i := range bases {
			_, _, _ = ecc.CorrectPageSectors(bases[i], codes[i]) // clean pages: nothing to correct
		}
	})

	spare := make([]byte, e.inner.Params().SpareSize)
	var hdr ftl.Header
	m["ftl.header_encode_ns"] = fastest(n, func() {
		for i := 0; i < n; i++ {
			ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: uint32(i), TS: uint64(i), Seq: 7}, spare)
		}
	})
	m["ftl.header_decode_ns"] = fastest(n, func() {
		for i := 0; i < n; i++ {
			hdr = ftl.DecodeHeader(spare)
		}
	})
	_ = hdr
}

// pad fills the rest of a differential page with the erased-flash value,
// which is the end marker DecodeAll stops at.
func pad(page []byte, size int) []byte {
	for len(page) < size {
		page = append(page, 0xFF)
	}
	return page
}
