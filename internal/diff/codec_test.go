package diff

// Tests pinning the rewritten hot paths of the codec: the word-wise
// Compute must emit byte-for-byte the differential the original
// byte-at-a-time scan produced, FindIn must agree with a DecodeAll-based
// search on every page (including torn and corrupt ones), ApplyRecord
// must reproduce Apply, and the allocation-free paths must actually be
// allocation-free. The benchmarks record the codec's hot-path costs; the
// README's read-pipeline section quotes them against the seed numbers.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// computeReference is the original byte-at-a-time Compute scan, kept as
// the oracle for the word-wise rewrite.
func computeReference(pid uint32, ts uint64, base, cur []byte) Differential {
	d := Differential{PID: pid, TS: ts}
	i := 0
	n := len(cur)
	for i < n {
		if base[i] == cur[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		for end < n {
			if base[end] != cur[end] {
				end++
				continue
			}
			gap := end
			for gap < n && base[gap] == cur[gap] && gap-end < rangeOverhead {
				gap++
			}
			if gap < n && base[gap] != cur[gap] && gap-end < rangeOverhead {
				end = gap + 1
				continue
			}
			break
		}
		data := make([]byte, end-start)
		copy(data, cur[start:end])
		d.Ranges = append(d.Ranges, Range{Off: start, Data: data})
		i = end
	}
	return d
}

func equalDifferentials(a, b Differential) bool {
	if a.PID != b.PID || a.TS != b.TS || len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for i := range a.Ranges {
		if a.Ranges[i].Off != b.Ranges[i].Off || !bytes.Equal(a.Ranges[i].Data, b.Ranges[i].Data) {
			return false
		}
	}
	return true
}

// mutate returns a copy of base with a randomized pattern of changes:
// scattered single bytes, short runs, runs separated by sub-threshold
// gaps, and (rarely) full rewrites — the shapes that exercise every branch
// of the range coalescing.
func mutate(rng *rand.Rand, base []byte) []byte {
	cur := append([]byte(nil), base...)
	switch rng.Intn(5) {
	case 0: // nothing changed
	case 1: // full rewrite
		rng.Read(cur)
	case 2: // scattered single-byte flips
		for k := rng.Intn(40); k >= 0; k-- {
			cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
		}
	case 3: // short runs
		for k := rng.Intn(10); k >= 0; k-- {
			off := rng.Intn(len(cur))
			l := 1 + rng.Intn(24)
			if off+l > len(cur) {
				l = len(cur) - off
			}
			rng.Read(cur[off : off+l])
		}
	case 4: // runs separated by gaps of exactly 1..5 bytes (straddling the threshold)
		off := rng.Intn(len(cur)/2 + 1)
		for k := 0; k < 8 && off < len(cur); k++ {
			l := 1 + rng.Intn(6)
			if off+l > len(cur) {
				l = len(cur) - off
			}
			for j := 0; j < l; j++ {
				cur[off+j] ^= 0xA5
			}
			off += l + 1 + rng.Intn(5)
		}
	}
	return cur
}

func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, size := range []int{1, 7, 8, 9, 63, 64, 512, 2048} {
		base := make([]byte, size)
		for iter := 0; iter < 300; iter++ {
			rng.Read(base)
			cur := mutate(rng, base)
			got, err := Compute(9, 77, base, cur)
			if err != nil {
				t.Fatalf("size %d iter %d: Compute: %v", size, iter, err)
			}
			want := computeReference(9, 77, base, cur)
			if !equalDifferentials(got, want) {
				t.Fatalf("size %d iter %d: word-wise Compute diverges from reference:\n got %v\nwant %v",
					size, iter, got, want)
			}
			// The differential must actually recreate cur from base.
			page := append([]byte(nil), base...)
			if err := got.Apply(page); err != nil {
				t.Fatalf("size %d iter %d: Apply: %v", size, iter, err)
			}
			if !bytes.Equal(page, cur) {
				t.Fatalf("size %d iter %d: applied differential does not recreate cur", size, iter)
			}
		}
	}
}

// TestComputeMatchesReferenceAtEveryOffset changes one byte at every offset
// of 512-, 1024- and 2048-byte pages, so at every offset of every 256- and
// 64-byte block the equal-block skip passes over, alone and beside a change
// in the last byte: the scan that starts after the first range reaches that
// one through a tail shorter than 64 bytes, for every offset not 63 mod 64.
func TestComputeMatchesReferenceAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, size := range []int{512, 1024, 2048} {
		base := make([]byte, size)
		rng.Read(base)
		for off := 0; off < size; off++ {
			cur := bytes.Clone(base)
			cur[off] ^= byte(1 + rng.Intn(255))
			for _, last := range []bool{false, true} {
				if last {
					cur[size-1] ^= 0x80
				}
				got, err := Compute(3, 5, base, cur)
				if err != nil {
					t.Fatal(err)
				}
				if want := computeReference(3, 5, base, cur); !equalDifferentials(got, want) {
					t.Fatalf("size %d, offset %d, last byte changed %v: Compute diverges from the byte loop:\n got %v\nwant %v",
						size, off, last, got, want)
				}
			}
		}
	}
}

// encodePage packs differentials into a page image padded with the
// erased-flash byte, exactly like the differential write buffer does.
func encodePage(pageSize int, ds ...Differential) []byte {
	var buf []byte
	for _, d := range ds {
		buf = d.AppendTo(buf)
	}
	for len(buf) < pageSize {
		buf = append(buf, 0xFF)
	}
	return buf
}

// findReference is the pre-FindIn search: DecodeAll, then newest TS wins.
func findReference(pageData []byte, pid uint32) (Differential, bool) {
	var best Differential
	found := false
	for _, d := range DecodeAll(pageData) {
		if d.PID != pid {
			continue
		}
		if !found || d.TS > best.TS {
			best = d
			found = true
		}
	}
	return best, found
}

func TestFindInMatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	const pageSize = 2048
	base := make([]byte, 256)
	for iter := 0; iter < 200; iter++ {
		var ds []Differential
		for k := 1 + rng.Intn(6); k > 0; k-- {
			rng.Read(base)
			cur := mutate(rng, base)
			d, err := Compute(uint32(rng.Intn(4)), uint64(1+rng.Intn(50)), base, cur)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
		}
		page := encodePage(pageSize, ds...)
		if iter%3 == 0 {
			// Tear the tail: chop the last record mid-way and re-pad, the
			// state a power failure mid-program leaves behind.
			cut := len(encodePage(0, ds...)) - 1 - rng.Intn(8)
			if cut > 0 {
				for i := cut; i < pageSize; i++ {
					page[i] = 0xFF
				}
				page[cut] = 0x00 // ensure the torn record is not just padding
			}
		}
		// The used prefix is exactly what DecodeAll decodes, and it alone
		// answers every lookup the way the whole page does.
		used, want := UsedPrefix(page), 0
		for _, d := range DecodeAll(page) {
			want += d.EncodedSize()
		}
		if used != want {
			t.Fatalf("iter %d: UsedPrefix = %d, DecodeAll consumed %d", iter, used, want)
		}
		for pid := uint32(0); pid < 4; pid++ {
			wantD, wantOK := findReference(page, pid)
			rec, ok := FindIn(page, pid)
			if cut, cutOK := FindIn(page[:used], pid); cutOK != ok || !bytes.Equal(cut, rec) {
				t.Fatalf("iter %d pid %d: FindIn on the used prefix diverges from the whole page", iter, pid)
			}
			if ok != wantOK {
				t.Fatalf("iter %d pid %d: FindIn ok=%v, DecodeAll says %v", iter, pid, ok, wantOK)
			}
			if !ok {
				continue
			}
			a := make([]byte, 256)
			b := make([]byte, 256)
			if err := ApplyRecord(rec, a); err != nil {
				t.Fatalf("iter %d pid %d: ApplyRecord: %v", iter, pid, err)
			}
			if err := wantD.Apply(b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("iter %d pid %d: ApplyRecord(FindIn) diverges from Apply(DecodeAll)", iter, pid)
			}
		}
	}
}

func TestApplyDoesNotHalfApply(t *testing.T) {
	// A differential whose middle range runs past the page must leave the
	// page untouched — including the valid first range.
	d := Differential{PID: 1, TS: 1, Ranges: []Range{
		{Off: 0, Data: []byte{1, 2, 3}},
		{Off: 30, Data: []byte{4, 5, 6, 7}}, // [30,34) outside a 32-byte page
		{Off: 8, Data: []byte{8}},
	}}
	page := make([]byte, 32)
	for i := range page {
		page[i] = 0xEE
	}
	before := append([]byte(nil), page...)
	if err := d.Apply(page); err == nil {
		t.Fatal("Apply of out-of-bounds differential succeeded")
	}
	if !bytes.Equal(page, before) {
		t.Fatal("failed Apply mutated the page (half-applied)")
	}

	// Same property for the wire-form path.
	rec := d.AppendTo(nil)
	if err := ApplyRecord(rec, page); err == nil {
		t.Fatal("ApplyRecord of out-of-bounds record succeeded")
	}
	if !bytes.Equal(page, before) {
		t.Fatal("failed ApplyRecord mutated the page (half-applied)")
	}
}

func TestApplyRecordRejectsMalformed(t *testing.T) {
	page := make([]byte, 64)
	if err := ApplyRecord(nil, page); err == nil {
		t.Error("nil record accepted")
	}
	d := Differential{PID: 1, TS: 1, Ranges: []Range{{Off: 4, Data: []byte{1, 2}}}}
	rec := d.AppendTo(nil)
	short := rec[:len(rec)-1] // size field no longer matches
	if err := ApplyRecord(short, page); err == nil {
		t.Error("truncated record accepted")
	}
}

// TestLongRunsEncodeAsConsecutiveRanges holds the wire form on random
// differentials whose runs reach 255 to 2,048 bytes: the size is what
// AppendTo writes, the header carries the 48-bit time stamp and the 24-bit
// base distance, a run longer than 255 bytes decodes as consecutive ranges of
// at most 255, and the record found on a page by Records and FindIn and
// merged by ApplyRecord recreates the page, as Apply of its decoded form does.
func TestLongRunsEncodeAsConsecutiveRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	const pageSize = 4096
	base := make([]byte, pageSize)
	for iter := 0; iter < 300; iter++ {
		rng.Read(base)
		cur := mutate(rng, base)
		for k := rng.Intn(4); k >= 0; k-- {
			l := 255 + rng.Intn(2048-255+1)
			if rng.Intn(4) == 0 {
				l = 1 + rng.Intn(300)
			}
			off := rng.Intn(pageSize - l + 1)
			for i := off; i < off+l; i++ {
				cur[i] = base[i] ^ byte(1+rng.Intn(255)) // every byte differs: one run
			}
		}
		pid := uint32(rng.Intn(4))
		ts := uint64(MaxBaseDistance) + uint64(rng.Int63n(MaxTimeStamp-MaxBaseDistance+1))
		d, err := Compute(pid, ts, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		d.Base = ts - uint64(rng.Intn(MaxBaseDistance+1))

		rec := d.AppendTo(nil)
		if len(rec) != d.EncodedSize() {
			t.Fatalf("iter %d: AppendTo wrote %d bytes, EncodedSize says %d", iter, len(rec), d.EncodedSize())
		}
		headers, long := 0, false
		for _, r := range d.Ranges {
			headers += (len(r.Data) + 254) / 255
			long = long || len(r.Data) > 255
		}
		if want := HeaderSize + RangeOverhead*headers + d.ChangedBytes(); len(rec) != want {
			t.Fatalf("iter %d: a record of %d bytes, want %d", iter, len(rec), want)
		}

		got, n, err := Decode(rec)
		if err != nil || n != len(rec) || got.PID != pid || got.TS != ts || got.Base != d.Base {
			t.Fatalf("iter %d: Decode = %d bytes, pid %d ts %d base %d, %v; want %d, %d, %d, %d",
				iter, n, got.PID, got.TS, got.Base, err, len(rec), pid, ts, d.Base)
		}
		if len(got.Ranges) != headers {
			t.Fatalf("iter %d: decoded %d ranges, want %d", iter, len(got.Ranges), headers)
		}
		j := 0
		for _, r := range d.Ranges {
			for off := r.Off; off < r.Off+len(r.Data); j++ {
				g := got.Ranges[j]
				want := r.Data[off-r.Off : min(off-r.Off+255, len(r.Data))]
				if g.Off != off || !bytes.Equal(g.Data, want) {
					t.Fatalf("iter %d: decoded range %d is %d bytes at %d, want %d at %d", iter, j, len(g.Data), g.Off, len(want), off)
				}
				off += len(g.Data)
			}
		}
		if !long && !equalDifferentials(got, d) {
			t.Fatalf("iter %d: a differential of short ranges does not decode to itself", iter)
		}

		other := Differential{PID: pid, TS: ts - 1, Base: d.Base, Ranges: []Range{{Off: 7, Data: []byte{1, 2, 3}}}}
		page := make([]byte, 0, MaxRecordSize)
		page = other.AppendTo(page)
		page = d.AppendTo(page)
		var seen [][]byte
		for r := range Records(page) {
			seen = append(seen, r)
		}
		if len(seen) != 2 || !bytes.Equal(seen[1], rec) {
			t.Fatalf("iter %d: Records yielded %d records, want the two written", iter, len(seen))
		}
		found, ok := FindIn(page, pid)
		if k, fts := RecordKey(found); !ok || !bytes.Equal(found, rec) || k != pid || fts != ts || RecordBase(found) != d.Base {
			t.Fatalf("iter %d: FindIn found %v a record of pid %d ts %d base %d", iter, ok, k, fts, RecordBase(found))
		}
		a, b := bytes.Clone(base), bytes.Clone(base)
		if err := ApplyRecord(found, a); err != nil {
			t.Fatalf("iter %d: ApplyRecord: %v", iter, err)
		}
		if err := got.Apply(b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, cur) || !bytes.Equal(b, cur) {
			t.Fatalf("iter %d: ApplyRecord (%v) or Apply of the decoded form (%v) does not recreate the page",
				iter, bytes.Equal(a, cur), bytes.Equal(b, cur))
		}
	}
}

// TestBadRangeHeaderRejectedBeforeWriting cuts and stretches the 3-byte range
// header of a record's last range: a header cut short (the size field says
// the record ends inside it) and a length running past the record's end are
// rejected by Decode, Records and ApplyRecord, the last before it writes the
// record's valid first range.
func TestBadRangeHeaderRejectedBeforeWriting(t *testing.T) {
	d := Differential{PID: 2, TS: 9, Base: 4, Ranges: []Range{
		{Off: 0, Data: []byte{1, 2, 3}}, {Off: 40, Data: []byte{4, 5, 6, 7}}}}
	rec := d.AppendTo(nil)
	last := HeaderSize + RangeOverhead + 3 // the last range's header
	var bad [][]byte
	for cut := 1; cut < RangeOverhead; cut++ { // a truncated header
		r := bytes.Clone(rec[:last+cut])
		binary.LittleEndian.PutUint16(r, uint16(len(r)))
		bad = append(bad, r)
	}
	for _, l := range []byte{5, 0xFF} { // an overlong one
		r := bytes.Clone(rec)
		r[last+2] = l
		bad = append(bad, r)
	}
	for i, r := range bad {
		if _, _, err := Decode(r); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: Decode returned %v, want ErrCorrupt", i, err)
		}
		page := append(bytes.Clone(r), bytes.Repeat([]byte{0xFF}, 64)...)
		if n := UsedPrefix(page); n != 0 {
			t.Errorf("case %d: Records accepted %d bytes", i, n)
		}
		page = bytes.Repeat([]byte{0xEE}, 64)
		if err := ApplyRecord(r, page); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: ApplyRecord returned %v, want ErrCorrupt", i, err)
		}
		if !bytes.Equal(page, bytes.Repeat([]byte{0xEE}, 64)) {
			t.Errorf("case %d: the rejected record wrote the page", i)
		}
	}
}

func TestFindInZeroAllocs(t *testing.T) {
	base := make([]byte, 512)
	cur := append([]byte(nil), base...)
	for i := 0; i < 512; i += 37 {
		cur[i] ^= 0x5A
	}
	d, err := Compute(3, 9, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	page := encodePage(2048, d)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := FindIn(page, 3); !ok {
			t.Fatal("record not found")
		}
	}); n != 0 {
		t.Errorf("FindIn allocates %.1f objects per run, want 0", n)
	}
	rec, _ := FindIn(page, 3)
	out := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() {
		if err := ApplyRecord(rec, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ApplyRecord allocates %.1f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Apply(out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Apply allocates %.1f objects per run, want 0", n)
	}
}

// TestComputeZeroAllocsWhenIdentical: Compute allocates nothing for two equal
// pages and one slice of ranges for a page with up to 16 changed ranges, a
// second one past that. The ranges' data alias cur with
// their capacity cut, so appending to one cannot reach into the page.
func TestComputeZeroAllocsWhenIdentical(t *testing.T) {
	base, cur := benchPages(2048, 0) // two buffers, as in a write: memequal short-cuts one
	if n := testing.AllocsPerRun(100, func() { _, _ = Compute(1, 1, base, cur) }); n != 0 {
		t.Errorf("Compute of identical pages allocates %.1f objects per run, want 0", n)
	}
	for _, c := range []struct{ changes, allocs int }{{1, 1}, {4, 1}, {40, 2}} {
		base, cur := benchPages(2048, c.changes)
		if n := testing.AllocsPerRun(100, func() { _, _ = Compute(1, 1, base, cur) }); n != float64(c.allocs) {
			t.Errorf("Compute of %d changes allocates %.1f objects per run, want %d", c.changes, n, c.allocs)
		}
	}
	base, cur = benchPages(2048, 4)
	d, _ := Compute(1, 1, base, cur)
	for _, r := range d.Ranges {
		if &r.Data[0] != &cur[r.Off] || cap(r.Data) != len(r.Data) {
			t.Fatalf("the range at %d is not cur's bytes, capacity cut", r.Off)
		}
	}
}

// benchPages builds a base page and an updated copy with nchanges short
// scattered runs, the paper's update shape.
func benchPages(size, nchanges int) (base, cur []byte) {
	rng := rand.New(rand.NewSource(7))
	base = make([]byte, size)
	rng.Read(base)
	cur = append([]byte(nil), base...)
	for i := 0; i < nchanges; i++ {
		off := rng.Intn(size - 16)
		rng.Read(cur[off : off+16])
	}
	return base, cur
}

func BenchmarkComputeSparse(b *testing.B) {
	base, cur := benchPages(2048, 4)
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(1, 1, base, cur); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeReferenceSparse(b *testing.B) {
	// The pre-PR byte-at-a-time scan, for the bench report's before/after.
	base, cur := benchPages(2048, 4)
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		computeReference(1, 1, base, cur)
	}
}

func BenchmarkComputeIdentical(b *testing.B) {
	base, cur := benchPages(2048, 0) // two buffers, as in a write: memequal short-cuts one
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(1, 1, base, cur); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeFullRewrite(b *testing.B) {
	base, _ := benchPages(2048, 0)
	cur := make([]byte, 2048)
	rand.New(rand.NewSource(8)).Read(cur)
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(1, 1, base, cur); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiffPage packs eight 4-change differentials (distinct pids) into
// one differential-page image.
func benchDiffPage() []byte {
	var ds []Differential
	for pid := uint32(0); pid < 8; pid++ {
		base, cur := benchPages(2048, 4)
		d, err := Compute(pid, uint64(pid+1), base, cur)
		if err != nil {
			panic(err)
		}
		ds = append(ds, d)
	}
	return encodePage(2048, ds...)
}

func BenchmarkFindIn(b *testing.B) {
	page := benchDiffPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := FindIn(page, 7); !ok {
			b.Fatal("not found")
		}
	}
}

func BenchmarkDecodeAllFind(b *testing.B) {
	// The pre-PR read path: decode (and copy) every record in the page,
	// then pick the target pid's.
	page := benchDiffPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := findReference(page, 7); !ok {
			b.Fatal("not found")
		}
	}
}

func BenchmarkApplyRecord(b *testing.B) {
	page := benchDiffPage()
	rec, ok := FindIn(page, 7)
	if !ok {
		b.Fatal("not found")
	}
	out := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ApplyRecord(rec, out); err != nil {
			b.Fatal(err)
		}
	}
}
