package buffer

// The pool against the page stream of the repository benchmark's ycsb_a: what
// it faults and what it writes back there is most of that workload's flash
// time, so the policy is held to a model of the stream itself.

import (
	"math/rand"
	"testing"

	"pdl/internal/ftl"
	"pdl/internal/ycsb"
)

// countMethod serves every page and counts what the pool asks of it.
type countMethod struct {
	ftl.Method // nil: the pool must call nothing else
	reads      int64
	writes     int64
}

func (m *countMethod) PageSize() int                  { return 256 }
func (m *countMethod) ReadPage(uint32, []byte) error  { m.reads++; return nil }
func (m *countMethod) WritePage(uint32, []byte) error { m.writes++; return nil }
func (m *countMethod) Flush() error                   { return nil }

// The shape of ycsb_a's kv store: 100,000 records in 8 buckets, one B+-tree
// and one 64-frame pool each, 17 records a leaf and 340 children an internal
// node.
const (
	streamRecords  = 100000
	streamBuckets  = 8
	streamFrames   = 64
	streamPerLeaf  = 17
	streamFanout   = 340
	streamLeafBase = 16 // pid of a bucket's first leaf; 0 is its root, 1.. its internal nodes
)

// leafStream replays a key stream as the page touches of kv's trees: each
// operation reads the root, one internal node and the key's leaf in the
// key's bucket, and every second one writes the leaf.
type leafStream struct {
	pools  [streamBuckets]*Pool
	bucket [streamRecords]uint8
	leaf   [streamRecords]uint32
	ops    int64
}

func newLeafStream(t *testing.T) *leafStream {
	t.Helper()
	s := &leafStream{}
	for b := range s.pools {
		s.pools[b] = stubPool(t, &countMethod{}, streamFrames)
	}
	// A bucket holds its keys in key order; kv's bucket hash is MurmurHash3's
	// 64-bit finalizer (fmix64), which is ycsb.Scramble.
	var filled [streamBuckets]uint32
	for k := range s.bucket {
		b := ycsb.Scramble(uint64(k)) % streamBuckets
		s.bucket[k] = uint8(b)
		s.leaf[k] = filled[b] / streamPerLeaf
		filled[b]++
	}
	return s
}

func (s *leafStream) op(t *testing.T, k uint64) {
	write := s.ops%2 == 1
	if write {
		// Two clients write, each the keys of its own parity.
		c := uint64(s.ops/2) % 2
		if k = k - k%2 + c; k >= streamRecords {
			k -= 2
		}
	}
	p, leaf := s.pools[s.bucket[k]], s.leaf[k]
	for _, pid := range []uint32{0, 1 + leaf/streamFanout, streamLeafBase + leaf} {
		if _, err := p.Get(pid); err != nil {
			t.Fatal(err)
		}
	}
	if write {
		if err := p.MarkDirty(streamLeafBase + leaf); err != nil {
			t.Fatal(err)
		}
	}
	s.ops++
}

// run drives n operations of keys from next after as many again to fill the
// pools, and returns the page reads and writes per operation of the n that
// reached the methods below the pools: the faults and the dirty evictions.
func (s *leafStream) run(t *testing.T, n int, next func() uint64) (misses, writebacks float64) {
	for i := 0; i < n; i++ {
		s.op(t, next())
	}
	counts := func() (reads, writes int64) {
		for _, p := range s.pools {
			m := p.Method().(*countMethod)
			reads, writes = reads+m.reads, writes+m.writes
		}
		return reads, writes
	}
	reads, writes := counts()
	for i := 0; i < n; i++ {
		s.op(t, next())
	}
	r, w := counts()
	return float64(r-reads) / float64(n), float64(w-writes) / float64(n)
}

// TestYCSBALeafStream: on ycsb_a's scrambled zipfian keys the pool faults and
// writes back fewer pages per operation than it did with a sketch of 4 x
// capacity counters a row, which read 0.4696 and 0.2449 on this stream (the
// adaptive (ARC) pool before it 0.4936 and 0.2614; the benchmark measured
// 0.482 and 0.251 at seed 1): a bucket's tree touches about 740 leaves, so
// that sketch let three leaves share every counter. The bounds are halfway to
// this pool's 0.4576 and 0.2391. On uniform keys no policy can tell the
// leaves apart: ARC read 0.9190 misses per operation, and this pool must not
// read more.
func TestYCSBALeafStream(t *testing.T) {
	const n = 200000
	rng := rand.New(rand.NewSource(1))
	zipf := ycsb.NewZipfian(streamRecords, 0.99)
	s := newLeafStream(t)
	misses, writebacks := s.run(t, n, func() uint64 { return ycsb.Scramble(zipf.Next(rng)) % streamRecords })
	t.Logf("scrambled zipfian: %.4f misses and %.4f write-backs per operation", misses, writebacks)
	if misses > 0.4636 || writebacks > 0.2420 {
		t.Errorf("scrambled zipfian: %.4f misses and %.4f write-backs per operation, want at most 0.4636 and 0.2420", misses, writebacks)
	}

	s = newLeafStream(t)
	misses, _ = s.run(t, n, func() uint64 { return uint64(rng.Int63n(streamRecords)) })
	t.Logf("uniform: %.4f misses per operation", misses)
	if misses > 0.9190 {
		t.Errorf("uniform: %.4f misses per operation, want at most 0.9190", misses)
	}
}
