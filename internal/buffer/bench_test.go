package buffer

import "testing"

// BenchmarkPoolGetHit is a Get of a resident page: the pool's own cost on the
// path every workload takes most.
func BenchmarkPoolGetHit(b *testing.B) {
	const capacity = 64
	p, err := NewPool(&stubMethod{failing: noPage}, capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		// 7 is coprime to 64: every frame in turn, never the one just used.
		if _, err := p.Get(uint32(i*7) % capacity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolGetMiss is a Get that evicts, over a stub whose read fills the
// page: half the fetches name a page never seen, half a page evicted a moment
// ago (a ghost while the directory remembers it).
func BenchmarkPoolGetMiss(b *testing.B) {
	const capacity = 64
	p, err := NewPool(&stubMethod{failing: noPage}, capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		pid := uint32(i)
		if i%2 == 1 {
			pid -= capacity + 1
		}
		if _, err := p.Get(pid); err != nil {
			b.Fatal(err)
		}
	}
	if st := p.Stats(); st.Hits != 0 {
		b.Fatalf("%d of the fetches were hits", st.Hits)
	}
}
