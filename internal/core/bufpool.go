package core

import (
	"sync"
	"unsafe"
)

// bufPool is a sync.Pool of byte buffers of one size. A []byte put into a
// sync.Pool is boxed, which allocates a slice header on every Put — the
// one allocation a cached page read used to make — so the pool stores
// each buffer as the pointer to its first byte, which an interface holds
// without allocating, and get re-slices it to the fixed size.
type bufPool struct {
	pool sync.Pool
	size int
}

func (p *bufPool) init(size int) {
	p.size = size
	p.pool.New = func() any { return unsafe.SliceData(make([]byte, size)) }
}

func (p *bufPool) get() []byte { return unsafe.Slice(p.pool.Get().(*byte), p.size) }

// put takes back a buffer get handed out, whole (not a subslice of one).
func (p *bufPool) put(b []byte) {
	if cap(b) >= p.size {
		p.pool.Put(unsafe.SliceData(b))
	}
}
