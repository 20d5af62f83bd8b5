package core

// Accessors only this package's tests call.

// WriteBufferBytes returns the used bytes of the differential write buffer,
// summed across shards.
func (s *Store) WriteBufferBytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.dwb.slab)
		sh.mu.RUnlock()
	}
	return n
}

// WriteBufferLen returns the number of differentials currently buffered
// across all shards.
func (s *Store) WriteBufferLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.dwb.index)
		sh.mu.RUnlock()
	}
	return n
}

// DiffCacheLen returns the number of differential records currently held by
// the differential cache (0 when disabled).
func (s *Store) DiffCacheLen() int { return s.dcache.len() }

// DiffCacheEnabled reports whether the differential cache is on.
func (s *Store) DiffCacheEnabled() bool { return s.dcache != nil }

// len returns the number of images in the retained base images' window.
func (b *baseImages) len() int { return b.count(false) }

// heldLen returns the number of images in the held region.
func (b *baseImages) heldLen() int { return b.count(true) }

func (b *baseImages) count(held bool) (n int) {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := b.win.keys
	if held {
		keys = b.held.keys
	}
	for _, key := range keys {
		if key != (pageStamp{}) {
			n++
		}
	}
	return n
}
