package ftl

// Accessors only this package's tests call.

// FreePages returns the number of unwritten pages available without
// garbage collection, summed over channels.
func (a *Allocator) FreePages() int {
	n := 0
	for ch := range a.chans {
		c := &a.chans[ch]
		n += len(c.freeList) * a.params.PagesPerBlock
		for st := range c.ap {
			n += a.tail(&c.ap[st])
		}
	}
	return n
}

// MinVictimRounds returns the minimum number of times any single block has
// been garbage-collected, the paper's steady-state criterion ("garbage
// collection is invoked for each block at least ten times on the average
// after loading the database"). Like GCStats, it requires the caller's
// serialization against any background collector.
func (a *Allocator) MinVictimRounds() int64 {
	empty := true
	for ch := range a.chans {
		if len(a.chans[ch].gcVictims) > 0 {
			empty = false
			break
		}
	}
	if empty {
		return 0
	}
	var min int64 = 1<<63 - 1
	for b := range a.blocks {
		v := a.chans[a.chanOf(b)].gcVictims[b]
		if v < min {
			min = v
		}
	}
	return min
}

// PendingObsolete returns the number of queued cross-channel obsolete
// notes on channel ch.
func (a *Allocator) PendingObsolete(ch int) int { return int(a.chans[ch].obsLen.Load()) }

// EncodeHeader writes h into a freshly allocated erased spare image of the
// given size. Hot paths that can reuse a scratch buffer should prefer
// EncodeHeaderInto.
func EncodeHeader(h Header, spareSize int) []byte {
	spare := make([]byte, spareSize)
	EncodeHeaderInto(h, spare)
	return spare
}

// ObsoleteSpare returns a spare image that, when partially programmed onto
// a page, clears only the obsolete flag (paper footnote 6: "changing the
// obsolete bit in the spare area of the page from 1 to 0").
func ObsoleteSpare(spareSize int) []byte {
	spare := make([]byte, spareSize)
	ObsoleteSpareInto(spare)
	return spare
}
