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

// pickVictim is pickVictimOn in single-channel mode.
func (a *Allocator) pickVictim() int { return a.pickVictimOn(0) }

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
