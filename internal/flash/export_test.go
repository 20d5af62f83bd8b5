package flash

// Accessors only this package's tests call.

// Programmed reports whether the data area of ppn has been programmed
// since the last erase of its block. It is a free (zero-cost) emulator
// query intended for assertions and debugging, not for use on the methods'
// hot paths: a real driver must track free pages itself.
func (c *Chip) Programmed(ppn PPN) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, _, err := c.addr(ppn); err != nil {
		return false
	}
	return c.pages[ppn].programmed
}

// PowerFailed reports whether a scheduled power failure has fired.
func (c *Chip) PowerFailed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.failed
}

// BlockSize returns the full size of a block including spare areas (Sblock).
func (p Params) BlockSize() int { return p.PagesPerBlock * p.PageSize() }

// DataCapacity returns the total data-area capacity of the chip in bytes.
func (p Params) DataCapacity() int64 {
	return int64(p.NumBlocks) * int64(p.PagesPerBlock) * int64(p.DataSize)
}
