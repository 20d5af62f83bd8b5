package buffer

// Accessors only this package's tests call.

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }
