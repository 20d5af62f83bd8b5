package diff

// Accessors only this package's tests call.

// ChangedBytes returns the total number of bytes carried by the ranges.
func (d Differential) ChangedBytes() int {
	n := 0
	for _, r := range d.Ranges {
		n += len(r.Data)
	}
	return n
}
