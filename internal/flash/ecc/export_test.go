package ecc

import "fmt"

// Accessors only this package's tests call.

// CorrectPage verifies a whole page against its concatenated ECC,
// correcting up to one bit per sector. It returns the total corrected
// bits, and an error naming the first uncorrectable sector if there is
// one.
func CorrectPage(data, codes []byte) (int, error) {
	corrected, bad, err := CorrectPageSectors(data, codes)
	if err == nil && bad != nil {
		err = fmt.Errorf("sector %d: %w", bad[0], ErrUncorrectable)
	}
	return corrected, err
}
