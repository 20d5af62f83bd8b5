package ycsb

import (
	"math/rand"
	"testing"
)

// TestZipfianSkew checks the generator's defining property: under
// theta=0.99 a small head of the rank space absorbs most of the draws,
// and every draw is in range.
func TestZipfianSkew(t *testing.T) {
	const n, draws = 10000, 200000
	z := NewZipfian(n, 0.99)
	r := rand.New(rand.NewSource(7))
	head := 0 // draws landing in the first 1% of ranks
	for i := 0; i < draws; i++ {
		rank := z.Next(r)
		if rank >= n {
			t.Fatalf("rank %d out of range", rank)
		}
		if rank < n/100 {
			head++
		}
	}
	frac := float64(head) / draws
	if frac < 0.4 {
		t.Errorf("top 1%% of ranks got %.0f%% of draws, want zipfian head (>40%%)", frac*100)
	}
}
