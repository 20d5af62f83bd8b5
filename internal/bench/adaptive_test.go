package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestClassOfMix(t *testing.T) {
	const n = 10_000
	var counts [3]int
	for pid := 0; pid < n; pid++ {
		counts[classOf(uint32(pid))]++
	}
	// The hash split should land near the configured 60/25/15 mix.
	within := func(got, wantPct, slackPct int) bool {
		want := n * wantPct / 100
		slack := n * slackPct / 100
		return got > want-slack && got < want+slack
	}
	if !within(counts[classSparse], pctSparse, 5) ||
		!within(counts[classMedium], pctMedium, 5) ||
		!within(counts[classDense], 100-pctSparse-pctMedium, 5) {
		t.Errorf("class mix = %v over %d pids, want ~60/25/15", counts, n)
	}
}

func TestAdaptiveTraceDeterministic(t *testing.T) {
	a := newAdaptiveTrace(64, 512, 0.99, 7)
	b := newAdaptiveTrace(64, 512, 0.99, 7)
	for i := 0; i < 200; i++ {
		pa, ia := a.next()
		pb, ib := b.next()
		if pa != pb || !bytes.Equal(ia, ib) {
			t.Fatalf("op %d diverged: pid %d vs %d", i, pa, pb)
		}
	}
}

func TestExpAdaptiveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 2_000
	points, err := ExpAdaptive(g, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(AdaptiveMethods(g.Params)) {
		t.Fatalf("got %d points, want %d", len(points), len(AdaptiveMethods(g.Params)))
	}
	var adaptive *AdaptivePoint
	for i := range points {
		p := &points[i]
		if p.FlashOps.PerWrite <= 0 {
			t.Errorf("%s: per-write cost %v, want > 0", p.Method, p.FlashOps.PerWrite)
		}
		if p.Ops != int64(g.MeasureOps) {
			t.Errorf("%s: measured %d ops, want %d", p.Method, p.Ops, g.MeasureOps)
		}
		if p.Method == "Adaptive" {
			adaptive = p
		}
	}
	if adaptive == nil {
		t.Fatal("no Adaptive point")
	}
	if adaptive.FlashOps.PDLRouted == 0 || adaptive.FlashOps.OPURouted == 0 {
		t.Errorf("adaptive route split degenerate: pdl=%d opu=%d",
			adaptive.FlashOps.PDLRouted, adaptive.FlashOps.OPURouted)
	}
	if got := adaptive.FlashOps.PDLRouted + adaptive.FlashOps.OPURouted; got != adaptive.Ops {
		t.Errorf("route split sums to %d, want %d", got, adaptive.Ops)
	}
	var b bytes.Buffer
	WriteAdaptiveTable(&b, points)
	for _, col := range []string{"flashops/wr", "pdl_routed", "gc_migr", "Adaptive", "OPU"} {
		if !strings.Contains(b.String(), col) {
			t.Errorf("adaptive table missing %q", col)
		}
	}
}
