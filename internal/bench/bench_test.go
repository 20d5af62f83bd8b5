package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/tpcc"
)

// testGeometry is small enough for unit tests but large enough to reach a
// garbage-collection steady state.
func testGeometry() Geometry {
	return Geometry{
		Params:          flash.ScaledParams(48),
		DBFrac:          0.4,
		GCRounds:        1.0,
		ConditionMaxOps: 400_000,
		MeasureOps:      4_000,
		Seed:            1,
	}
}

// exp1Emu is Exp1 of the standard methods at testGeometry() over the
// emulator, run once for the tests that read its rows.
var exp1Emu = sync.OnceValues(func() ([]Row, error) {
	g := testGeometry()
	return Exp1(g, StandardMethods(g.Params))
})

func rowOf(t *testing.T, rows []Row, method string, x float64) Row {
	t.Helper()
	for _, r := range rows {
		if r.Method == method && r.X == x {
			return r
		}
	}
	t.Fatalf("no row for %s at x=%g", method, x)
	return Row{}
}

func TestStandardMethodNames(t *testing.T) {
	p := flash.DefaultParams()
	specs := StandardMethods(p)
	want := []string{"IPL(18KB)", "IPL(64KB)", "PDL(2KB)", "PDL(256B)", "OPU", "IPU"}
	for i, spec := range specs {
		if got := spec.Name(p); got != want[i] {
			t.Errorf("spec %d name = %q, want %q", i, got, want[i])
		}
	}
}

func TestExp1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rows, err := exp1Emu()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	pdlSmall := byName["PDL(256B)"]
	pdlFull := byName["PDL(2KB)"]
	op := byName["OPU"]
	ipu := byName["IPU"]
	ipl18 := byName["IPL(18KB)"]
	ipl64 := byName["IPL(64KB)"]

	// Figure 12(a): read time OPU/IPU < PDL <= IPL(18) <= IPL(64).
	if !(op.Read < pdlSmall.Read) {
		t.Errorf("read: OPU (%.1f) should beat PDL(256B) (%.1f)", op.Read, pdlSmall.Read)
	}
	if !(pdlSmall.Read <= 2.2*op.Read) {
		t.Errorf("read: PDL(256B) (%.1f) should be at most ~2x OPU (%.1f)", pdlSmall.Read, op.Read)
	}
	if !(ipl64.Read > pdlFull.Read) {
		t.Errorf("read: IPL(64KB) (%.1f) should exceed PDL(2KB) (%.1f)", ipl64.Read, pdlFull.Read)
	}
	// Figure 12(b): IPU has by far the worst write time.
	if !(ipu.Write > 3*op.Write) {
		t.Errorf("write: IPU (%.1f) should dwarf OPU (%.1f)", ipu.Write, op.Write)
	}
	// PDL(256B) has the cheapest write step of the non-IPL methods.
	if !(pdlSmall.Write < op.Write) {
		t.Errorf("write: PDL(256B) (%.1f) should beat OPU (%.1f)", pdlSmall.Write, op.Write)
	}
	// Figure 12(c): PDL(256B) best overall; IPU worst overall.
	for name, r := range byName {
		if name == "PDL(256B)" {
			continue
		}
		if pdlSmall.Overall >= r.Overall {
			t.Errorf("overall: PDL(256B) (%.1f) should beat %s (%.1f)",
				pdlSmall.Overall, name, r.Overall)
		}
	}
	if !(ipu.Overall > op.Overall) {
		t.Errorf("overall: IPU (%.1f) should be worse than OPU (%.1f)", ipu.Overall, op.Overall)
	}
	_ = ipl18
}

func TestExp2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 3000
	specs := []MethodSpec{
		{Kind: KindOPU},
		{Kind: KindPDL, Param: g.Params.DataSize},
		{Kind: KindPDL, Param: g.Params.DataSize / 8},
		{Kind: KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
	}
	rows, err := Exp2(g, specs, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// OPU is flat in N (same write volume per reflection).
	opu1 := rowOf(t, rows, "OPU", 1).Overall
	opu8 := rowOf(t, rows, "OPU", 8).Overall
	if ratio := opu8 / opu1; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("OPU not flat in N: %.1f -> %.1f (ratio %.2f)", opu1, opu8, ratio)
	}
	// IPL grows with N (it keeps all update logs).
	ipl1 := rowOf(t, rows, "IPL(18KB)", 1).Overall
	ipl8 := rowOf(t, rows, "IPL(18KB)", 8).Overall
	if !(ipl8 > 1.5*ipl1) {
		t.Errorf("IPL should grow with N: %.1f -> %.1f", ipl1, ipl8)
	}
	// PDL(full page) is bounded: the differential cannot exceed one page,
	// so its cost converges to roughly one differential-page write per
	// reflection plus garbage collection — it grows with N far more slowly
	// than IPL and stays within ~1.5x of OPU (see EXPERIMENTS.md for the
	// deviation from the paper's "increases only very slightly").
	pdl1 := rowOf(t, rows, "PDL(2KB)", 1).Overall
	pdl8 := rowOf(t, rows, "PDL(2KB)", 8).Overall
	if !(pdl8 < 3.0*pdl1) {
		t.Errorf("PDL(2KB) grew too much with N: %.1f -> %.1f", pdl1, pdl8)
	}
	if !(pdl8 < 1.6*opu8) {
		t.Errorf("PDL(2KB) at N=8 (%.1f) should stay near OPU (%.1f)", pdl8, opu8)
	}
	// PDL(256B) approaches OPU as N grows (Case 3 dominates).
	pdlSmall8 := rowOf(t, rows, "PDL(256B)", 8).Overall
	if !(pdlSmall8 < 1.6*opu8) {
		t.Errorf("PDL(256B) at N=8 (%.1f) should approach OPU (%.1f)", pdlSmall8, opu8)
	}
}

func TestExp4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 4000
	specs := []MethodSpec{
		{Kind: KindOPU},
		{Kind: KindPDL, Param: g.Params.DataSize / 8},
	}
	rows, err := Exp4(g, specs, []float64{0, 50, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// At %UpdateOps=0 (read-only on an updated database) OPU wins: PDL
	// pays the extra differential-page read.
	opu0 := rowOf(t, rows, "OPU", 0).Overall
	pdl0 := rowOf(t, rows, "PDL(256B)", 0).Overall
	if !(opu0 <= pdl0) {
		t.Errorf("read-only: OPU (%.1f) should not lose to PDL (%.1f)", opu0, pdl0)
	}
	// At %UpdateOps=100 PDL wins clearly.
	opu100 := rowOf(t, rows, "OPU", 100).Overall
	pdl100 := rowOf(t, rows, "PDL(256B)", 100).Overall
	if !(pdl100 < opu100) {
		t.Errorf("update-heavy: PDL (%.1f) should beat OPU (%.1f)", pdl100, opu100)
	}
}

func TestExp5RecomputationConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 2000
	specs := []MethodSpec{{Kind: KindOPU}}
	points, err := Exp5(g, specs, []int64{g.Params.ReadMicros}, []int64{g.Params.WriteMicros})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	// Recomputing with the baseline parameters must match a direct run's
	// per-op time derived from the same counts.
	p := points[0]
	direct := float64(p.BaselineCounts.TimeMicros)
	recomputed := p.OverallPerOp * float64(2000)
	// Erase time differs only if erase counts differ; both derive from the
	// same counts, so they must agree within rounding.
	if diff := recomputed - direct; diff > 1 || diff < -1 {
		// OverallPerOp uses ops from Raw, which may exceed MeasureOps by
		// cycle granularity; tolerate small drift.
		ratio := recomputed / direct
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("recomputed %.0f vs direct %.0f", recomputed, direct)
		}
	}
}

func TestExp5MorePointsCheaperThanReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 1000
	points, err := Exp5(g, []MethodSpec{{Kind: KindOPU}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 Tread values x 2 Twrite values from a single run.
	if len(points) != 14 {
		t.Errorf("points = %d, want 14", len(points))
	}
	// Overall time strictly increases with Tread at fixed Twrite.
	var last float64
	for _, p := range points {
		if p.Twrite != 500 {
			continue
		}
		if p.OverallPerOp < last {
			t.Errorf("overall not monotone in Tread: %.2f after %.2f", p.OverallPerOp, last)
		}
		last = p.OverallPerOp
	}
}

func TestExp6ErasesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 3000
	specs := []MethodSpec{
		{Kind: KindOPU},
		{Kind: KindPDL, Param: g.Params.DataSize / 8},
	}
	rows, err := Exp6(g, specs, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	opu := rowOf(t, rows, "OPU", 1)
	pdl := rowOf(t, rows, "PDL(256B)", 1)
	// Figure 17 at N=1: OPU erases most; PDL(256B) erases least of the two
	// (better longevity).
	if !(pdl.ErasesPerOp < opu.ErasesPerOp) {
		t.Errorf("erases/op: PDL(256B) (%.4f) should beat OPU (%.4f)",
			pdl.ErasesPerOp, opu.ErasesPerOp)
	}
	if opu.ErasesPerOp == 0 {
		t.Error("OPU recorded no erases; steady state not reached")
	}
}

func TestExp7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	cfg := Exp7Config{
		Scale: tpcc.Scale{
			Warehouses:               1,
			ItemCount:                300,
			DistrictsPerWarehouse:    4,
			CustomersPerDistrict:     30,
			InitialOrdersPerDistrict: 30,
			MaxNewTransactions:       4000,
		},
		BufferPcts: []float64{0.5, 10},
		WarmupTxns: 200,
		MeasureTxn: 800,
		Seed:       1,
	}
	specs := []MethodSpec{
		{Kind: KindOPU},
		{Kind: KindPDL, Param: g.Params.DataSize / 8},
	}
	points, err := Exp7(g, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(method string, pct float64) float64 {
		for _, p := range points {
			if p.Method == method && p.BufferPct == pct {
				return p.MicrosPerTxn
			}
		}
		t.Fatalf("missing point %s %g", method, pct)
		return 0
	}
	// Larger buffer -> less I/O per transaction, for both methods.
	if !(get("OPU", 10) < get("OPU", 0.5)) {
		t.Error("OPU: bigger buffer did not reduce I/O")
	}
	if !(get("PDL(256B)", 10) < get("PDL(256B)", 0.5)) {
		t.Error("PDL: bigger buffer did not reduce I/O")
	}
	// PDL beats OPU under TPC-C (Figure 18).
	if !(get("PDL(256B)", 0.5) < get("OPU", 0.5)) {
		t.Errorf("TPC-C: PDL(256B) (%.1f) should beat OPU (%.1f) at small buffers",
			get("PDL(256B)", 0.5), get("OPU", 0.5))
	}
}

func TestReportWriters(t *testing.T) {
	rows := []Row{
		{Method: "OPU", X: 1, Read: 110, Write: 2020, GC: 10, Overall: 2130, ErasesPerOp: 0.02},
		{Method: "PDL(256B)", X: 1, Read: 160, Write: 400, GC: 5, Overall: 560, ErasesPerOp: 0.004},
	}
	var b bytes.Buffer
	WriteExp1Table(&b, rows)
	if !strings.Contains(b.String(), "PDL(256B)") {
		t.Error("exp1 table missing method")
	}
	b.Reset()
	WriteSeriesTable(&b, rows, "N", func(r Row) float64 { return r.Overall })
	if !strings.Contains(b.String(), "OPU") {
		t.Error("series table missing method")
	}
	b.Reset()
	WriteCSV(&b, rows, "N")
	if !strings.Contains(b.String(), "method,N") {
		t.Error("csv header missing")
	}
	b.Reset()
	WriteExp5Table(&b, []Exp5Point{{Method: "OPU", Tread: 110, Twrite: 500, OverallPerOp: 2000}})
	if !strings.Contains(b.String(), "Twrite = 500") {
		t.Error("exp5 table missing twrite header")
	}
	b.Reset()
	WriteExp7Table(&b, []Exp7Point{{Method: "OPU", BufferPct: 1, MicrosPerTxn: 5000}})
	if !strings.Contains(b.String(), "buf %") {
		t.Error("exp7 table missing header")
	}
}
