package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

	// The rows themselves, to one decimal: the methods run one greedy victim
	// rule, and nothing below them may move a row without a reason. PDL's
	// victims also count the dead records of their live differential pages.
	for _, w := range []struct {
		method                   string
		read, write, gc, overall float64
	}{
		{"IPL(18KB)", 241.8, 1512.4, 502.4, 1754.2},
		{"IPL(64KB)", 604.5, 1285.8, 275.8, 1890.3},
		{"PDL(2KB)", 219.8, 598.0, 40.0, 817.8},
		{"PDL(256B)", 202.5, 338.6, 7.7, 541.2},
		{"OPU", 110.0, 2190.5, 170.5, 2300.5},
		{"IPU", 110.0, 72414.8, 0.0, 72524.8},
	} {
		r := byName[w.method]
		got := fmt.Sprintf("%.1f / %.1f / %.1f / %.1f", r.Read, r.Write, r.GC, r.Overall)
		if want := fmt.Sprintf("%.1f / %.1f / %.1f / %.1f", w.read, w.write, w.gc, w.overall); got != want {
			t.Errorf("%s: read / write / gc / overall = %s us per op, want %s", w.method, got, want)
		}
	}
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
	rows, err := Exp2(g, specs, []float64{1, 4, 8})
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

	// The rows themselves, to one decimal, as TestExp1Shapes pins Figure 12's:
	// the overall time per reflection of each method at N = 1, 4 and 8.
	pinOverall(t, rows, []float64{1, 4, 8}, "N=%g", map[string][]float64{
		"OPU":       {2299.1, 2302.8, 2305.1},
		"PDL(2KB)":  {804.6, 1737.0, 2258.3},
		"PDL(256B)": {541.6, 885.3, 1409.8},
		"IPL(18KB)": {1682.0, 3094.9, 5901.9},
	})
}

// TestExp3Shapes checks Figure 14 at N=1: OPU rewrites a whole page
// whatever changed, so its cost is flat; PDL(256B) grows with the share of
// the page an update changes, as its differentials grow, and stays below
// OPU throughout; IPL(18KB) fills its log sectors and merges ever more often,
// far above OPU by 50%.
func TestExp3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	specs := []MethodSpec{
		{Kind: KindOPU},
		{Kind: KindPDL, Param: g.Params.DataSize / 8},
		{Kind: KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
	}
	pcts := []float64{0.5, 5, 50}
	rows, err := Exp3(g, specs, pcts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s %4g%% %9.1f us", r.Method, r.X, r.Overall)
	}
	opu0 := rowOf(t, rows, "OPU", pcts[0]).Overall
	var lastPDL float64
	for _, pct := range pcts {
		opu := rowOf(t, rows, "OPU", pct).Overall
		pdl := rowOf(t, rows, "PDL(256B)", pct).Overall
		if opu < 0.95*opu0 || opu > 1.05*opu0 {
			t.Errorf("OPU at %g%% (%.1f) should stay within 5%% of its %g%% cost (%.1f)", pct, opu, pcts[0], opu0)
		}
		if !(pdl < opu) {
			t.Errorf("PDL(256B) at %g%% (%.1f) should beat OPU (%.1f)", pct, pdl, opu)
		}
		if !(pdl > lastPDL) {
			t.Errorf("PDL(256B) at %g%% (%.1f) should cost more than at the smaller change (%.1f)", pct, pdl, lastPDL)
		}
		lastPDL = pdl
	}
	if ipl, opu := rowOf(t, rows, "IPL(18KB)", 50).Overall, rowOf(t, rows, "OPU", 50).Overall; !(ipl > 2*opu) {
		t.Errorf("IPL(18KB) at 50%% (%.1f) should cost over twice OPU (%.1f)", ipl, opu)
	}

	// The rows themselves, to one decimal, as TestExp2Shapes pins Figure 13's.
	pinOverall(t, rows, pcts, "%g%% changed", map[string][]float64{
		"OPU":       {2289.8, 2295.4, 2308.9},
		"PDL(256B)": {459.3, 706.5, 1408.9},
		"IPL(18KB)": {1724.2, 1773.0, 13184.8},
	})
}

// pinOverall holds the Overall value of each method's row at each x to want,
// to one decimal; at formats an x for the message.
func pinOverall(t *testing.T, rows []Row, xs []float64, at string, want map[string][]float64) {
	t.Helper()
	for method, overall := range want {
		for i, x := range xs {
			got := fmt.Sprintf("%.1f", rowOf(t, rows, method, x).Overall)
			if w := fmt.Sprintf("%.1f", overall[i]); got != w {
				t.Errorf("%s at "+at+": overall = %s, want %s", method, x, got, w)
			}
		}
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
	pcts := []float64{0, 50, 100}
	rows, err := Exp4(g, specs, pcts, 1)
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
	// Figure 15's rows, to one decimal.
	pinOverall(t, rows, pcts, "%g%% updates", map[string][]float64{
		"OPU":       {110.0, 1219.4, 2301.7},
		"PDL(256B)": {203.4, 370.2, 544.0},
	})
}

func TestExp5RecomputationConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 2000
	exp1, err := Exp1(g, []MethodSpec{{Kind: KindOPU}})
	if err != nil {
		t.Fatal(err)
	}
	rows := Exp5(g.Params, exp1, []int64{g.Params.ReadMicros}, g.Params.WriteMicros)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Recomputing with the baseline parameters must give the measured
	// per-op time back: both derive from the same counts.
	if got, want := rows[0].Overall, exp1[0].Overall; got != want {
		t.Errorf("recomputed %.3f us per op, measured %.3f", got, want)
	}
}

func TestExp5MorePointsCheaperThanReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	g := testGeometry()
	g.MeasureOps = 1000
	exp1, err := Exp1(g, []MethodSpec{{Kind: KindOPU}})
	if err != nil {
		t.Fatal(err)
	}
	// 7 Tread values at each of 2 Twrite values from a single run.
	for _, tw := range []int64{500, 1000} {
		rows := Exp5(g.Params, exp1, nil, tw)
		if len(rows) != 7 {
			t.Errorf("Twrite %d: rows = %d, want 7", tw, len(rows))
		}
		// Overall time strictly increases with Tread at fixed Twrite.
		for i := 1; i < len(rows); i++ {
			if !(rows[i].Overall > rows[i-1].Overall) {
				t.Errorf("Twrite %d: overall not increasing in Tread: %.2f after %.2f",
					tw, rows[i].Overall, rows[i-1].Overall)
			}
		}
	}
}

// TestExp6ErasesShape reads Figure 17 where pdlbench does: the erase
// counts of Experiment 2's rows.
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
	rows, err := Exp2(g, specs, []float64{1})
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
	rows, err := Exp7(g, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(method string, pct float64) float64 { return rowOf(t, rows, method, pct).Overall }
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
	// Figure 18's rows (us per transaction), to one decimal. The pool has 7
	// frames at 0.5% and 159 at 10%. At 0.5% it misses about 40% of its
	// accesses, so its window grows from one frame to three, and TPC-C's
	// reuse soon after arrival hits there. At 10% it misses far fewer, the
	// window stays a tenth, and only the wider sketch moves the rows.
	pinOverall(t, rows, cfg.BufferPcts, "%g%% buffer", map[string][]float64{
		"OPU":       {15814.7, 339.3},
		"PDL(256B)": {4521.8, 159.4},
	})
}

// TestBadGeometryIsRejected runs every experiment path — the sweep and
// Exp7 — on a geometry with no blocks, no measured operations or a
// database of no pages: each returns a *GeometryError before it builds a
// device, where it used to panic in flash.NewChip or print NaN and zero
// rows.
func TestBadGeometryIsRejected(t *testing.T) {
	cfg := Exp7Config{Scale: tpcc.DefaultScale(1), BufferPcts: []float64{1}, MeasureTxn: 1}
	exps := map[string]func(Geometry) error{
		"Exp1": func(g Geometry) error { _, err := Exp1(g, StandardMethods(g.Params)); return err },
		"Exp3": func(g Geometry) error { _, err := Exp3(g, StandardMethods(g.Params), nil, 1); return err },
		"Exp7": func(g Geometry) error { _, err := Exp7(g, StandardMethods(g.Params), cfg); return err },
	}
	for _, tc := range []struct {
		name        string
		blocks, ops int
		dbfrac      float64
		field       string
	}{
		{"blocks=0", 0, 10, 0.4, "NumBlocks"},
		{"blocks=-1", -1, 10, 0.4, "NumBlocks"},
		{"ops=0", 64, 0, 0.4, "MeasureOps"},
		{"ops=-5", 64, -5, 0.4, "MeasureOps"},
		{"dbfrac=0", 64, 10, 0, "NumPages"},
	} {
		for name, exp := range exps {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				g := testGeometry()
				g.Params.NumBlocks, g.MeasureOps, g.DBFrac = tc.blocks, tc.ops, tc.dbfrac
				var ge *GeometryError
				if err := exp(g); !errors.As(err, &ge) || ge.Field != tc.field {
					t.Fatalf("err = %v, want a *GeometryError on %s", err, tc.field)
				}
			})
		}
	}
}

// TestSuiteRejectsBadSettings holds the refusals pdlbench makes before it
// runs anything that are not the geometry's: an unknown experiment id,
// N_updates_till_write under 1 and a TPC-C scale with no warehouse.
func TestSuiteRejectsBadSettings(t *testing.T) {
	if ids, err := ExperimentIDs("all"); err != nil || len(ids) != 7 {
		t.Errorf("ExperimentIDs(all) = %v, %v; want the seven ids", ids, err)
	}
	for _, exp := range []string{"0", "8", ""} {
		if _, err := ExperimentIDs(exp); err == nil {
			t.Errorf("ExperimentIDs(%q) accepted it", exp)
		}
	}
	ok := Suite{Geometry: testGeometry(), NUpdates: 1, TPCC: DefaultExp7Config()}
	if err := ok.Check(); err != nil {
		t.Fatalf("Check of a runnable suite: %v", err)
	}
	if err := ok.Run(io.Discard, "all"); err == nil {
		t.Error(`Run("all") accepted an id that names no experiment`)
	}
	noN, noWarehouse := ok, ok
	noN.NUpdates = 0
	noWarehouse.TPCC.Scale.Warehouses = 0
	for name, s := range map[string]Suite{"n=0": noN, "warehouses=0": noWarehouse} {
		if err := s.Check(); err == nil {
			t.Errorf("%s: Check accepted it", name)
		}
	}
}

func TestReportWriters(t *testing.T) {
	rows := []Row{
		{Method: "OPU", X: 1, Read: 110, Write: 2020, GC: 10, Overall: 2130, ErasesPerOp: 0.02},
		{Method: "PDL(256B)", X: 1, Read: 160, Write: 400, GC: 5, Overall: 560, ErasesPerOp: 0.0049},
	}
	var b bytes.Buffer
	WriteExp1Table(&b, rows)
	if !strings.Contains(b.String(), "PDL(256B)") {
		t.Error("exp1 table missing method")
	}
	b.Reset()
	WriteSeriesTable(&b, rows, "N", 2, func(r Row) float64 { return r.Overall })
	if !strings.Contains(b.String(), "OPU") || !strings.Contains(b.String(), "560.00") {
		t.Errorf("series table missing method or cell:\n%s", b.String())
	}
	// Figure 17's cells are a few erases per thousand operations: at four
	// decimals 0.0049 is not printed as zeros.
	b.Reset()
	WriteSeriesTable(&b, rows, "N", 4, func(r Row) float64 { return r.ErasesPerOp })
	if out := b.String(); !strings.Contains(out, " 0.0049\n") || strings.Contains(out, " 0.00\n") {
		t.Errorf("erase cell 0.0049 printed as:\n%s", out)
	}
}

// TestSuiteRunsEachRunOnce counts the devices a Suite builds: Figure 16
// is recomputed from Experiment 1's run and Figure 17 read from Experiment
// 2's, so one spec costs one device for ids 1 and 5, and eight (one per N)
// for ids 2 and 6.
func TestSuiteRunsEachRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	for _, tc := range []struct {
		ids     []string
		devices int
	}{
		{[]string{"1", "5"}, 1},
		{[]string{"2", "6"}, 8},
	} {
		var devices int
		g := testGeometry()
		g.MeasureOps = 500
		g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
			devices++
			return flash.NewChip(p), nil
		}
		s := Suite{Geometry: g, Specs: []MethodSpec{{Kind: KindOPU}}, NUpdates: 1, TPCC: DefaultExp7Config()}
		for _, id := range tc.ids {
			if err := s.Run(io.Discard, id); err != nil {
				t.Fatalf("experiment %s: %v", id, err)
			}
		}
		if devices != tc.devices {
			t.Errorf("experiments %v built %d devices, want %d", tc.ids, devices, tc.devices)
		}
	}
}
