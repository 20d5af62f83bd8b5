package workload

import (
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/ipl"
	"pdl/internal/ipu"
	"pdl/internal/opu"
)

func testConfig(numPages int) Config {
	return Config{
		NumPages:          numPages,
		PctChanged:        2,
		NUpdatesTillWrite: 1,
		PctUpdateOps:      50,
		Seed:              42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(10)
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{NumPages: 0, PctChanged: 2, NUpdatesTillWrite: 1},
		{NumPages: 10, PctChanged: 0, NUpdatesTillWrite: 1},
		{NumPages: 10, PctChanged: 101, NUpdatesTillWrite: 1},
		{NumPages: 10, PctChanged: 2, NUpdatesTillWrite: 0},
		{NumPages: 10, PctChanged: 2, NUpdatesTillWrite: 1, PctUpdateOps: 101},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func methods(t *testing.T, numBlocks, numPages int) []ftl.Method {
	t.Helper()
	var out []ftl.Method
	{
		chip := flash.NewChip(ftltest.SmallParams(numBlocks))
		m, err := core.New(chip, numPages, core.Options{MaxDifferentialSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	{
		chip := flash.NewChip(ftltest.SmallParams(numBlocks))
		m, err := opu.New(chip, numPages, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	{
		chip := flash.NewChip(ftltest.SmallParams(numBlocks))
		m, err := ipu.New(chip, numPages)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	{
		chip := flash.NewChip(ftltest.SmallParams(numBlocks))
		m, err := ipl.New(chip, numPages, ipl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func TestRunUpdateOpsAllMethods(t *testing.T) {
	for _, m := range methods(t, 16, 48) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			d, err := NewDriver(m, testConfig(48))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.RunUpdateOps(10); err == nil {
				t.Fatal("RunUpdateOps before Load succeeded")
			}
			if err := d.Load(); err != nil {
				t.Fatal(err)
			}
			tot, err := d.RunUpdateOps(200)
			if err != nil {
				t.Fatal(err)
			}
			if tot.Ops < 200 {
				t.Errorf("Ops = %d, want >= 200", tot.Ops)
			}
			if tot.UpdateOps != tot.Ops {
				t.Errorf("UpdateOps = %d != Ops = %d for pure update run", tot.UpdateOps, tot.Ops)
			}
			if tot.ReadPhase.Reads == 0 {
				t.Error("no reads in read phase")
			}
			if tot.MicrosPerOp() <= 0 {
				t.Error("MicrosPerOp = 0")
			}
		})
	}
}

func TestRunMixedOps(t *testing.T) {
	for _, m := range methods(t, 16, 48) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			cfg := testConfig(48)
			cfg.PctUpdateOps = 30
			d, err := NewDriver(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(); err != nil {
				t.Fatal(err)
			}
			tot, err := d.RunMixedOps(400)
			if err != nil {
				t.Fatal(err)
			}
			frac := float64(tot.UpdateOps) / float64(tot.Ops) * 100
			if frac < 15 || frac > 45 {
				t.Errorf("update fraction = %.1f%%, want ~30%%", frac)
			}
		})
	}
}

func TestReadOnlyMixCostsOneReadPerOpForOPU(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(16))
	m, err := opu.New(chip, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(32)
	cfg.PctUpdateOps = 0
	d, err := NewDriver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	tot, err := d.RunMixedOps(100)
	if err != nil {
		t.Fatal(err)
	}
	if tot.UpdateOps != 0 {
		t.Errorf("UpdateOps = %d in read-only mix", tot.UpdateOps)
	}
	if tot.ReadPhase.Reads != tot.Ops {
		t.Errorf("reads = %d for %d read-only ops", tot.ReadPhase.Reads, tot.Ops)
	}
	if tot.WritePhase.Ops() != 0 {
		t.Errorf("write phase ops = %d in read-only mix", tot.WritePhase.Ops())
	}
}

func TestNUpdatesTillWriteGroupsCycles(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(16))
	m, err := opu.New(chip, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(32)
	cfg.NUpdatesTillWrite = 5
	d, err := NewDriver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	tot, err := d.RunUpdateOps(4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 update operations, each a cycle of 5 in-memory changes: OPU reads
	// 4 pages and writes 4 pages (2 write ops each, incl. obsolete mark);
	// the per-operation cost is flat in N (Figure 13).
	if tot.Ops != 4 {
		t.Errorf("Ops = %d, want 4", tot.Ops)
	}
	if tot.ReadPhase.Reads != 4 {
		t.Errorf("reads = %d, want 4 cycles", tot.ReadPhase.Reads)
	}
	if tot.WritePhase.Writes != 8 {
		t.Errorf("writes = %d, want 8 (4 cycles x 2)", tot.WritePhase.Writes)
	}
}

func TestConditionReachesSteadyState(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(10))
	numPages := 10 * chip.Params().PagesPerBlock / 2
	m, err := core.New(chip, numPages, core.Options{MaxDifferentialSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(m, testConfig(numPages))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	ops, err := d.Condition(1.0, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if ops == 0 {
		t.Error("conditioning did nothing")
	}
	if d.meanGCRounds() < 1.0 {
		t.Errorf("meanGCRounds = %.2f after conditioning", d.meanGCRounds())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() Totals {
		chip := flash.NewChip(ftltest.SmallParams(16))
		m, err := opu.New(chip, 32, 2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDriver(m, testConfig(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(); err != nil {
			t.Fatal(err)
		}
		tot, err := d.RunUpdateOps(100)
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}
