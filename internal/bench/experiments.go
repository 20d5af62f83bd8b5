package bench

import (
	"fmt"

	"pdl/internal/flash"
	"pdl/internal/tpcc"
	"pdl/internal/workload"
)

// Geometry sizes an experiment.
type Geometry struct {
	// Params is the flash chip configuration (Table 1, possibly with a
	// scaled-down NumBlocks).
	Params flash.Params
	// DBFrac is the database size as a fraction of flash data capacity.
	// The paper stores a 1-Gbyte database on a 2-Gbyte chip; 0.4 leaves
	// the same order of over-provisioning while accommodating IPL's
	// 50%-log configuration.
	DBFrac float64
	// GCRounds is the steady-state criterion: mean garbage collections
	// per block before measurement begins (the paper uses 10).
	GCRounds float64
	// ConditionMaxOps bounds conditioning effort.
	ConditionMaxOps int
	// MeasureOps is the number of operations measured per point.
	MeasureOps int
	// Seed drives all randomness.
	Seed int64
	// NewDevice builds the flash backend for one method run; label is a
	// unique human-readable tag for the run (backends that allocate files
	// can derive names from it). Nil means a fresh in-memory emulated
	// chip with the run's params.
	NewDevice func(p flash.Params, label string) (flash.Device, error)
}

// GeometryError reports a Geometry no experiment can run: a field that
// must be at least one is not.
type GeometryError struct {
	Field string // "NumBlocks", "MeasureOps" or "NumPages" (what DBFrac leaves)
	Value int
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("bench: geometry %s is %d, must be at least 1", e.Field, e.Value)
}

// Check returns a *GeometryError if g has no flash block, measures no
// operation or has a DBFrac that leaves no logical page; every experiment
// runs it before it builds a device.
func (g Geometry) Check() error {
	switch {
	case g.Params.NumBlocks < 1:
		return &GeometryError{Field: "NumBlocks", Value: g.Params.NumBlocks}
	case g.MeasureOps < 1:
		return &GeometryError{Field: "MeasureOps", Value: g.MeasureOps}
	case g.NumPages() < 1:
		return &GeometryError{Field: "NumPages", Value: g.NumPages()}
	}
	return nil
}

// device builds one run's backend through the NewDevice hook (or the
// emulator default).
func (g Geometry) device(p flash.Params, label string) (flash.Device, error) {
	if g.NewDevice == nil {
		return flash.NewChip(p), nil
	}
	return g.NewDevice(p, label)
}

// DefaultGeometry returns a laptop-scale default: a 64-Mbyte chip with the
// datasheet timings.
func DefaultGeometry() Geometry {
	return Geometry{
		Params:          flash.ScaledParams(512),
		DBFrac:          0.4,
		GCRounds:        3,
		ConditionMaxOps: 3_000_000,
		MeasureOps:      20_000,
		Seed:            1,
	}
}

// NumPages returns the database size in logical pages (DBFrac of the
// flash capacity), the sizing rule every experiment shares.
func (g Geometry) NumPages() int {
	return int(float64(g.Params.NumPages()) * g.DBFrac)
}

// prepare builds, loads, and conditions one method instance, leaving the
// device and GC stats zeroed, ready for measurement. The caller owns the
// device (releaseDevice); a prepare that fails closes it itself.
func (g Geometry) prepare(spec MethodSpec, cfg workload.Config) (d *workload.Driver, err error) {
	dev, err := g.device(g.Params, spec.Name(g.Params))
	if err != nil {
		return nil, fmt.Errorf("bench: device for %s: %w", spec.Name(g.Params), err)
	}
	defer func() {
		if err != nil {
			dev.Close()
		}
	}()
	m, err := spec.Build(dev, cfg.NumPages)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", spec.Name(g.Params), err)
	}
	d, err = workload.NewDriver(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Load(); err != nil {
		return nil, err
	}
	if _, err := d.Condition(g.GCRounds, g.ConditionMaxOps); err != nil {
		return nil, fmt.Errorf("bench: conditioning %s: %w", spec.Name(g.Params), err)
	}
	dev.ResetStats()
	ResetGCStatsOf(m)
	return d, nil
}

// releaseDevice closes the device behind a prepared driver once its
// measurement is done: file-backed backends hold an open file descriptor
// (and an unsynced file under SyncOnClose) per run; Close is a no-op for
// the emulator.
func releaseDevice(d *workload.Driver) {
	if d != nil {
		d.Method().Device().Close()
	}
}

// Row is one measured point of an experiment.
type Row struct {
	Method string
	// X is the swept parameter value (meaning depends on the experiment).
	X float64
	// Read, Write, GC, Overall are simulated microseconds per operation
	// (per transaction in Experiment 7); GC is the slice of Write spent in
	// garbage collection (Figure 12(b)'s slashed area).
	Read, Write, GC, Overall float64
	// ErasesPerOp supports the longevity experiment.
	ErasesPerOp float64
	// Raw carries the operation counts for recomputation (Experiment 5).
	Raw workload.Totals
}

// sweep is the one loop of Experiments 1-4: for each spec and each x it
// prepares a driver on the workload cfg(x) describes (at the geometry's
// database size and seed), measures g.MeasureOps operations of run
// (RunUpdateOps or RunMixedOps), closes the device and keeps the point as
// a Row.
func (g Geometry) sweep(specs []MethodSpec, xs []float64, cfg func(x float64) workload.Config,
	run func(*workload.Driver, int) (workload.Totals, error)) ([]Row, error) {
	if err := g.Check(); err != nil {
		return nil, err
	}
	var rows []Row
	for _, spec := range specs {
		for _, x := range xs {
			c := cfg(x)
			c.NumPages, c.Seed = g.NumPages(), g.Seed
			d, err := g.prepare(spec, c)
			if err != nil {
				return nil, err
			}
			t, err := run(d, g.MeasureOps)
			gc := GCStatsOf(d.Method())
			releaseDevice(d)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at x=%g: %w", spec.Name(g.Params), x, err)
			}
			rows = append(rows, Row{
				Method:      d.Method().Name(),
				X:           x,
				Read:        float64(t.ReadPhase.TimeMicros) / float64(t.Ops),
				Write:       float64(t.WritePhase.TimeMicros) / float64(t.Ops),
				GC:          float64(gc.TimeMicros) / float64(t.Ops),
				Overall:     t.MicrosPerOp(),
				ErasesPerOp: t.ErasesPerOp(),
				Raw:         t,
			})
		}
	}
	return rows, nil
}

// Exp1 reproduces Figure 12: read, write, and overall time per update
// operation for the standard methods (N_updates_till_write = 1,
// %ChangedByOneU_Op = 2).
func Exp1(g Geometry, specs []MethodSpec) ([]Row, error) {
	return g.sweep(specs, []float64{0}, func(float64) workload.Config {
		return workload.Config{PctChanged: 2, NUpdatesTillWrite: 1}
	}, (*workload.Driver).RunUpdateOps)
}

// Exp2 reproduces Figure 13 (and, through ErasesPerOp, Figure 17): overall
// time per update operation as N_updates_till_write varies.
func Exp2(g Geometry, specs []MethodSpec, nValues []float64) ([]Row, error) {
	if len(nValues) == 0 {
		nValues = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return g.sweep(specs, nValues, func(n float64) workload.Config {
		return workload.Config{PctChanged: 2, NUpdatesTillWrite: int(n)}
	}, (*workload.Driver).RunUpdateOps)
}

// Exp3 reproduces Figure 14: overall time per update operation as
// %ChangedByOneU_Op varies, for N_updates_till_write = 1 and 5.
func Exp3(g Geometry, specs []MethodSpec, pcts []float64, nUpdates int) ([]Row, error) {
	if len(pcts) == 0 {
		pcts = []float64{0.1, 0.5, 1, 2, 5, 10, 20, 50, 100}
	}
	return g.sweep(specs, pcts, func(pct float64) workload.Config {
		return workload.Config{PctChanged: pct, NUpdatesTillWrite: nUpdates}
	}, (*workload.Driver).RunUpdateOps)
}

// Exp4 reproduces Figure 15: overall time per operation for mixes of
// read-only and update operations as %UpdateOps varies.
func Exp4(g Geometry, specs []MethodSpec, pcts []float64, nUpdates int) ([]Row, error) {
	if len(pcts) == 0 {
		pcts = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	return g.sweep(specs, pcts, func(pct float64) workload.Config {
		return workload.Config{PctChanged: 2, NUpdatesTillWrite: nUpdates, PctUpdateOps: pct}
	}, (*workload.Driver).RunMixedOps)
}

// Exp5 reproduces one panel of Figure 16 from Experiment 1's rows: overall
// time per update operation as Tread varies, at one Twrite. The access
// pattern of every method is independent of the timing parameters, so
// nothing runs again: each row's operation counts are recomputed under p
// with each Tread and twrite — the same separation the paper's emulator
// methodology allows. A returned row has X = Tread and its recomputed
// Overall; the other times are not recomputed.
func Exp5(p flash.Params, exp1 []Row, treads []int64, twrite int64) []Row {
	if len(treads) == 0 {
		treads = []int64{10, 50, 110, 250, 500, 1000, 1500}
	}
	var rows []Row
	for _, r := range exp1 {
		for _, tr := range treads {
			p.ReadMicros, p.WriteMicros = tr, twrite
			rows = append(rows, Row{
				Method:  r.Method,
				X:       float64(tr),
				Overall: float64(r.Raw.Overall().TimeOf(p)) / float64(r.Raw.Ops),
				Raw:     r.Raw,
			})
		}
	}
	return rows
}

// Exp7Config parameterizes the TPC-C experiment.
type Exp7Config struct {
	Scale      tpcc.Scale
	BufferPcts []float64 // DBMS buffer size as % of database size
	WarmupTxns int
	MeasureTxn int
	Seed       int64
}

// DefaultExp7Config returns a laptop-scale TPC-C configuration.
func DefaultExp7Config() Exp7Config {
	return Exp7Config{
		Scale:      tpcc.DefaultScale(1),
		BufferPcts: []float64{0.1, 0.5, 1, 2, 5, 10},
		WarmupTxns: 1000,
		MeasureTxn: 3000,
		Seed:       1,
	}
}

// Exp7 reproduces Figure 18: TPC-C I/O time per transaction as the DBMS
// buffer size varies. A row has X = the buffer percentage and Overall =
// the simulated microseconds per measured transaction.
func Exp7(g Geometry, specs []MethodSpec, cfg Exp7Config) ([]Row, error) {
	if err := g.Check(); err != nil {
		return nil, err
	}
	pages, err := tpcc.PagesNeeded(cfg.Scale, g.Params.DataSize)
	if err != nil {
		return nil, err
	}
	// Flash sized so the TPC-C database fills DBFrac of it.
	blocks := int(float64(pages)/g.DBFrac)/g.Params.PagesPerBlock + 4
	params := g.Params
	if blocks > params.NumBlocks {
		params.NumBlocks = blocks
	}
	var rows []Row
	for _, spec := range specs {
		for _, pct := range cfg.BufferPcts {
			micros, err := g.exp7Point(params, spec, pct, pages, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: exp7 %s: %w", spec.Name(params), err)
			}
			rows = append(rows, Row{Method: spec.Name(params), X: pct, Overall: micros})
		}
	}
	return rows, nil
}

// exp7Point loads TPC-C over one method, behind a DBMS buffer of pct percent
// of the database's pages, on a device of its own and returns the simulated
// I/O time per measured transaction. The device is closed on every path.
func (g Geometry) exp7Point(params flash.Params, spec MethodSpec, pct float64,
	pages int, cfg Exp7Config) (float64, error) {
	bufPages := int(float64(pages) * pct / 100)
	if bufPages < 4 {
		bufPages = 4
	}
	dev, err := g.device(params, fmt.Sprintf("%s-buf%g", spec.Name(params), pct))
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	m, err := spec.Build(dev, pages)
	if err != nil {
		return 0, err
	}
	db, err := tpcc.Load(m, cfg.Scale, bufPages, cfg.Seed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < cfg.WarmupTxns; i++ {
		if err := db.Run(db.NextTx()); err != nil {
			return 0, fmt.Errorf("warmup: %w", err)
		}
	}
	dev.ResetStats()
	for i := 0; i < cfg.MeasureTxn; i++ {
		if err := db.Run(db.NextTx()); err != nil {
			return 0, fmt.Errorf("measure: %w", err)
		}
	}
	return float64(m.Stats().TimeMicros) / float64(cfg.MeasureTxn), nil
}
