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
	Field string // "NumBlocks" or "MeasureOps"
	Value int
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("bench: geometry %s is %d, must be at least 1", e.Field, e.Value)
}

// Check returns a *GeometryError if g has no flash block or measures no
// operation; every experiment runs it before it builds a device.
func (g Geometry) Check() error {
	switch {
	case g.Params.NumBlocks < 1:
		return &GeometryError{Field: "NumBlocks", Value: g.Params.NumBlocks}
	case g.MeasureOps < 1:
		return &GeometryError{Field: "MeasureOps", Value: g.MeasureOps}
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
	if err := g.Check(); err != nil {
		return nil, err
	}
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
	// Read, Write, GC, Overall are simulated microseconds per operation;
	// GC is the slice of Write spent in garbage collection (Figure 12(b)'s
	// slashed area).
	Read, Write, GC, Overall float64
	// ErasesPerOp supports the longevity experiment.
	ErasesPerOp float64
	// Raw carries the operation counts for recomputation (Experiment 5).
	Raw workload.Totals
}

// measureUpdateOps runs the standard update-operation measurement for one
// prepared driver.
func measureUpdateOps(d *workload.Driver, ops int, x float64) (Row, error) {
	t, err := d.RunUpdateOps(ops)
	if err != nil {
		return Row{}, err
	}
	gc := GCStatsOf(d.Method())
	r := Row{
		Method:      d.Method().Name(),
		X:           x,
		Read:        float64(t.ReadPhase.TimeMicros) / float64(t.Ops),
		Write:       float64(t.WritePhase.TimeMicros) / float64(t.Ops),
		GC:          float64(gc.TimeMicros) / float64(t.Ops),
		Overall:     t.MicrosPerOp(),
		ErasesPerOp: t.ErasesPerOp(),
		Raw:         t,
	}
	return r, nil
}

// Exp1 reproduces Figure 12: read, write, and overall time per update
// operation for the standard methods (N_updates_till_write = 1,
// %ChangedByOneU_Op = 2).
func Exp1(g Geometry, specs []MethodSpec) ([]Row, error) {
	var rows []Row
	for _, spec := range specs {
		cfg := workload.Config{
			NumPages:          g.NumPages(),
			PctChanged:        2,
			NUpdatesTillWrite: 1,
			Seed:              g.Seed,
		}
		d, err := g.prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		row, err := measureUpdateOps(d, g.MeasureOps, 0)
		releaseDevice(d)
		if err != nil {
			return nil, fmt.Errorf("bench: exp1 %s: %w", spec.Name(g.Params), err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Exp2 reproduces Figure 13 (and supplies Figure 17's erase counts):
// overall time per update operation as N_updates_till_write varies.
func Exp2(g Geometry, specs []MethodSpec, nValues []int) ([]Row, error) {
	if len(nValues) == 0 {
		nValues = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	var rows []Row
	for _, spec := range specs {
		for _, n := range nValues {
			cfg := workload.Config{
				NumPages:          g.NumPages(),
				PctChanged:        2,
				NUpdatesTillWrite: n,
				Seed:              g.Seed,
			}
			d, err := g.prepare(spec, cfg)
			if err != nil {
				return nil, err
			}
			row, err := measureUpdateOps(d, g.MeasureOps, float64(n))
			releaseDevice(d)
			if err != nil {
				return nil, fmt.Errorf("bench: exp2 %s N=%d: %w", spec.Name(g.Params), n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Exp3 reproduces Figure 14: overall time per update operation as
// %ChangedByOneU_Op varies, for N_updates_till_write = 1 and 5.
func Exp3(g Geometry, specs []MethodSpec, pcts []float64, nUpdates int) ([]Row, error) {
	if len(pcts) == 0 {
		pcts = []float64{0.1, 0.5, 1, 2, 5, 10, 20, 50, 100}
	}
	var rows []Row
	for _, spec := range specs {
		for _, pct := range pcts {
			cfg := workload.Config{
				NumPages:          g.NumPages(),
				PctChanged:        pct,
				NUpdatesTillWrite: nUpdates,
				Seed:              g.Seed,
			}
			d, err := g.prepare(spec, cfg)
			if err != nil {
				return nil, err
			}
			row, err := measureUpdateOps(d, g.MeasureOps, pct)
			releaseDevice(d)
			if err != nil {
				return nil, fmt.Errorf("bench: exp3 %s pct=%g: %w", spec.Name(g.Params), pct, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Exp4 reproduces Figure 15: overall time per operation for mixes of
// read-only and update operations as %UpdateOps varies.
func Exp4(g Geometry, specs []MethodSpec, pcts []float64, nUpdates int) ([]Row, error) {
	if len(pcts) == 0 {
		pcts = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	var rows []Row
	for _, spec := range specs {
		for _, pct := range pcts {
			cfg := workload.Config{
				NumPages:          g.NumPages(),
				PctChanged:        2,
				NUpdatesTillWrite: nUpdates,
				PctUpdateOps:      pct,
				Seed:              g.Seed,
			}
			d, err := g.prepare(spec, cfg)
			if err != nil {
				return nil, err
			}
			t, err := d.RunMixedOps(g.MeasureOps)
			releaseDevice(d)
			if err != nil {
				return nil, fmt.Errorf("bench: exp4 %s pct=%g: %w", spec.Name(g.Params), pct, err)
			}
			gc := GCStatsOf(d.Method())
			rows = append(rows, Row{
				Method:  d.Method().Name(),
				X:       pct,
				Read:    float64(t.ReadPhase.TimeMicros) / float64(t.Ops),
				Write:   float64(t.WritePhase.TimeMicros) / float64(t.Ops),
				GC:      float64(gc.TimeMicros) / float64(t.Ops),
				Overall: t.MicrosPerOp(),
				Raw:     t,
			})
		}
	}
	return rows, nil
}

// Exp5Point is one point of Figure 16: the overall time recomputed under
// different flash timing parameters.
type Exp5Point struct {
	Method         string
	Tread, Twrite  int64
	OverallPerOp   float64
	BaselineCounts flash.Stats
}

// Exp5 reproduces Figure 16: overall time per update operation as Tread
// and Twrite vary. The access pattern of every method is independent of
// the timing parameters, so each method runs once and the cost is
// recomputed from the operation counts for every (Tread, Twrite) pair —
// the same separation the paper's emulator methodology allows.
func Exp5(g Geometry, specs []MethodSpec, treads []int64, twrites []int64) ([]Exp5Point, error) {
	if len(treads) == 0 {
		treads = []int64{10, 50, 110, 250, 500, 1000, 1500}
	}
	if len(twrites) == 0 {
		twrites = []int64{500, 1000}
	}
	rows, err := Exp1(g, specs)
	if err != nil {
		return nil, err
	}
	var points []Exp5Point
	for _, row := range rows {
		total := row.Raw.Overall()
		for _, tw := range twrites {
			for _, tr := range treads {
				p := g.Params
				p.ReadMicros, p.WriteMicros = tr, tw
				points = append(points, Exp5Point{
					Method:         row.Method,
					Tread:          tr,
					Twrite:         tw,
					OverallPerOp:   float64(total.TimeOf(p)) / float64(row.Raw.Ops),
					BaselineCounts: total,
				})
			}
		}
	}
	return points, nil
}

// Exp6 reproduces Figure 17: erase operations per update operation as
// N_updates_till_write varies (flash longevity).
func Exp6(g Geometry, specs []MethodSpec, nValues []int) ([]Row, error) {
	return Exp2(g, specs, nValues)
}

// Exp7Point is one point of Figure 18.
type Exp7Point struct {
	Method       string
	BufferPct    float64
	MicrosPerTxn float64
	Txns         int64
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
// buffer size varies.
func Exp7(g Geometry, specs []MethodSpec, cfg Exp7Config) ([]Exp7Point, error) {
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
	var points []Exp7Point
	for _, spec := range specs {
		for _, pct := range cfg.BufferPcts {
			micros, err := g.exp7Point(params, spec, pct, pages, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: exp7 %s: %w", spec.Name(params), err)
			}
			points = append(points, Exp7Point{
				Method:       spec.Name(params),
				BufferPct:    pct,
				MicrosPerTxn: micros,
				Txns:         int64(cfg.MeasureTxn),
			})
		}
	}
	return points, nil
}

// exp7Point loads TPC-C over one method, behind a DBMS buffer of pct percent
// of the database's pages, on a device of its own and returns the simulated
// I/O time per measured transaction. The device is closed on every path.
func (g Geometry) exp7Point(params flash.Params, spec MethodSpec, pct float64,
	pages int, cfg Exp7Config) (float64, error) {
	if err := g.Check(); err != nil {
		return 0, err
	}
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
