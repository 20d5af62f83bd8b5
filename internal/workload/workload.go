// Package workload generates the synthetic workloads of the paper's
// evaluation (section 5.1) and drives page-update methods through them.
//
// The unit of work is the update operation: (1) read the addressed page,
// (2) change the data in the page, (3) write the updated page. The paper
// designed the experiments this way "to exclude the buffering effect in
// the DBMS", so read, write, and overall performance are all visible from
// update operations alone. Two knobs shape the workload:
//
//   - %ChangedByOneU_Op: the percentage of a page changed by one update;
//   - N_updates_till_write: how many update operations hit a page in
//     memory between recreating it from flash and reflecting it back.
//
// Mixed workloads add read-only operations controlled by %UpdateOps.
package workload

import (
	"fmt"
	"math/rand"

	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ipl"
)

// Config parameterizes a workload.
type Config struct {
	// NumPages is the database size in logical pages.
	NumPages int
	// PctChanged is %ChangedByOneU_Op: the percentage (0..100] of a page
	// changed by a single update operation. The paper's default is 2.
	PctChanged float64
	// NUpdatesTillWrite is N_updates_till_write: update operations applied
	// in memory per reflection cycle. The paper's default is 1.
	NUpdatesTillWrite int
	// PctUpdateOps is %UpdateOps for mixed workloads: the percentage of
	// operations that are update operations (the rest are read-only).
	PctUpdateOps float64
	// Seed makes runs reproducible.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumPages <= 0 {
		return fmt.Errorf("workload: NumPages must be positive, got %d", c.NumPages)
	}
	if c.PctChanged <= 0 || c.PctChanged > 100 {
		return fmt.Errorf("workload: PctChanged must be in (0,100], got %g", c.PctChanged)
	}
	if c.NUpdatesTillWrite < 1 {
		return fmt.Errorf("workload: NUpdatesTillWrite must be >= 1, got %d", c.NUpdatesTillWrite)
	}
	if c.PctUpdateOps < 0 || c.PctUpdateOps > 100 {
		return fmt.Errorf("workload: PctUpdateOps must be in [0,100], got %g", c.PctUpdateOps)
	}
	return nil
}

// Totals reports the flash cost of a driven workload, split into the
// reading step and the writing step of the update operations, exactly the
// decomposition of Figure 12. Read operations that a method performs
// inside its write path (PDL reading the base page to compute the
// differential, garbage-collection reads) land in WritePhase, as in the
// paper ("each method includes a certain amount of read cost, which is
// incurred by garbage collection and amortized into the write cost").
//
// The unit of account is the paper's update operation: one full
// read-change-write cycle. When N_updates_till_write > 1, the N in-memory
// changes belong to a single operation — this is what makes OPU's cost
// flat in N (Figure 13) while IPL's grows with the accumulated update
// logs.
type Totals struct {
	// Ops is the number of operations executed (update + read-only).
	Ops int64
	// UpdateOps is the number of update operations within Ops.
	UpdateOps int64
	// ReadPhase is the cost of reading steps (including read-only ops).
	ReadPhase flash.Stats
	// WritePhase is the cost of writing steps.
	WritePhase flash.Stats
}

// Overall returns the combined cost.
func (t Totals) Overall() flash.Stats { return t.ReadPhase.Add(t.WritePhase) }

// MicrosPerOp returns the overall simulated I/O time per operation.
func (t Totals) MicrosPerOp() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Overall().TimeMicros) / float64(t.Ops)
}

// ErasesPerOp returns erase operations per operation (Experiment 6).
func (t Totals) ErasesPerOp() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Overall().Erases) / float64(t.Ops)
}

// Driver executes workloads against one method instance.
type Driver struct {
	method ftl.Method
	logger *ipl.Store // non-nil when the method accepts update logs
	cfg    Config
	rng    *rand.Rand
	page   []byte
	loaded bool
}

// NewDriver builds a driver for method under cfg.
func NewDriver(method ftl.Method, cfg Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{
		method: method,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		page:   make([]byte, method.PageSize()),
	}
	if s, ok := method.(*ipl.Store); ok {
		// IPL is tightly coupled: the driver plays the modified storage
		// manager and hands it individual update logs.
		d.logger = s
	}
	return d, nil
}

// Method returns the driven method.
func (d *Driver) Method() ftl.Method { return d.method }

// Load writes the initial database: every page gets random content. Over
// a batch-capable method the pages are reflected in WriteBatch groups —
// the contents and the resulting flash layout are identical to the serial
// load (same rng sequence, same append-order programs), but a
// write-through backend pays two fsyncs per group instead of two per
// page, which is what makes file-backed experiment setup tolerable.
func (d *Driver) Load() error {
	if bw, ok := d.method.(ftl.BatchWriter); ok {
		// One arena of group page buffers, reused per chunk: WriteBatch
		// only needs the data alive for the duration of the call.
		const group = 128
		arena := make([]byte, group*len(d.page))
		batch := make([]ftl.PageWrite, 0, group)
		for pid := 0; pid < d.cfg.NumPages; pid++ {
			data := arena[len(batch)*len(d.page):][:len(d.page)]
			d.rng.Read(data)
			batch = append(batch, ftl.PageWrite{PID: uint32(pid), Data: data})
			if len(batch) == group || pid == d.cfg.NumPages-1 {
				if err := bw.WriteBatch(batch); err != nil {
					return fmt.Errorf("workload: loading pids %d..%d: %w",
						batch[0].PID, pid, err)
				}
				batch = batch[:0]
			}
		}
	} else {
		for pid := 0; pid < d.cfg.NumPages; pid++ {
			d.rng.Read(d.page)
			if err := d.method.WritePage(uint32(pid), d.page); err != nil {
				return fmt.Errorf("workload: loading pid %d: %w", pid, err)
			}
		}
	}
	if err := d.method.Flush(); err != nil {
		return err
	}
	d.loaded = true
	return nil
}

// pickPage selects the next page to address, uniformly at random as in
// the paper.
func (d *Driver) pickPage() uint32 {
	return uint32(d.rng.Intn(d.cfg.NumPages))
}

// mutate applies one update operation's change to the driver's in-memory
// page, returning the changed range for methods that consume update logs:
// one contiguous run of %ChangedByOneU_Op of the page at a uniformly random
// offset ("the portion of data to be changed is randomly selected").
func (d *Driver) mutate() (off int, length int) {
	page := d.page
	length = int(float64(len(page)) * d.cfg.PctChanged / 100.0)
	if length < 1 {
		length = 1
	}
	if length > len(page) {
		length = len(page)
	}
	off = 0
	if length < len(page) {
		off = d.rng.Intn(len(page) - length + 1)
	}
	d.rng.Read(page[off : off+length])
	return off, length
}

// updateCycle performs one reflection cycle: read the page, apply
// NUpdatesTillWrite update operations, write the page back. It returns the
// cost split between the reading and writing steps. Over IPL the driver
// plays the modified storage manager: it hands the store each update log
// and evicts the page where the other methods write it.
func (d *Driver) updateCycle() (readCost, writeCost flash.Stats, err error) {
	pid := d.pickPage()

	before := d.method.Stats()
	if err := d.method.ReadPage(pid, d.page); err != nil {
		return flash.Stats{}, flash.Stats{}, err
	}
	readCost = d.method.Stats().Sub(before)

	before = d.method.Stats()
	for u := 0; u < d.cfg.NUpdatesTillWrite; u++ {
		off, length := d.mutate()
		if d.logger != nil {
			if err := d.logger.LogUpdate(pid, off, d.page[off:off+length]); err != nil {
				return flash.Stats{}, flash.Stats{}, err
			}
		}
	}
	if d.logger != nil {
		err = d.logger.Evict(pid)
	} else {
		err = d.method.WritePage(pid, d.page)
	}
	if err != nil {
		return flash.Stats{}, flash.Stats{}, err
	}
	writeCost = d.method.Stats().Sub(before)
	return readCost, writeCost, nil
}

// RunUpdateOps executes numOps update operations (in reflection cycles of
// NUpdatesTillWrite) and returns the accumulated cost split.
func (d *Driver) RunUpdateOps(numOps int) (Totals, error) {
	if !d.loaded {
		return Totals{}, fmt.Errorf("workload: database not loaded")
	}
	var t Totals
	for t.Ops < int64(numOps) {
		r, w, err := d.updateCycle()
		if err != nil {
			return t, err
		}
		t.ReadPhase = t.ReadPhase.Add(r)
		t.WritePhase = t.WritePhase.Add(w)
		t.Ops++
		t.UpdateOps++
	}
	return t, nil
}

// RunMixedOps executes numOps operations, of which ~PctUpdateOps% are
// update operations (full reflection cycles) and the rest are read-only
// operations on the same page distribution (Experiment 4).
func (d *Driver) RunMixedOps(numOps int) (Totals, error) {
	if !d.loaded {
		return Totals{}, fmt.Errorf("workload: database not loaded")
	}
	var t Totals
	for t.Ops < int64(numOps) {
		if d.rng.Float64()*100 < d.cfg.PctUpdateOps {
			r, w, err := d.updateCycle()
			if err != nil {
				return t, err
			}
			t.ReadPhase = t.ReadPhase.Add(r)
			t.WritePhase = t.WritePhase.Add(w)
			t.Ops++
			t.UpdateOps++
			continue
		}
		before := d.method.Stats()
		if err := d.method.ReadPage(d.pickPage(), d.page); err != nil {
			return t, err
		}
		t.ReadPhase = t.ReadPhase.Add(d.method.Stats().Sub(before))
		t.Ops++
	}
	return t, nil
}

// Condition runs update operations until garbage collection has cycled
// every block the requested number of times on average, the paper's
// steady-state criterion ("so that garbage collection is invoked for each
// block at least ten times on the average after loading the database").
// maxOps bounds the conditioning effort.
func (d *Driver) Condition(meanGCRounds float64, maxOps int) (int64, error) {
	if !d.loaded {
		return 0, fmt.Errorf("workload: database not loaded")
	}
	var done int64
	const batch = 512
	for done < int64(maxOps) {
		if d.meanGCRounds() >= meanGCRounds {
			break
		}
		if _, err := d.RunUpdateOps(batch); err != nil {
			return done, err
		}
		done += batch
	}
	return done, nil
}

// meanGCRounds estimates how many times the average block has been
// reclaimed.
func (d *Driver) meanGCRounds() float64 {
	numBlocks := float64(d.method.Device().Params().NumBlocks)
	switch m := d.method.(type) {
	case *ipl.Store:
		return float64(m.Merges()) / numBlocks
	case interface{ Allocator() *ftl.Allocator }:
		return m.Allocator().MeanVictimRounds()
	default:
		// Fall back to erase counts: one erase reclaims one block.
		return float64(d.method.Stats().Erases) / numBlocks
	}
}
