// Package faultdev wraps any flash.Device with deterministic fault
// injection for integrity testing: bit flips, sector corruption, spare-area
// corruption, and whole-page loss. Faults live in a read overlay — the
// wrapped device's contents are never modified; corruption is applied to
// the bytes a read returns — so an Erase of the underlying block (which
// physically resets every bit) or a re-Program of the page (which gives it
// new content) clears the page's faults, exactly like replacing a decayed
// physical page does.
//
// Faults are injected two ways: directly (Inject, for targeted tests) or
// by arming a seeded campaign (Arm), which decides on every Program —
// deterministically from the seed and the arrival order of programs —
// whether the freshly written page decays and how. The same seed over the
// same (serialized) write sequence injects the same faults, which is what
// makes fault-campaign regressions reproducible.
//
// The wrapper composes over any backend — the emulator, the file-backed
// device, a striped array — because it touches only the Device interface.
package faultdev

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// BitFlip flips a single bit of the data area: the canonical
	// correctable NAND error. The integrity layer must fix it silently.
	BitFlip Kind = iota + 1
	// SectorCorrupt flips two bits of one 256-byte ECC sector — the
	// strongest corruption SEC-DED GUARANTEES to detect. (Three or more
	// flips can alias to a valid single-bit syndrome and miscorrect; that
	// is a limitation of every Hamming SEC-DED code, not of this
	// implementation, so the injector stays inside the detection budget.)
	SectorCorrupt
	// SpareCorrupt XORs spare-area bytes (header or integrity trailer)
	// with 0x33 — a pattern whose every byte puts a 1-1 into an even/odd
	// syndrome pair, so a corrupted ECC byte over clean data can never
	// masquerade as a valid single-bit correction pointer.
	SpareCorrupt
	// PageLoss makes the whole page (data and spare) read as erased 0xFF:
	// total charge loss. The overlay only affects reads — the inner page
	// keeps its content, so the block still programs/erases normally.
	PageLoss
)

// String names the fault kind for reports.
func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bit-flip"
	case SectorCorrupt:
		return "sector-corrupt"
	case SpareCorrupt:
		return "spare-corrupt"
	case PageLoss:
		return "page-loss"
	}
	return "unknown"
}

// Fault is one injected fault on one physical page.
type Fault struct {
	PPN  flash.PPN
	Kind Kind
	// Off is the byte offset of the fault: into the data area for BitFlip
	// and SectorCorrupt (the sector start), into the spare area for
	// SpareCorrupt. Unused for PageLoss.
	Off int
	// Bit is the bit index within the byte for BitFlip.
	Bit uint8
}

// Campaign configures seeded random fault injection, armed on Program:
// each programmed page decays with probability Rate, the kind drawn
// uniformly from Kinds.
type Campaign struct {
	Seed int64
	Rate float64
	// Kinds to draw from; empty means all four.
	Kinds []Kind
}

// Totals is a snapshot of the wrapper's bookkeeping.
type Totals struct {
	Injected map[Kind]int64 // faults registered, by kind
	Applied  int64          // reads that returned at least one faulted area
}

// Device wraps an inner flash.Device with the fault overlay. It implements
// flash.Device.
type Device struct {
	inner flash.Device
	prm   flash.Params

	mu     sync.RWMutex
	faults map[flash.PPN][]Fault
	camp   *Campaign
	rng    *rand.Rand

	injected [5]atomic.Int64 // indexed by Kind
	applied  atomic.Int64
}

var _ flash.Device = (*Device)(nil)

// Wrap builds the fault-injecting wrapper around inner.
func Wrap(inner flash.Device) *Device {
	return &Device{
		inner:  inner,
		prm:    inner.Params(),
		faults: make(map[flash.PPN][]Fault),
	}
}

// Arm installs a seeded campaign: from now on every Program (and every
// page of a ProgramBatch) rolls the campaign dice. Arm(nil) disarms.
func (d *Device) Arm(c *Campaign) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.camp = c
	if c != nil {
		d.rng = rand.New(rand.NewSource(c.Seed))
	} else {
		d.rng = nil
	}
}

// Inject registers a fault directly. Faults accumulate per page until the
// page's block is erased or the page is reprogrammed. Stacking several
// faults on one page can exceed the SEC-DED detection budget (three or
// more combined bit flips in one sector may alias to a miscorrection);
// tests that assert detection should inject at most one fault per page,
// as the campaign does.
func (d *Device) Inject(f Fault) {
	d.mu.Lock()
	d.faults[f.PPN] = append(d.faults[f.PPN], f)
	d.mu.Unlock()
	d.injected[f.Kind].Add(1)
}

// FaultsAt returns the faults registered for ppn.
func (d *Device) FaultsAt(ppn flash.PPN) []Fault {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Fault(nil), d.faults[ppn]...)
}

// Snapshot returns the current counters.
func (d *Device) Snapshot() Totals {
	c := Totals{Injected: make(map[Kind]int64), Applied: d.applied.Load()}
	for k := BitFlip; k <= PageLoss; k++ {
		if n := d.injected[k].Load(); n > 0 {
			c.Injected[k] = n
		}
	}
	return c
}

// decay rolls the campaign dice for a freshly programmed page. Caller
// holds d.mu.
func (d *Device) decayLocked(ppn flash.PPN) {
	if d.camp == nil || d.rng.Float64() >= d.camp.Rate {
		return
	}
	kinds := d.camp.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{BitFlip, SectorCorrupt, SpareCorrupt, PageLoss}
	}
	f := Fault{PPN: ppn, Kind: kinds[d.rng.Intn(len(kinds))]}
	switch f.Kind {
	case BitFlip:
		f.Off = d.rng.Intn(d.prm.DataSize)
		f.Bit = uint8(d.rng.Intn(8))
	case SectorCorrupt:
		sectors := d.prm.DataSize / ecc.SectorSize
		if sectors < 1 {
			sectors = 1
		}
		f.Off = d.rng.Intn(sectors) * ecc.SectorSize
	case SpareCorrupt:
		f.Off = d.rng.Intn(d.prm.SpareSize)
	}
	d.faults[ppn] = append(d.faults[ppn], f)
	d.injected[f.Kind].Add(1)
}

// apply corrupts the read buffers of ppn according to its faults.
func (d *Device) apply(ppn flash.PPN, data, spare []byte) {
	d.mu.RLock()
	fs := d.faults[ppn]
	d.mu.RUnlock()
	if len(fs) == 0 {
		return
	}
	hit := false
	for _, f := range fs {
		switch f.Kind {
		case BitFlip:
			if data != nil && f.Off < len(data) {
				data[f.Off] ^= 1 << (f.Bit & 7)
				hit = true
			}
		case SectorCorrupt:
			if data != nil && f.Off < len(data) {
				end := f.Off + ecc.SectorSize
				if end > len(data) {
					end = len(data)
				}
				// Exactly two distinct bit flips, far apart in the sector.
				data[f.Off] ^= 0x01
				data[end-1] ^= 0x80
				hit = true
			}
		case SpareCorrupt:
			if spare != nil {
				// Three consecutive bytes, enough to break any field of the
				// header or the integrity trailer it lands on. The obsolete
				// flag byte (index 1) is skipped: it is AND-programmed
				// outside the sealed header (like a factory bad-block mark)
				// and a flip there silently drops a live page — a documented
				// limitation of the format, not a detectable fault.
				for i := f.Off; i < f.Off+3 && i < len(spare); i++ {
					if i == 1 {
						continue
					}
					spare[i] ^= 0x33
					hit = true
				}
			}
		case PageLoss:
			for i := range data {
				data[i] = 0xFF
			}
			for i := range spare {
				spare[i] = 0xFF
			}
			hit = data != nil || spare != nil
		}
	}
	if hit {
		d.applied.Add(1)
	}
}

// clear drops the faults of a page that got genuinely new content.
func (d *Device) clear(ppn flash.PPN) {
	d.mu.Lock()
	delete(d.faults, ppn)
	d.mu.Unlock()
}

// Params implements flash.Device.
func (d *Device) Params() flash.Params { return d.prm }

// Read implements flash.Device, applying the page's faults to the result.
func (d *Device) Read(ppn flash.PPN, data, spare []byte) error {
	if err := d.inner.Read(ppn, data, spare); err != nil {
		return err
	}
	d.apply(ppn, data, spare)
	return nil
}

// ReadData implements flash.Device.
func (d *Device) ReadData(ppn flash.PPN, data []byte) error {
	if err := d.inner.ReadData(ppn, data); err != nil {
		return err
	}
	d.apply(ppn, data, nil)
	return nil
}

// ReadSpare implements flash.Device.
func (d *Device) ReadSpare(ppn flash.PPN, spare []byte) error {
	if err := d.inner.ReadSpare(ppn, spare); err != nil {
		return err
	}
	d.apply(ppn, nil, spare)
	return nil
}

// ReadBatch implements flash.Device (flash.ReadEach), so every page of the
// batch goes through Read and its faults.
func (d *Device) ReadBatch(batch []flash.PageRead) error { return flash.ReadEach(d, batch) }

// Program implements flash.Device. A successful program replaces the
// page's content: prior faults are cleared, then the campaign (if armed)
// rolls for fresh decay.
func (d *Device) Program(ppn flash.PPN, data, spare []byte) error {
	if err := d.inner.Program(ppn, data, spare); err != nil {
		return err
	}
	d.mu.Lock()
	delete(d.faults, ppn)
	d.decayLocked(ppn)
	d.mu.Unlock()
	return nil
}

// ProgramBatch implements flash.Device. Only the programmed prefix decays:
// the inner device guarantees a failure leaves a prefix, but the wrapper
// cannot see its length, so on error no faults are armed at all (the
// campaign remains deterministic over successful programs only).
func (d *Device) ProgramBatch(batch []flash.PageProgram) error {
	if err := d.inner.ProgramBatch(batch); err != nil {
		return err
	}
	d.mu.Lock()
	for _, pg := range batch {
		delete(d.faults, pg.PPN)
		d.decayLocked(pg.PPN)
	}
	d.mu.Unlock()
	return nil
}

// ProgramPartial implements flash.Device; partial programs append to a
// page mid-build, so faults are neither cleared nor armed.
func (d *Device) ProgramPartial(ppn flash.PPN, off int, chunk []byte) error {
	return d.inner.ProgramPartial(ppn, off, chunk)
}

// ProgramSpare implements flash.Device; the AND-program (obsolete marks)
// does not give the page new content, so faults persist across it.
func (d *Device) ProgramSpare(ppn flash.PPN, spare []byte) error {
	return d.inner.ProgramSpare(ppn, spare)
}

// Erase implements flash.Device, clearing the faults of every page in the
// block — physical erasure resets the cells the faults lived in.
func (d *Device) Erase(blk int) error {
	if err := d.inner.Erase(blk); err != nil {
		return err
	}
	lo := flash.PPN(blk * d.prm.PagesPerBlock)
	d.mu.Lock()
	for i := 0; i < d.prm.PagesPerBlock; i++ {
		delete(d.faults, lo+flash.PPN(i))
	}
	d.mu.Unlock()
	return nil
}

// MarkBad implements flash.Device.
func (d *Device) MarkBad(blk int) error { return d.inner.MarkBad(blk) }

// IsBad implements flash.Device.
func (d *Device) IsBad(blk int) bool { return d.inner.IsBad(blk) }

// EraseCount implements flash.Device.
func (d *Device) EraseCount(blk int) int { return d.inner.EraseCount(blk) }

// Stats implements flash.Device.
func (d *Device) Stats() flash.Stats { return d.inner.Stats() }

// ResetStats implements flash.Device.
func (d *Device) ResetStats() { d.inner.ResetStats() }

// Wear implements flash.Device.
func (d *Device) Wear() flash.WearSummary { return d.inner.Wear() }

// Sync implements flash.Device.
func (d *Device) Sync() error { return d.inner.Sync() }

// Close implements flash.Device.
func (d *Device) Close() error { return d.inner.Close() }
