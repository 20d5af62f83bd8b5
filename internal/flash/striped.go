package flash

import (
	"errors"
	"fmt"
	"sync"
)

// ErrChannelMismatch reports sub-devices whose geometries differ; a
// striped device requires identical channels so global block arithmetic
// is pure modular routing.
var ErrChannelMismatch = errors.New("flash: striped sub-devices have mismatched parameters")

// Channeled is the interface a multi-channel device exposes to layers
// that want to exploit channel parallelism (per-channel allocators,
// channel-parallel garbage collection, channel-split batches). A plain
// single-channel device simply does not implement it.
type Channeled interface {
	// Channels returns the number of independent channels.
	Channels() int
	// ChannelOfBlock returns the channel serving global block blk.
	ChannelOfBlock(blk int) int
}

// Striped composes N identical sub-devices ("channels") into one
// flash.Device with block-granular round-robin striping: global block g
// lives on channel g%N as that channel's local block g/N. Adjacent
// blocks land on different channels, so an allocator filling blocks in
// sequence naturally spreads load — and a per-channel allocator can pin
// streams to channels via ChannelOfBlock.
//
// Concurrency: each sub-device carries its own internal serialization,
// so mutations on DIFFERENT channels proceed in parallel — that is the
// point of striping — while mutations on one channel serialize exactly
// like a plain device. Reads remain safe against any concurrent
// mutation, per the sub-device contract. ProgramBatch validates the
// whole batch up front against the striped geometry (addresses, buffer
// sizes, bad blocks, duplicate PPNs — a validation failure programs
// nothing anywhere), then issues one sub-batch per involved channel
// concurrently. AND-legality is validated by each channel against its
// own sub-batch, so an AND conflict programs nothing on its channel but
// cannot retract other channels' completed legs. Likewise a mid-batch
// device failure leaves a *union of per-channel prefixes* rather than
// one global prefix — the same caveat the file-backed device documents
// for physical power loss: every surviving page is individually intact,
// so per-page time-stamp arbitration during recovery remains sound.
// Callers needing a strict global prefix must program serially.
type Striped struct {
	subs   []Device
	params Params // aggregated geometry: NumBlocks summed over channels
	sub    Params // per-channel geometry
}

var (
	_ Device    = (*Striped)(nil)
	_ Channeled = (*Striped)(nil)
)

// NewStriped builds a striped device over the given sub-devices, which
// must share identical Params. One sub-device is the degenerate single
// channel (pure pass-through routing).
func NewStriped(subs ...Device) (*Striped, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: no sub-devices", ErrChannelMismatch)
	}
	sp := subs[0].Params()
	for i, d := range subs[1:] {
		if d.Params() != sp {
			return nil, fmt.Errorf("%w: channel %d has %v, channel 0 has %v",
				ErrChannelMismatch, i+1, d.Params(), sp)
		}
	}
	agg := sp
	agg.NumBlocks = sp.NumBlocks * len(subs)
	return &Striped{subs: subs, params: agg, sub: sp}, nil
}

// Channels returns the number of channels (sub-devices).
func (s *Striped) Channels() int { return len(s.subs) }

// ChannelOfBlock returns the channel serving global block blk.
func (s *Striped) ChannelOfBlock(blk int) int { return blk % len(s.subs) }

// Sub returns channel ch's sub-device (tests reach through this to
// drive a specific channel's power model or inspect its wear).
func (s *Striped) Sub(ch int) Device { return s.subs[ch] }

// Params returns the aggregated geometry: per-channel geometry with
// NumBlocks summed over channels.
func (s *Striped) Params() Params { return s.params }

// route converts a global PPN to (channel, local PPN). Global addresses
// out of range map to out-of-range local addresses (g/N >= subBlocks
// whenever g >= N*subBlocks), so sub-device validation covers them; only
// negative PPNs need catching here to keep the modulo well-defined.
func (s *Striped) route(ppn PPN) (int, PPN, error) {
	if ppn < 0 {
		return 0, 0, fmt.Errorf("%w: ppn %d", ErrOutOfRange, ppn)
	}
	g := int(ppn) / s.sub.PagesPerBlock
	pg := int(ppn) % s.sub.PagesPerBlock
	n := len(s.subs)
	return g % n, s.sub.PPNOf(g/n, pg), nil
}

// Read implements Device.
func (s *Striped) Read(ppn PPN, data, spare []byte) error {
	ch, lp, err := s.route(ppn)
	if err != nil {
		return err
	}
	return s.subs[ch].Read(lp, data, spare)
}

// ReadData implements Device.
func (s *Striped) ReadData(ppn PPN, data []byte) error { return s.Read(ppn, data, nil) }

// ReadSpare implements Device.
func (s *Striped) ReadSpare(ppn PPN, spare []byte) error { return s.Read(ppn, nil, spare) }

// Program implements Device.
func (s *Striped) Program(ppn PPN, data, spare []byte) error {
	ch, lp, err := s.route(ppn)
	if err != nil {
		return err
	}
	return s.subs[ch].Program(lp, data, spare)
}

// ProgramPartial implements Device.
func (s *Striped) ProgramPartial(ppn PPN, off int, chunk []byte) error {
	ch, lp, err := s.route(ppn)
	if err != nil {
		return err
	}
	return s.subs[ch].ProgramPartial(lp, off, chunk)
}

// ProgramSpare implements Device.
func (s *Striped) ProgramSpare(ppn PPN, spare []byte) error {
	ch, lp, err := s.route(ppn)
	if err != nil {
		return err
	}
	return s.subs[ch].ProgramSpare(lp, spare)
}

// Erase implements Device.
func (s *Striped) Erase(blk int) error {
	if blk < 0 || blk >= s.params.NumBlocks {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, blk)
	}
	return s.subs[blk%len(s.subs)].Erase(blk / len(s.subs))
}

// MarkBad implements Device.
func (s *Striped) MarkBad(blk int) error {
	if blk < 0 || blk >= s.params.NumBlocks {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, blk)
	}
	return s.subs[blk%len(s.subs)].MarkBad(blk / len(s.subs))
}

// IsBad implements Device.
func (s *Striped) IsBad(blk int) bool {
	if blk < 0 || blk >= s.params.NumBlocks {
		return false
	}
	return s.subs[blk%len(s.subs)].IsBad(blk / len(s.subs))
}

// EraseCount implements Device.
func (s *Striped) EraseCount(blk int) int {
	if blk < 0 || blk >= s.params.NumBlocks {
		return 0
	}
	return s.subs[blk%len(s.subs)].EraseCount(blk / len(s.subs))
}

// checkStriped validates one program-batch element against the striped
// geometry — address, bad block, buffer sizes — mirroring the per-device
// batch validation so a cross-channel batch still programs nothing on
// validation failure. AND-legality requires reading flash contents and
// stays with the owning channel.
func (s *Striped) checkStriped(ppn PPN, data, spare []byte) (int, PPN, error) {
	if int(ppn) >= s.params.NumPages() {
		return 0, 0, fmt.Errorf("%w: ppn %d", ErrOutOfRange, ppn)
	}
	ch, lp, err := s.route(ppn)
	if err != nil {
		return 0, 0, err
	}
	if blk := s.params.BlockOf(ppn); s.IsBad(blk) {
		return 0, 0, fmt.Errorf("%w: block %d", ErrBadBlock, blk)
	}
	if len(data) != s.params.DataSize {
		return 0, 0, fmt.Errorf("%w: data len %d, want %d (ppn %d)", ErrBufSize, len(data), s.params.DataSize, ppn)
	}
	if spare != nil && len(spare) != s.params.SpareSize {
		return 0, 0, fmt.Errorf("%w: spare len %d, want %d (ppn %d)", ErrBufSize, len(spare), s.params.SpareSize, ppn)
	}
	return ch, lp, nil
}

// ProgramBatch implements Device: global up-front validation, then one
// concurrent sub-batch per involved channel (see the type comment for
// the failure contract). Slice order is preserved within each channel,
// so each channel's leg behaves exactly like a serial program sequence
// on that channel.
func (s *Striped) ProgramBatch(batch []PageProgram) error {
	seen := make(map[PPN]struct{}, len(batch))
	legs := make([][]PageProgram, len(s.subs))
	for _, pp := range batch {
		if _, dup := seen[pp.PPN]; dup {
			return fmt.Errorf("%w: ppn %d", ErrDuplicatePPN, pp.PPN)
		}
		seen[pp.PPN] = struct{}{}
		ch, lp, err := s.checkStriped(pp.PPN, pp.Data, pp.Spare)
		if err != nil {
			return err
		}
		legs[ch] = append(legs[ch], PageProgram{PPN: lp, Data: pp.Data, Spare: pp.Spare})
	}
	return s.programLegs(legs)
}

// ReadBatch implements Device (ReadEach).
func (s *Striped) ReadBatch(batch []PageRead) error { return ReadEach(s, batch) }

// programLegs programs one leg per involved channel, concurrently when more
// than one channel is involved, and joins the per-channel errors.
func (s *Striped) programLegs(legs [][]PageProgram) error {
	run := func(ch int) error { return s.subs[ch].ProgramBatch(legs[ch]) }
	involved := 0
	last := -1
	for ch, leg := range legs {
		if len(leg) > 0 {
			involved++
			last = ch
		}
	}
	switch involved {
	case 0:
		return nil
	case 1:
		return run(last)
	}
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for ch, leg := range legs {
		if len(leg) == 0 {
			continue
		}
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			errs[ch] = run(ch)
		}(ch)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats implements Device: the per-channel atomic snapshots are summed,
// so every field of the result is torn-free (each channel's snapshot is
// per-field atomic, and addition preserves that) even while all
// channels are mid-operation.
func (s *Striped) Stats() Stats {
	var total Stats
	for _, d := range s.subs {
		total = total.Add(d.Stats())
	}
	return total
}

// ChannelStats returns one snapshot per channel, indexed by channel.
// The per-channel TimeMicros fields are the channels' individual busy
// times; because channels operate concurrently, the device-level
// simulated makespan of a multi-channel workload is their maximum, not
// the Stats() sum.
func (s *Striped) ChannelStats() []Stats {
	out := make([]Stats, len(s.subs))
	for ch, d := range s.subs {
		out[ch] = d.Stats()
	}
	return out
}

// ResetStats implements Device.
func (s *Striped) ResetStats() {
	for _, d := range s.subs {
		d.ResetStats()
	}
}

// Wear implements Device, merging the per-channel distributions.
func (s *Striped) Wear() WearSummary {
	var w WearSummary
	for i, d := range s.subs {
		sw := d.Wear()
		if i == 0 {
			w = sw
			continue
		}
		if sw.MinErase < w.MinErase {
			w.MinErase = sw.MinErase
		}
		if sw.MaxErase > w.MaxErase {
			w.MaxErase = sw.MaxErase
		}
		w.TotalErases += sw.TotalErases
	}
	w.MeanErase = float64(w.TotalErases) / float64(s.params.NumBlocks)
	return w
}

// Sync implements Device, syncing every channel and joining errors.
func (s *Striped) Sync() error {
	errs := make([]error, len(s.subs))
	for i, d := range s.subs {
		errs[i] = d.Sync()
	}
	return errors.Join(errs...)
}

// Close implements Device, closing every channel and joining errors.
func (s *Striped) Close() error {
	errs := make([]error, len(s.subs))
	for i, d := range s.subs {
		errs[i] = d.Close()
	}
	return errors.Join(errs...)
}
