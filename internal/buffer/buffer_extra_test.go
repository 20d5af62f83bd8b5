package buffer

import (
	"errors"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
	"pdl/internal/opu"
)

func TestGetFaultsMissingPage(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := opu.New(chip, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Get of a never-written page surfaces the method's error and leaves
	// no frame behind.
	if _, err := p.Get(3); !errors.Is(err, ftl.ErrNotWritten) {
		t.Errorf("Get unwritten: %v", err)
	}
	if p.Len() != 0 {
		t.Errorf("failed fault left %d frames resident", p.Len())
	}
}

func TestGetNewOnResidentPageHits(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := opu.New(chip, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 0xAA
	// GetNew of a resident page must return the existing frame, not zero
	// it.
	d2, err := p.GetNew(0)
	if err != nil {
		t.Fatal(err)
	}
	if d2[0] != 0xAA {
		t.Error("GetNew zeroed a resident frame")
	}
	if p.Stats().Hits == 0 {
		t.Error("resident GetNew not counted as hit")
	}
}

func TestAccessorMethods(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := opu.New(chip, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 7 {
		t.Errorf("Capacity = %d", p.Capacity())
	}
	if p.PageSize() != chip.Params().DataSize {
		t.Errorf("PageSize = %d", p.PageSize())
	}
	if p.Method() != ftl.Method(m) {
		t.Error("Method() did not return the underlying method")
	}
}

func TestFlushAfterCloseFails(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := opu.New(chip, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close: %v", err)
	}
	if _, err := p.GetNew(0); !errors.Is(err, ErrClosed) {
		t.Errorf("GetNew after close: %v", err)
	}
}

// recordingMethod wraps a method and records the pid order of per-page
// write-backs. It deliberately does NOT implement ftl.BatchWriter, forcing
// the pool onto its per-page fallback path.
type recordingMethod struct {
	ftl.Method
	writes []uint32
}

func (r *recordingMethod) WritePage(pid uint32, data []byte) error {
	r.writes = append(r.writes, pid)
	return r.Method.WritePage(pid, data)
}

// recordingBatchMethod additionally exposes the inner method's WriteBatch,
// recording each batch's pid order.
type recordingBatchMethod struct {
	*recordingMethod
	batches [][]uint32
}

func (r *recordingBatchMethod) WriteBatch(writes []ftl.PageWrite) error {
	pids := make([]uint32, len(writes))
	for i, w := range writes {
		pids[i] = w.PID
	}
	r.batches = append(r.batches, pids)
	return r.Method.(ftl.BatchWriter).WriteBatch(writes)
}

func ascending(pids []uint32) bool {
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			return false
		}
	}
	return true
}

func dirtyPages(t *testing.T, p *Pool, pids ...uint32) {
	t.Helper()
	for _, pid := range pids {
		d, err := p.GetNew(pid)
		if err != nil {
			t.Fatal(err)
		}
		d[0] = byte(pid + 1)
		if err := p.MarkDirty(pid); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlushWritesBackInPidOrder(t *testing.T) {
	// The frame map iterates in random order; Flush must still hit the
	// method in ascending pid order so device write patterns reproduce.
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := opu.New(chip, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingMethod{Method: m}
	p, err := NewPool(rec, 16)
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, p, 9, 3, 27, 0, 14, 5)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 6 || !ascending(rec.writes) {
		t.Errorf("write-back order %v, want 6 ascending pids", rec.writes)
	}
}

func TestFlushBatchesThroughBatchWriter(t *testing.T) {
	// Over a batch-capable method, Flush issues one pid-ordered WriteBatch
	// instead of per-page writes.
	chip := flash.NewChip(ftltest.SmallParams(8))
	m, err := core.New(chip, 32, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBatchMethod{recordingMethod: &recordingMethod{Method: m}}
	p, err := NewPool(rec, 16)
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, p, 7, 2, 11, 30, 0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 0 {
		t.Errorf("per-page writes %v leaked past the batch path", rec.writes)
	}
	if len(rec.batches) != 1 || len(rec.batches[0]) != 5 || !ascending(rec.batches[0]) {
		t.Errorf("batches = %v, want one ascending batch of 5", rec.batches)
	}
	if wb := p.Stats().Writebacks; wb != 5 {
		t.Errorf("writebacks = %d, want 5", wb)
	}
}
