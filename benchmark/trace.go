package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"pdl"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Span names. The class of a span is the seam it was recorded at: the
// driver's own op loop, the Method seam, or the Device seam.
const (
	spGet uint8 = iota
	spPut
	spUpdate      // page_file: one ReadPage / mutate / WritePage update
	spUpdateBatch // page_file: one ReadBatch / mutate / WriteBatch group
	spAck         // Sync (KV) or Flush (page): the acknowledgement point
	spReadPage
	spWritePage
	spReadBatch
	spWriteBatch
	spFlush
	spDevRead
	spDevProgram
	spDevErase
	spDevReadBatch
	spDevProgramBatch
	spDevSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.get", "op.put", "op.update", "op.update_batch", "op.ack",
	"core.read_page", "core.write_page", "core.read_batch", "core.write_batch", "core.flush",
	"device.read", "device.program", "device.erase", "device.read_batch", "device.program_batch", "device.sync",
}

func isOpSpan(name uint8) bool     { return name <= spAck }
func isMethodSpan(name uint8) bool { return name >= spReadPage && name <= spFlush }

// span is one recorded interval. Times are nanoseconds since the
// recorder's origin; parent is the index of the span that was innermost
// on the client goroutine when this one began (-1 for a root); n is the
// page count of a batch call (1 otherwise).
type span struct {
	start, end int64
	parent     int32
	n          int32
	name       uint8
}

// recorder holds the spans of one traced run in a buffer allocated up
// front. Op and Method spans are opened and closed by the single client
// goroutine and form a stack whose top is the parent of whatever begins
// next. Device spans are leaves: they read the top but never become it,
// which is what lets the store's shard-staging goroutines (WriteBatch over
// two shards) call the traced device concurrently.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	next   atomic.Int32
	top    atomic.Int32
	spans  []span
}

func newRecorder(capacity int) *recorder {
	r := &recorder{origin: time.Now(), spans: make([]span, capacity)}
	r.top.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its index, or -1 when recording is off
// (the pass-through window) or the buffer is full.
func (r *recorder) begin(name uint8, n int) int32 {
	if r == nil || !r.on.Load() {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		return -1
	}
	r.spans[i] = span{start: r.now(), parent: r.top.Load(), n: int32(n), name: name}
	return i
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
	}
}

// push opens a span that becomes the parent of what follows; pop closes it.
func (r *recorder) push(name uint8, n int) int32 {
	i := r.begin(name, n)
	if i >= 0 {
		r.top.Store(i)
	}
	return i
}

func (r *recorder) pop(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
		r.top.Store(r.spans[i].parent)
	}
}

// full reports whether a span has been dropped for lack of room.
func (r *recorder) full() bool { return int(r.next.Load()) > len(r.spans) }

// recorded returns the spans recorded so far.
func (r *recorder) recorded() []span {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover (the union of the child intervals,
// so concurrent children are not counted twice), and that covered part.
// Children of one parent must appear in start order, which append order
// gives.
func selfTimes(spans []span) (self, covered []int64) {
	self = make([]int64, len(spans))
	covered = make([]int64, len(spans))
	covEnd := make([]int64, len(spans))
	for _, s := range spans {
		p := s.parent
		if p < 0 {
			continue
		}
		lo, hi := s.start, s.end
		if lo < covEnd[p] {
			lo = covEnd[p]
		}
		if hi > spans[p].end {
			hi = spans[p].end
		}
		if hi > lo {
			covered[p] += hi - lo
			covEnd[p] = hi
		}
	}
	for i, s := range spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self, covered
}

// nameTotals is the sum over the spans of one name.
type nameTotals struct {
	count, pages       int64
	dur, self, covered int64
}

// totalsByName aggregates spans[lo:hi], given selfTimes of all spans.
func totalsByName(spans []span, self, covered []int64, lo, hi int) [numSpanNames]nameTotals {
	var t [numSpanNames]nameTotals
	for i := lo; i < hi; i++ {
		s := spans[i]
		a := &t[s.name]
		a.count++
		a.pages += int64(s.n)
		a.dur += s.end - s.start
		a.self += self[i]
		a.covered += covered[i]
	}
	return t
}

// writeTrace writes the spans as one JSON document: a name table and one
// [name, start_ns, end_ns, parent, pages] row per span.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"pages\"],\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	var row []byte
	for i, s := range spans {
		row = row[:0]
		if i > 0 {
			row = append(row, ",\n"...)
		}
		row = append(row, '[')
		row = strconv.AppendInt(row, int64(s.name), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.end, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.parent), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.n), 10)
		row = append(row, ']')
		w.Write(row)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMethod wraps the store at the Method seam. It forwards every
// optional interface the layers above probe for (BatchWriter, BatchReader,
// ConcurrencySafe), so wrapping changes no code path.
type tracedMethod struct {
	s   *pdl.Store
	rec *recorder
}

var (
	_ ftl.Method      = (*tracedMethod)(nil)
	_ ftl.BatchWriter = (*tracedMethod)(nil)
	_ ftl.BatchReader = (*tracedMethod)(nil)
)

func (m *tracedMethod) Name() string         { return m.s.Name() }
func (m *tracedMethod) Device() flash.Device { return m.s.Device() }
func (m *tracedMethod) PageSize() int        { return m.s.PageSize() }
func (m *tracedMethod) Stats() flash.Stats   { return m.s.Stats() }
func (m *tracedMethod) ConcurrencySafe() bool {
	return m.s.ConcurrencySafe()
}

func (m *tracedMethod) ReadPage(pid uint32, buf []byte) error {
	i := m.rec.push(spReadPage, 1)
	err := m.s.ReadPage(pid, buf)
	m.rec.pop(i)
	return err
}

func (m *tracedMethod) WritePage(pid uint32, data []byte) error {
	i := m.rec.push(spWritePage, 1)
	err := m.s.WritePage(pid, data)
	m.rec.pop(i)
	return err
}

func (m *tracedMethod) Flush() error {
	i := m.rec.push(spFlush, 1)
	err := m.s.Flush()
	m.rec.pop(i)
	return err
}

func (m *tracedMethod) WriteBatch(writes []ftl.PageWrite) error {
	i := m.rec.push(spWriteBatch, len(writes))
	err := m.s.WriteBatch(writes)
	m.rec.pop(i)
	return err
}

func (m *tracedMethod) ReadBatch(pids []uint32, bufs [][]byte) error {
	i := m.rec.push(spReadBatch, len(pids))
	err := m.s.ReadBatch(pids, bufs)
	m.rec.pop(i)
	return err
}

// tracedDevice wraps the outermost flash.Device at the Device seam. The
// embedded interface forwards everything that is not timed (geometry,
// bad-block state, counters, Close). It forwards flash.Channeled, so a
// striped device keeps its channels when traced.
type tracedDevice struct {
	flash.Device
	rec *recorder
}

var (
	_ flash.Device    = (*tracedDevice)(nil)
	_ flash.Channeled = (*tracedDevice)(nil)
)

func (d *tracedDevice) Channels() int {
	if c, ok := d.Device.(flash.Channeled); ok {
		return c.Channels()
	}
	return 1
}

func (d *tracedDevice) ChannelOfBlock(blk int) int {
	if c, ok := d.Device.(flash.Channeled); ok {
		return c.ChannelOfBlock(blk)
	}
	return 0
}

func (d *tracedDevice) Read(ppn flash.PPN, data, spare []byte) error {
	i := d.rec.begin(spDevRead, 1)
	err := d.Device.Read(ppn, data, spare)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ReadData(ppn flash.PPN, data []byte) error {
	i := d.rec.begin(spDevRead, 1)
	err := d.Device.ReadData(ppn, data)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ReadSpare(ppn flash.PPN, spare []byte) error {
	i := d.rec.begin(spDevRead, 1)
	err := d.Device.ReadSpare(ppn, spare)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ReadBatch(batch []flash.PageRead) error {
	i := d.rec.begin(spDevReadBatch, len(batch))
	err := d.Device.ReadBatch(batch)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) Program(ppn flash.PPN, data, spare []byte) error {
	i := d.rec.begin(spDevProgram, 1)
	//pdlvet:ignore deviceio the wrapper forwards the store's own call unchanged
	err := d.Device.Program(ppn, data, spare)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ProgramBatch(batch []flash.PageProgram) error {
	i := d.rec.begin(spDevProgramBatch, len(batch))
	//pdlvet:ignore deviceio the wrapper forwards the store's own call unchanged
	err := d.Device.ProgramBatch(batch)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ProgramPartial(ppn flash.PPN, off int, chunk []byte) error {
	i := d.rec.begin(spDevProgram, 1)
	//pdlvet:ignore deviceio the wrapper forwards the store's own call unchanged
	err := d.Device.ProgramPartial(ppn, off, chunk)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) ProgramSpare(ppn flash.PPN, spare []byte) error {
	i := d.rec.begin(spDevProgram, 1)
	//pdlvet:ignore deviceio the wrapper forwards the store's own call unchanged
	err := d.Device.ProgramSpare(ppn, spare)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) Erase(blk int) error {
	i := d.rec.begin(spDevErase, 1)
	//pdlvet:ignore deviceio the wrapper forwards the store's own call unchanged
	err := d.Device.Erase(blk)
	d.rec.end(i)
	return err
}

func (d *tracedDevice) Sync() error {
	i := d.rec.begin(spDevSync, 1)
	err := d.Device.Sync()
	d.rec.end(i)
	return err
}
