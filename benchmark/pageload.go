package main

import (
	"fmt"
	"hash/maphash"

	"pdl"
	"pdl/internal/ftl"
)

// pageLoad drives the paper's update operation (read the page, change a
// 2% run of it, write it back) directly on the store. One round is
// roundSingles single updates followed by one batched update of
// roundBatch distinct pages. The model is a hash of every page's content.
type pageLoad struct {
	e        *env
	br       ftl.BatchReader
	bw       ftl.BatchWriter
	numPages int
	runLen   int

	hseed maphash.Seed
	sum   []uint64            // model: hash of each page's latest content
	acked []uint64            // model at the acknowledgement point
	later map[uint32][]uint64 // contents written after it

	page   []byte
	bufs   [][]byte
	pids   []uint32
	writes []ftl.PageWrite
	mark   []uint32 // mark[pid] == epoch: pid is already in the current batch
	epoch  uint32
}

func newPageLoad(e *env) (*pageLoad, error) {
	ps := e.method.PageSize()
	l := &pageLoad{
		e:        e,
		br:       e.method.(ftl.BatchReader),
		bw:       e.method.(ftl.BatchWriter),
		numPages: e.numPages,
		runLen:   max(1, int(float64(ps)*pctChanged/100)),
		hseed:    maphash.MakeSeed(),
		sum:      make([]uint64, e.numPages),
		page:     make([]byte, ps),
		mark:     make([]uint32, e.numPages),
	}
	arena := make([]byte, loadBatch*ps)
	for i := 0; i < loadBatch; i++ {
		l.bufs = append(l.bufs, arena[i*ps:(i+1)*ps])
	}
	return l, nil
}

func (l *pageLoad) hash(p []byte) uint64 { return maphash.Bytes(l.hseed, p) }

// wrote records that pid now holds content hashing to h.
func (l *pageLoad) wrote(pid uint32, h uint64) {
	l.sum[pid] = h
	if l.later != nil {
		l.later[pid] = append(l.later[pid], h)
	}
}

// mutate overwrites one random run of pctChanged of the page.
func (l *pageLoad) mutate(cl *client, p []byte) {
	off := cl.rng.Intn(len(p) - l.runLen + 1)
	cl.rng.Read(p[off : off+l.runLen])
}

func (l *pageLoad) updateOne(cl *client) {
	pid := uint32(cl.rng.Intn(l.numPages))
	sp := l.e.rec.push(spUpdate, 1)
	s := cl.clock()
	err := l.e.method.ReadPage(pid, l.page)
	t := cl.clock()
	cl.read(t - s)
	bad := 0
	if err != nil || l.hash(l.page) != l.sum[pid] {
		bad = 1
	}
	l.mutate(cl, l.page)
	s = cl.clock()
	err = l.e.method.WritePage(pid, l.page)
	cl.now = cl.clock()
	cl.write(cl.now - s)
	l.e.rec.pop(sp)
	if err != nil {
		bad = 1
	} else {
		l.wrote(pid, l.hash(l.page))
		cl.userBytes += int64(len(l.page))
	}
	cl.done(1, bad)
}

func (l *pageLoad) updateBatch(cl *client, n int) {
	l.epoch++
	l.pids = l.pids[:0]
	for len(l.pids) < n {
		pid := uint32(cl.rng.Intn(l.numPages))
		if l.mark[pid] != l.epoch {
			l.mark[pid] = l.epoch
			l.pids = append(l.pids, pid)
		}
	}
	bufs := l.bufs[:n]
	sp := l.e.rec.push(spUpdateBatch, n)
	err := l.br.ReadBatch(l.pids, bufs)
	bad := 0
	l.writes = l.writes[:0]
	for i, pid := range l.pids {
		if err != nil || l.hash(bufs[i]) != l.sum[pid] {
			bad++
		}
		l.mutate(cl, bufs[i])
		l.writes = append(l.writes, ftl.PageWrite{PID: pid, Data: bufs[i]})
	}
	err = l.bw.WriteBatch(l.writes)
	cl.now = cl.clock()
	l.e.rec.pop(sp)
	if err != nil {
		bad = n
	} else {
		for i, pid := range l.pids {
			l.wrote(pid, l.hash(bufs[i]))
		}
		cl.userBytes += int64(n * len(l.page))
	}
	cl.done(n, bad)
}

func (l *pageLoad) step(cl *client) {
	for i := 0; i < roundSingles; i++ {
		l.updateOne(cl)
	}
	l.updateBatch(cl, roundBatch)
}

// setup loads every page by WriteBatch, then runs update rounds until the
// allocator has collected, on average, every block once: the store is in
// its steady state before anything is measured.
func (l *pageLoad) setup() (err error) {
	forEach(l.e.cls, func(cl *client) { err = l.loadAndAge(cl) })
	return err
}

func (l *pageLoad) loadAndAge(cl *client) error {
	for first := 0; first < l.numPages; first += loadBatch {
		l.writes = l.writes[:0]
		for i := 0; i < loadBatch && first+i < l.numPages; i++ {
			cl.rng.Read(l.bufs[i])
			l.sum[first+i] = l.hash(l.bufs[i])
			l.writes = append(l.writes, ftl.PageWrite{PID: uint32(first + i), Data: l.bufs[i]})
		}
		if err := l.bw.WriteBatch(l.writes); err != nil {
			return fmt.Errorf("load pids %d..: %w", first, err)
		}
	}
	if err := l.e.method.Flush(); err != nil {
		return err
	}
	for l.e.store.Allocator().MeanVictimRounds() < 1 {
		l.step(cl)
		if cl.failed > 0 {
			return fmt.Errorf("ageing: %d operations failed", cl.failed)
		}
	}
	return nil
}

func (l *pageLoad) ack() error {
	sp := l.e.rec.push(spAck, 1)
	err := l.e.method.Flush()
	l.e.rec.pop(sp)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	l.acked = append([]uint64(nil), l.sum...)
	l.later = make(map[uint32][]uint64)
	return nil
}

func (l *pageLoad) unacked(cl *client) {
	for i := 0; i < l.numPages/20; i++ {
		l.updateOne(cl)
	}
}

func (l *pageLoad) reopen(*pdl.Store) error { return nil }

// verifyAll reads every page back from the recovered store: it must hold
// its acknowledged content or one written later (the paper's buffer-loss
// contract: differentials still in the write buffer are lost, whole
// reflections never tear).
func (l *pageLoad) verifyAll(cl *client) {
	for pid := 0; pid < l.numPages; pid++ {
		err := l.e.method.ReadPage(uint32(pid), l.page)
		h := l.hash(l.page)
		ok := err == nil && h == l.acked[pid]
		for _, lh := range l.later[uint32(pid)] {
			ok = ok || (err == nil && h == lh)
		}
		bad := 0
		if !ok {
			bad = 1
		}
		cl.done(1, bad)
	}
}

func (l *pageLoad) liveUserBytes() int64 { return int64(l.numPages) * int64(len(l.page)) }
