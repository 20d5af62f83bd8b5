package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"pdl"
	"pdl/internal/ycsb"
)

// kvLoad drives a pdl.KV and holds its model: the version every key
// carries. A key is written only by client key%clients, so the model is
// exact under concurrency; a value embeds (key, version) and a filler
// derived from both, so a torn or foreign value fails its check.
type kvLoad struct {
	e       *env
	records uint64
	salt    uint64
	ver     []atomic.Uint32 // latest version put, per key
	acked   []uint32        // version at the acknowledgement point
	zipf    *ycsb.Zipfian
}

func newKVLoad(e *env) (*kvLoad, error) {
	db, err := pdl.OpenKV(e.method, uint32(e.numPages), e.kvOpts)
	if err != nil {
		return nil, fmt.Errorf("open kv: %w", err)
	}
	e.db = db
	l := &kvLoad{
		e:       e,
		records: uint64(e.records),
		salt:    ycsb.Scramble(uint64(e.cfg.seed) + 1),
		ver:     make([]atomic.Uint32, e.records),
	}
	if e.w.zipfian {
		l.zipf = ycsb.NewZipfian(l.records, 0.99)
	}
	return l, nil
}

// fillValue writes the value of (key, ver): key, version, then a
// splitmix64 stream seeded by both.
func (l *kvLoad) fillValue(v []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint32(v[8:], ver)
	x := l.salt ^ key*0x9E3779B97F4A7C15 ^ uint64(ver)<<32
	var word [8]byte
	for i := 12; i < len(v); i += 8 {
		x += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(word[:], ycsb.Scramble(x))
		copy(v[i:], word[:])
	}
}

// valid reports whether got is exactly the value of key at some version
// in [lo, hi].
func (l *kvLoad) valid(cl *client, got []byte, key uint64, lo, hi uint32) bool {
	if len(got) != valueSize || binary.LittleEndian.Uint64(got) != key {
		return false
	}
	v := binary.LittleEndian.Uint32(got[8:])
	if v < lo || v > hi {
		return false
	}
	l.fillValue(cl.val, key, v)
	return bytes.Equal(got, cl.val)
}

// pick draws a key from the workload's distribution.
func (l *kvLoad) pick(cl *client) uint64 {
	if l.zipf != nil {
		return ycsb.Scramble(l.zipf.Next(cl.rng)) % l.records
	}
	return uint64(cl.rng.Int63n(int64(l.records)))
}

// own maps a key to one that cl may write.
func (l *kvLoad) own(cl *client, k uint64) uint64 {
	k = k - k%uint64(cl.of) + uint64(cl.id)
	if k >= l.records {
		k -= uint64(cl.of)
	}
	return k
}

func (l *kvLoad) get(cl *client, k uint64) {
	lo := l.ver[k].Load()
	sp := l.e.rec.push(spGet, 1)
	s := cl.clock()
	got, err := l.e.db.Get(k, cl.buf[:0])
	cl.now = cl.clock()
	l.e.rec.pop(sp)
	cl.read(cl.now - s)
	// A Put by the key's owner may have reached the store but not yet the
	// model, so one version past the model's is still exact.
	bad := 0
	if err != nil || !l.valid(cl, got, k, lo, l.ver[k].Load()+1) {
		bad = 1
	}
	cl.done(1, bad)
}

func (l *kvLoad) put(cl *client, k uint64) {
	nv := l.ver[k].Load() + 1
	l.fillValue(cl.val, k, nv)
	sp := l.e.rec.push(spPut, 1)
	s := cl.clock()
	err := l.e.db.Put(k, cl.val)
	cl.now = cl.clock()
	l.e.rec.pop(sp)
	cl.write(cl.now - s)
	if err != nil {
		cl.done(1, 1)
		return
	}
	l.ver[k].Store(nv)
	cl.userBytes += recordBytes
	cl.done(1, 0)
}

func (l *kvLoad) step(cl *client) {
	k := l.pick(cl)
	if l.e.w.readFrac >= 1 || cl.rng.Float64() < l.e.w.readFrac {
		l.get(cl, k)
	} else {
		l.put(cl, l.own(cl, k))
	}
}

// each runs fn on every client and fails if any operation failed its
// check: set-up must be clean before anything is measured.
func (l *kvLoad) each(what string, fn func(cl *client)) error {
	if p := forEach(l.e.cls, fn); p.failed > 0 {
		return fmt.Errorf("%s: %d operations failed", what, p.failed)
	}
	return nil
}

func (l *kvLoad) setup() error {
	e := l.e
	if err := l.each("load", func(cl *client) {
		for k := uint64(cl.id); k < l.records; k += uint64(cl.of) {
			l.put(cl, k)
		}
	}); err != nil {
		return err
	}
	if n := int(e.w.condUpdates * float64(l.records)); n > 0 {
		if err := l.each("conditioning updates", func(cl *client) {
			for i := 0; i < n/cl.of; i++ {
				l.put(cl, l.own(cl, uint64(cl.rng.Int63n(int64(l.records)))))
			}
		}); err != nil {
			return err
		}
	}
	if e.w.condSync {
		if err := e.db.Sync(); err != nil {
			return fmt.Errorf("conditioning sync: %w", err)
		}
	}
	if e.w.condTouch {
		return l.each("touch pass", func(cl *client) {
			for k := uint64(cl.id); k < l.records; k += uint64(cl.of) {
				l.get(cl, k)
			}
		})
	}
	return nil
}

func (l *kvLoad) ack() error {
	sp := l.e.rec.push(spAck, 1)
	err := l.e.db.Sync()
	l.e.rec.pop(sp)
	if err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	l.acked = make([]uint32, l.records)
	for k := range l.acked {
		l.acked[k] = l.ver[k].Load()
	}
	return nil
}

func (l *kvLoad) unacked(cl *client) {
	for i := uint64(0); i < l.records/20; i++ {
		l.put(cl, l.own(cl, l.pick(cl)))
	}
}

func (l *kvLoad) reopen(store *pdl.Store) error {
	db, err := pdl.ReopenKV(store, uint32(l.e.numPages), l.e.kvOpts)
	if err != nil {
		return fmt.Errorf("reopen kv: %w", err)
	}
	l.e.db = db
	return nil
}

// verifyAll reads every key back: it must hold its acknowledged version
// or a later unacknowledged one, byte for byte (the kv package's
// steal-policy contract).
func (l *kvLoad) verifyAll(cl *client) {
	for k := uint64(0); k < l.records; k++ {
		got, err := l.e.db.Get(k, cl.buf[:0])
		bad := 0
		if err != nil || !l.valid(cl, got, k, l.acked[k], l.ver[k].Load()) {
			bad = 1
		}
		cl.done(1, bad)
	}
}

func (l *kvLoad) liveUserBytes() int64 { return int64(l.records) * recordBytes }
