package kv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"pdl/internal/btree"
	"pdl/internal/ftl"
)

// The recovery metadata lives in logical page 0 and is rewritten on
// every Sync, after the bucket pools flush and before the final method
// flush + device sync. It carries everything Reopen needs that is not
// reconstructible from flash: the store layout and each bucket's B+-tree
// state. Little-endian throughout, like the rest of the on-flash
// structures.
//
//	off  0  magic     u64  "PDLKV\x01" (little-endian packed)
//	off  8  version   u32  2; version 1 was the heap-and-index layout
//	off 12  buckets   u32
//	off 16  numPages  u32
//	off 20  treePages u32  (per bucket: the whole span)
//	off 24  checksum  u64  FNV-1a over the bucket records
//	off 32  bucket records, metaRecSize bytes each:
//	        root u32, nextAlloc u32, height u32, size u64
const (
	metaMagic   = uint64(0x01564B4C4450) // "PDLKV\x01" read as little-endian
	metaVersion = uint32(2)
	metaHdrSize = 32
	metaRecSize = 20
)

type metaState struct {
	numPages  uint32
	treePages uint32
	states    []btree.State
}

// checkMetaFits rejects geometries whose metadata cannot fit page 0.
func checkMetaFits(pageSize int) error {
	if need := metaHdrSize + numBuckets*metaRecSize; need > pageSize {
		return fmt.Errorf("kv: metadata for %d buckets needs %d bytes, page holds %d",
			numBuckets, need, pageSize)
	}
	return nil
}

func writeMeta(m ftl.Method, st metaState) error {
	buf := make([]byte, m.PageSize())
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[8:], metaVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(st.states)))
	binary.LittleEndian.PutUint32(buf[16:], st.numPages)
	binary.LittleEndian.PutUint32(buf[20:], st.treePages)
	recs := buf[metaHdrSize : metaHdrSize+len(st.states)*metaRecSize]
	for i, ts := range st.states {
		r := recs[i*metaRecSize:]
		binary.LittleEndian.PutUint32(r[0:], ts.Root)
		binary.LittleEndian.PutUint32(r[4:], ts.NextAlloc)
		binary.LittleEndian.PutUint32(r[8:], uint32(ts.Height))
		binary.LittleEndian.PutUint64(r[12:], uint64(ts.Size))
	}
	h := fnv.New64a()
	h.Write(recs)
	binary.LittleEndian.PutUint64(buf[24:], h.Sum64())
	return m.WritePage(0, buf)
}

func readMeta(m ftl.Method) (metaState, error) {
	if err := checkMetaFits(m.PageSize()); err != nil {
		return metaState{}, err
	}
	buf := make([]byte, m.PageSize())
	if err := m.ReadPage(0, buf); err != nil {
		return metaState{}, fmt.Errorf("kv: no recovery metadata (store never synced?): %w", err)
	}
	if got := binary.LittleEndian.Uint64(buf[0:]); got != metaMagic {
		return metaState{}, fmt.Errorf("kv: bad metadata magic %#x", got)
	}
	switch v := binary.LittleEndian.Uint32(buf[8:]); v {
	case metaVersion:
	case 1:
		return metaState{}, fmt.Errorf("kv: metadata version 1 names the heap-and-index layout, which is no longer read (want version %d)", metaVersion)
	default:
		return metaState{}, fmt.Errorf("kv: metadata version %d, want %d", v, metaVersion)
	}
	if buckets := binary.LittleEndian.Uint32(buf[12:]); buckets != numBuckets {
		return metaState{}, fmt.Errorf("kv: metadata names %d buckets, want %d", buckets, numBuckets)
	}
	recs := buf[metaHdrSize : metaHdrSize+numBuckets*metaRecSize]
	h := fnv.New64a()
	h.Write(recs)
	if want := binary.LittleEndian.Uint64(buf[24:]); h.Sum64() != want {
		return metaState{}, fmt.Errorf("kv: metadata checksum mismatch")
	}
	st := metaState{
		numPages:  binary.LittleEndian.Uint32(buf[16:]),
		treePages: binary.LittleEndian.Uint32(buf[20:]),
		states:    make([]btree.State, numBuckets),
	}
	for i := range st.states {
		r := recs[i*metaRecSize:]
		st.states[i] = btree.State{
			Root:      binary.LittleEndian.Uint32(r[0:]),
			NextAlloc: binary.LittleEndian.Uint32(r[4:]),
			Height:    int(binary.LittleEndian.Uint32(r[8:])),
			Size:      int(binary.LittleEndian.Uint64(r[12:])),
		}
	}
	return st, nil
}
