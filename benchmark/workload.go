package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pdl"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Shared flash geometry: the paper's Table 1 page (2 KB + 64 B, 64 pages
// per block, 110/1010/1500 us), PDL(256B), diff cache and read
// verification at their defaults.
const (
	maxDiffSize  = 256
	valueSize    = 100
	recordBytes  = 8 + valueSize // user bytes per record: key + value
	kvUtil       = 0.92          // logical pages as a share of flash, KV workloads
	pageUtil     = 0.50          // the paper's 1 GB database on a 2 GB chip
	roundSingles = 32            // page_file: single updates per round
	roundBatch   = 32            // page_file: pages in the batched update of a round
	pctChanged   = 2.0           // page_file: %ChangedByOneU_Op
	loadBatch    = 64            // page_file: load WriteBatch width
)

// workload is one fixed set of inputs.
type workload struct {
	name string
	why  string

	// ops is the length of the measured phase in operations at the default
	// -seconds 10; other -seconds scale it. It was sized to take about ten
	// seconds on the sandbox the benchmark was built on.
	ops int64

	kv       bool
	records  int // KV: records loaded
	blocks   int // page_file: flash blocks
	channels int
	clients  int
	shards   int
	bgGC     bool
	poolAll  bool    // KV: pools hold the whole store
	readFrac float64 // KV: share of Gets in the measured mix
	zipfian  bool    // KV: scrambled zipfian 0.99 keys (uniform otherwise)
	// KV conditioning after load, in multiples of records: uniform
	// updates, then optionally Sync, or a pass that touches every key.
	condUpdates float64
	condSync    bool
	condTouch   bool
}

// The four workloads. Names are fixed; later issues refer to them. Data
// sizes are half the issue's sizing prototype's (100,000 records in 212
// blocks; 256 blocks for page_file) and the measured phases about ten
// seconds: the driver gives 23 runs of each workload, every end-to-end one
// with at least three set-ups, 3420 seconds in all.
var workloads = []workload{
	{
		name: "ycsb_a",
		why:  "update-heavy serving, data 24x the pools, GC active: kv write path, pool write-back, core write cases, per-channel allocation, background collectors, cost-benefit victims",
		ops:  800_000,
		kv:   true, records: 100000, channels: 2, clients: 2, shards: 2, bgGC: true,
		readFrac: 0.5, zipfian: true, condUpdates: 3,
	},
	{
		name: "ycsb_c_cold",
		why:  "read-only, data 24x the pools, no GC: most Gets fault through buffer into core.ReadPage (base read, differential merge, ECC verify); write-path changes must not move it",
		ops:  1_000_000,
		kv:   true, records: 100000, channels: 2, clients: 2, shards: 2, bgGC: true,
		readFrac: 1, condUpdates: 1, condSync: true,
	},
	{
		name: "ycsb_b_hot",
		why:  "data fits the pools (miss ratio 0): only kv, btree, storage, buffer hits and bucket locks are timed; changes below the Method seam predict no change here",
		ops:  12_000_000,
		kv:   true, records: 100000, channels: 2, clients: 2, shards: 2, bgGC: true, poolAll: true,
		readFrac: 0.95, zipfian: true, condTouch: true,
	},
	{
		name:   "page_file",
		why:    "the paper's driver-level update on pdl.Store over the file backend: raw page API, single calls beside batch calls, real pread/pwrite, one channel, synchronous greedy GC; counts repeat exactly",
		ops:    5000 * (roundSingles + roundBatch),
		blocks: 256, channels: 1, clients: 1, shards: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is what one set-up needs beyond the workload itself.
type config struct {
	seed   int64
	scale  float64 // multiplies records and blocks; 1 outside the tests
	dir    string  // scratch directory for the device file and span files
	traced bool    // wrap both seams, one client, synchronous GC
}

// env is one built and conditioned store.
type env struct {
	w   *workload
	cfg config

	striped  *flash.Striped // KV workloads
	inner    flash.Device   // outermost real device; the store may see it through a tracedDevice
	path     string         // page_file: device file
	store    *pdl.Store
	method   ftl.Method // store, or the tracedMethod around it
	db       *pdl.KV
	rec      *recorder
	opts     pdl.Options
	kvOpts   pdl.KVOptions
	numPages int
	records  int // KV workloads
	cls      []*client

	load loader
}

// loader is the workload-specific half of a run: what an operation is and
// what the model says it must return.
type loader interface {
	// setup loads the store and ages or conditions it.
	setup() error
	// step runs one unit of work for cl: one Get or Put, or one page_file
	// round. It records latencies and counts into cl.
	step(cl *client)
	// ack is the acknowledgement point: Sync or Flush, then the model
	// snapshot every later read-back is held to.
	ack() error
	// unacked issues cl's share of updates that are never acknowledged.
	unacked(cl *client)
	// reopen attaches to a recovered store.
	reopen(store *pdl.Store) error
	// verifyAll reads everything back through the recovered store.
	verifyAll(cl *client)
	// liveUserBytes is the size of the data a user would say is stored.
	liveUserBytes() int64
}

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// build creates the device and the store through the public constructors
// and runs the workload's set-up on them.
func build(w *workload, cfg config) (*env, error) {
	e := &env{w: w, cfg: cfg}
	clients := w.clients
	e.opts = pdl.Options{MaxDifferentialSize: maxDiffSize, Shards: w.shards, BackgroundGC: w.bgGC}
	if cfg.traced {
		// A span's parent comes from one stack, so the traced run has one
		// client and collects synchronously. Shards and channels stay.
		clients = 1
		e.opts.BackgroundGC = false
		e.rec = newRecorder(maxSpans)
	}
	for i := 0; i < clients; i++ {
		e.cls = append(e.cls, newClient(i, clients, cfg.seed))
	}
	if err := e.openDevice(); err != nil {
		return nil, err
	}
	dev := e.inner
	if cfg.traced {
		dev = &tracedDevice{Device: e.inner, rec: e.rec}
	}
	store, err := pdl.Open(dev, e.numPages, e.opts)
	if err != nil {
		e.discard()
		return nil, fmt.Errorf("open store: %w", err)
	}
	e.store = store
	e.method = store
	if cfg.traced {
		e.method = &tracedMethod{s: store, rec: e.rec}
	}
	if w.kv {
		e.load, err = newKVLoad(e)
	} else {
		e.load, err = newPageLoad(e)
	}
	if err == nil {
		err = e.load.setup()
	}
	if err != nil {
		e.discard()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return e, nil
}

// openDevice sizes the flash for the workload and opens it: two emulated
// chips striped into two channels for the KV workloads, one file-backed
// device for page_file.
func (e *env) openDevice() error {
	w := e.w
	if !w.kv {
		blocks := scaled(w.blocks, e.cfg.scale, 12)
		e.numPages = int(float64(blocks*flash.DefaultPagesPerBlock) * pageUtil)
		if err := os.MkdirAll(e.cfg.dir, 0o755); err != nil {
			return err
		}
		e.path = filepath.Join(e.cfg.dir, fmt.Sprintf("%s-%d-%d.flash", w.name, e.cfg.seed, os.Getpid()))
		dev, err := pdl.OpenFileDevice(e.path, pdl.FileDeviceOptions{
			Params: pdl.ScaledFlashParams(blocks), Sync: pdl.SyncOnClose, Reset: true,
		})
		if err != nil {
			return fmt.Errorf("open file device: %w", err)
		}
		e.inner = dev
		return nil
	}
	e.records = scaled(w.records, e.cfg.scale, 500)
	e.numPages = int(pdl.KVPagesNeeded(e.records, valueSize, flash.DefaultDataSize, e.kvOpts))
	if w.poolAll {
		e.kvOpts.PoolPages = e.numPages/8 + 1 // 8 buckets by default, each with its own pool
	}
	ppb := flash.DefaultPagesPerBlock
	perChan := int(math.Ceil(float64(e.numPages) / kvUtil / float64(ppb) / float64(w.channels)))
	// At test scales 8% of a tiny device is less than the erased-block
	// reserve and the collectors' watermark; keep four spare blocks a channel.
	if floor := (e.numPages+ppb-1)/ppb/w.channels + 4; perChan < floor {
		perChan = floor
	}
	subs := make([]flash.Device, w.channels)
	for i := range subs {
		subs[i] = pdl.NewChip(pdl.ScaledFlashParams(perChan))
	}
	striped, err := flash.NewStriped(subs...)
	if err != nil {
		return err
	}
	e.striped, e.inner = striped, striped
	return nil
}

// discard releases everything the env holds: collectors, device, file.
func (e *env) discard() {
	if e.store != nil {
		_ = e.store.Close() // a collector's sticky error was already counted or is moot on teardown
	}
	if e.inner != nil {
		_ = e.inner.Close() // nothing on this device is read again
	}
	if e.path != "" {
		_ = os.Remove(e.path)
	}
}
