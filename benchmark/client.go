package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// numWindows is how many equal windows the measured phase is cut into.
// Every wall-clock metric is the median over the windows, so one scheduler
// stall cannot set it.
const numWindows = 20

// window holds what one client measured in one window of the measured
// phase. Latencies are nanoseconds.
type window struct {
	ops           int64
	start, end    time.Duration
	reads, writes []uint32
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned.
type client struct {
	id, of int // this client and the client count; it writes only keys with key%of == id
	rng    *rand.Rand
	t0     time.Time
	now    time.Duration // when the last operation returned, since t0

	record bool // latencies are kept (measured phase only)
	win    [numWindows]window
	cur    *window

	ops, failed int64
	userBytes   int64 // key+value or page bytes written
	maxOp       time.Duration

	val, buf []byte // value scratch
}

func newClient(id, of int, seed int64) *client {
	cl := &client{
		id: id, of: of,
		rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		val: make([]byte, valueSize),
		buf: make([]byte, 0, 2*valueSize),
	}
	cl.restart(time.Now())
	return cl
}

// restart zeroes everything the client counts and sets its clock's origin.
func (cl *client) restart(t0 time.Time) {
	cl.t0, cl.now = t0, 0
	cl.ops, cl.failed, cl.userBytes, cl.maxOp = 0, 0, 0, 0
	cl.win = [numWindows]window{}
	cl.cur = &cl.win[0]
}

func (cl *client) clock() time.Duration { return time.Since(cl.t0) }

func (cl *client) sample(dst *[]uint32, d time.Duration) {
	if d > cl.maxOp {
		cl.maxOp = d
	}
	if cl.record {
		*dst = append(*dst, uint32(min(d, time.Duration(^uint32(0)))))
	}
}

func (cl *client) read(d time.Duration)  { cl.sample(&cl.cur.reads, d) }
func (cl *client) write(d time.Duration) { cl.sample(&cl.cur.writes, d) }

// done counts n operations, of which bad failed their check.
func (cl *client) done(n, bad int) {
	cl.ops += int64(n)
	cl.cur.ops += int64(n)
	cl.failed += int64(bad)
}

// phase is what one closed-loop phase over all clients measured.
type phase struct {
	ops, failed int64
	userBytes   int64
	wall        time.Duration // longest client
	maxOp       time.Duration
	windows     []windowStats
}

// windowStats is one window, merged over clients. Latencies are in
// microseconds, and 0 where the window had no such operation.
type windowStats struct {
	opsPerS                       float64
	readP50, readP99, readP999    float64
	writeP50, writeP99, writeP999 float64
}

// runPhase drives every client through steps until the clients together
// ran ops operations (rounded up to whole steps per client): a phase is
// bounded by work, not by time, so its counts are a function of the seed.
// The windows are equal shares of each client's operations. stop, when set,
// ends the phase early (the span buffer filled).
func runPhase(clients []*client, ops int64, record bool, step func(*client), stop func() bool) phase {
	quota := max(ops/int64(len(clients)), 1)
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range clients {
		cl.restart(t0)
		cl.record = record
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			w := -1
			for cl.ops < quota && (stop == nil || !stop()) {
				if nw := int(cl.ops * numWindows / quota); nw != w {
					if w >= 0 {
						cl.win[w].end = cl.now
					}
					w = nw
					cl.cur = &cl.win[w]
					cl.cur.start = cl.now
				}
				step(cl)
			}
			if w >= 0 {
				cl.win[w].end = cl.now
			}
			cl.record = false
		}(cl)
	}
	wg.Wait()

	p := sumPhase(clients)
	if record {
		for w := 0; w < numWindows; w++ {
			p.windows = append(p.windows, mergeWindow(clients, w))
		}
	}
	for _, cl := range clients {
		cl.win = [numWindows]window{} // release the samples before heap_mb is read
		cl.cur = &cl.win[0]
	}
	return p
}

// sumPhase adds up what the clients counted since their restart.
func sumPhase(clients []*client) phase {
	var p phase
	for _, cl := range clients {
		p.ops += cl.ops
		p.failed += cl.failed
		p.userBytes += cl.userBytes
		p.wall = max(p.wall, cl.now)
		p.maxOp = max(p.maxOp, cl.maxOp)
	}
	return p
}

// secondsPerOp is the phase's wall time per operation.
func (p phase) secondsPerOp() float64 { return per(p.wall.Seconds(), float64(p.ops)) }

// forEach runs fn once per client, concurrently, outside any measured
// phase, and returns what the clients counted.
func forEach(cls []*client, fn func(cl *client)) phase {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range cls {
		cl.restart(t0)
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
	return sumPhase(cls)
}

func mergeWindow(clients []*client, w int) windowStats {
	var ws windowStats
	var reads, writes []uint32
	for _, cl := range clients {
		cw := &cl.win[w]
		if d := cw.end - cw.start; d > 0 {
			ws.opsPerS += float64(cw.ops) / d.Seconds()
		}
		reads = append(reads, cw.reads...)
		writes = append(writes, cw.writes...)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	ws.readP50, ws.readP99, ws.readP999 = pctUs(reads, 50), pctUs(reads, 99), pctUs(reads, 99.9)
	ws.writeP50, ws.writeP99, ws.writeP999 = pctUs(writes, 50), pctUs(writes, 99), pctUs(writes, 99.9)
	return ws
}

// pctUs is the nearest-rank percentile of ascending nanosecond samples, in
// microseconds; 0 for no samples.
func pctUs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * p / 100)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1000
}

// medianOf returns the median of the windows' values of one field,
// skipping windows in which it is 0: the window had no such operation.
func medianOf(ws []windowStats, field func(windowStats) float64) float64 {
	var vals []float64
	for _, w := range ws {
		if v := field(w); v != 0 {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
