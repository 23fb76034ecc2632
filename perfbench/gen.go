package main

import (
	"bytes"
	"hash/crc64"
	"math/rand"
	"sort"
	"time"

	"draid/internal/parity"
)

// base anchors every timestamp the benchmark takes: the generator's clock,
// latencies and span times are nanoseconds since base (monotonic).
var base = time.Now()

func nanotime() int64 { return int64(time.Since(base)) }

// device is the I/O surface the generator drives: the dRAID host
// controller's Read/Write, reached through draid.Array, directly, or through
// the timing decorators of a traced run.
type device interface {
	Read(off, n int64, cb func(parity.Buffer, error))
	Write(off int64, b parity.Buffer, cb func(error))
}

// pool is the fixed set of random payloads every write (and the prefill)
// draws from. Its checksum is taken at creation and checked again at exit,
// which catches any data path that writes into a caller's buffer.
type pool struct {
	bufs []parity.Buffer
	sum  uint64
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// newPool draws poolBytes of random payloads of size io from rng; with
// sizeOnly it holds one elided buffer (the simulator moves sizes only).
func newPool(rng *rand.Rand, io int64, sizeOnly bool) *pool {
	if sizeOnly {
		return &pool{bufs: []parity.Buffer{parity.Sized(int(io))}}
	}
	p := &pool{bufs: make([]parity.Buffer, poolBytes/io)}
	for i := range p.bufs {
		b := make([]byte, io)
		rng.Read(b)
		p.bufs[i] = parity.FromBytes(b)
	}
	p.sum = p.checksum()
	return p
}

func (p *pool) checksum() uint64 {
	var sum uint64
	for _, b := range p.bufs {
		sum = crc64.Update(sum, crcTable, b.Data())
	}
	return sum
}

func (p *pool) intact() bool { return p.checksum() == p.sum }

// prefillPayload is the pool payload block b holds after prefill.
func prefillPayload(seed, b int64, poolSize int) int32 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(b)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int32(x % uint64(poolSize))
}

// op is one generated I/O: a read of a block, or a write of a pool payload
// to it.
type op struct {
	read    bool
	block   int64
	payload int32
}

// gen is a closed-loop load generator with read verification. It keeps qd
// operations in flight and runs entirely in the device's callbacks (the
// host loop on realtime, the engine on the simulator), so it needs no
// goroutine or lock of its own.
//
// Operations are drawn from the seeded rng as one sequence. No two
// operations are ever in flight on one block: an operation whose block is
// busy waits (parked, in sequence order) until the block frees. So every
// block sees its operations in sequence order, and every read can be
// checked against the last acknowledged write to its block, or against the
// prefill payload.
type gen struct {
	dev      device
	pool     *pool
	verify   bool
	io       int64
	readFrac float64
	qd       int
	rng      *rand.Rand
	// now is the clock stopAt is on: wall time on realtime, virtual time on
	// the simulator. Latencies are always wall time.
	now    func() int64
	stopAt int64
	rec    *recorder
	// idle is closed once the loop has stopped and drained.
	idle    chan struct{}
	drained bool

	seq      []int32 // payload each block holds once its drawn ops ran
	acked    []int32 // payload after the last acknowledged write; -1 unknown
	busy     []bool
	parked   map[int64][]op
	inflight int

	attempted, failed, mismatches int64
}

// newGen builds the generator for a device of blocks io-sized blocks,
// prefilled with seed's pattern; its operation sequence is drawn from seed
// too (a different stream than the pool's).
func newGen(dev device, p *pool, verify bool, w workload, seed int64, blocks int64) *gen {
	g := &gen{
		dev: dev, pool: p, verify: verify, io: w.ioSize, readFrac: w.readFrac, qd: w.qd,
		rng:    rand.New(rand.NewSource(^seed)),
		idle:   make(chan struct{}),
		seq:    make([]int32, blocks),
		acked:  make([]int32, blocks),
		busy:   make([]bool, blocks),
		parked: make(map[int64][]op),
	}
	for b := range g.seq {
		g.seq[b] = prefillPayload(seed, int64(b), len(p.bufs))
	}
	copy(g.acked, g.seq)
	return g
}

// next draws the next operation of the sequence. A write never rewrites the
// payload its block already holds, so a lost write cannot go unnoticed.
func (g *gen) next() op {
	o := op{block: g.rng.Int63n(int64(len(g.seq)))}
	if g.rng.Float64() < g.readFrac {
		o.read = true
		return o
	}
	n := int32(len(g.pool.bufs))
	o.payload = g.rng.Int31n(n)
	if n > 1 && o.payload == g.seq[o.block] {
		o.payload = (o.payload + 1) % n
	}
	g.seq[o.block] = o.payload
	return o
}

func (g *gen) stopped() bool { return g.now() >= g.stopAt }

// fill tops the loop up to qd operations in flight.
func (g *gen) fill() {
	for g.inflight < g.qd && !g.stopped() {
		o := g.next()
		if g.busy[o.block] {
			g.parked[o.block] = append(g.parked[o.block], o)
			continue
		}
		g.issue(o)
	}
	g.checkIdle()
}

func (g *gen) checkIdle() {
	if g.inflight == 0 && !g.drained && g.stopped() {
		g.drained = true
		close(g.idle)
	}
}

func (g *gen) issue(o op) {
	g.busy[o.block] = true
	g.inflight++
	g.attempted++
	issued, vIssued := nanotime(), g.now()
	off := o.block * g.io
	if o.read {
		g.dev.Read(off, g.io, func(b parity.Buffer, err error) {
			g.done(o, issued, vIssued, err, b)
		})
		return
	}
	g.dev.Write(off, g.pool.bufs[o.payload], func(err error) {
		g.done(o, issued, vIssued, err, parity.Buffer{})
	})
}

func (g *gen) done(o op, issued, vIssued int64, err error, b parity.Buffer) {
	lat := nanotime() - issued
	ok := err == nil
	switch {
	case o.read && ok && g.verify:
		if want := g.acked[o.block]; want >= 0 && !bytes.Equal(b.Data(), g.pool.bufs[want].Data()) {
			g.mismatches++
			ok = false
		}
	case !o.read && ok:
		g.acked[o.block] = o.payload
	case !o.read:
		g.acked[o.block] = -1 // the block's content is unknown after a failed write
	}
	if ok {
		at := g.now()
		g.rec.add(at, o.read, g.io, lat, at-vIssued)
	} else {
		g.failed++
	}
	g.busy[o.block] = false
	g.inflight--
	if q := g.parked[o.block]; len(q) > 0 && !g.stopped() {
		if len(q) == 1 {
			delete(g.parked, o.block)
		} else {
			g.parked[o.block] = q[1:]
		}
		g.issue(q[0])
	}
	g.fill()
}

// recorder buckets completions into equal slices of the measurement window
// by completion time, so each slice yields its own goodput and percentiles.
type recorder struct {
	start, slice int64
	virtual      bool // also keep latencies on the generator's clock
	slices       []sliceRec
}

type sliceRec struct {
	bytes         int64
	reads, writes []int64 // wall latencies, ns
	virt          []int64 // latencies on the generator's clock (simulator only)
}

func newRecorder(start, sliceLen int64, n int, virtual bool) *recorder {
	return &recorder{start: start, slice: sliceLen, virtual: virtual, slices: make([]sliceRec, n)}
}

func (r *recorder) add(at int64, read bool, n, lat, vlat int64) {
	if at < r.start {
		return
	}
	k := (at - r.start) / r.slice
	if k >= int64(len(r.slices)) {
		return
	}
	s := &r.slices[k]
	s.bytes += n
	if read {
		s.reads = append(s.reads, lat)
	} else {
		s.writes = append(s.writes, lat)
	}
	if r.virtual {
		s.virt = append(s.virt, vlat)
	}
}

// totals sums bytes and operations over the window.
func (r *recorder) totals() (bytes, ops int64) {
	for _, s := range r.slices {
		bytes += s.bytes
		ops += int64(len(s.reads) + len(s.writes))
	}
	return bytes, ops
}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sorted(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
