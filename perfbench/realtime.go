package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"draid"
	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/core"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/raid"
)

// stack is an assembled realtime array, reached either through draid.Array
// (untraced) or through the hand-built, decorated stack (traced).
type stack struct {
	dev     device
	call    func(func()) // runs fn on the host loop and waits for it
	drain   func()       // waits until no protocol work is outstanding
	traffic func() (out, in int64)
	reset   func()
	stats   func() core.Stats
	drives  []backend.Drive
	fail    func(member int)
	size    int64
	close   func() error
}

// arrayDev adapts draid.Array's byte-slice I/O to the generator.
type arrayDev struct{ arr *draid.Array }

func (d arrayDev) Read(off, n int64, cb func(parity.Buffer, error)) {
	d.arr.Read(off, n, func(b []byte, err error) { cb(parity.FromBytes(b), err) })
}

func (d arrayDev) Write(off int64, b parity.Buffer, cb func(error)) {
	d.arr.Write(off, b.Data(), cb)
}

// assembleArray builds the array the way users do, through draid.New.
func assembleArray(w workload, seed int64) (*stack, error) {
	arr, err := draid.New(arrayConfig(w, seed))
	if err != nil {
		return nil, err
	}
	cl := arr.Cluster()
	return &stack{
		dev: arrayDev{arr}, call: cl.Rt.Call, drain: arr.Run,
		traffic: arr.HostTraffic, reset: arr.ResetTraffic, stats: arr.Stats,
		drives: cl.Drives, fail: arr.FailDrive, size: arr.Size(), close: arr.Close,
	}, nil
}

// assembleTraced builds the same realtime stack by hand, from the exported
// constructors and configuration cluster.NewRealtime and draid.New use, with
// the tracer's decorators around the transport, every drive and every
// node's executor.
func assembleTraced(w workload, seed int64, tr *tracer) (*stack, error) {
	bed := realtime.NewBed(seed, members)
	var inner backend.Transport
	closeTransport := func() error { return nil }
	if w.tcp {
		t, err := realtime.NewTCPTransport(bed, members)
		if err != nil {
			bed.Close()
			return nil, err
		}
		inner, closeTransport = t, t.Close
	} else {
		inner = realtime.NewChanTransport(bed, members)
	}
	fab := tr.transport(inner)
	costs := cpu.DefaultCosts()
	drives := make([]backend.Drive, members)
	for i := range drives {
		id := backend.NodeID(i)
		rt := bed.NodeRuntime(id)
		drives[i] = realtime.NewMemDrive(rt, rtDriveCapacity, true)
		core.NewServer(id, rt, fab, tr.drive(id, drives[i]), tr.executor(id, rt),
			core.ServerConfig{Costs: costs, Pipelined: true})
	}
	host := core.NewHost(tr.hostRuntime(bed), fab, rtDriveCapacity, core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: members, ChunkSize: chunkSize},
		Costs:    costs,
	})
	counters := inner.(backend.Traffic)
	return &stack{
		dev:  tracedDev{post: bed.Defer, host: host, n: tr.node(backend.HostID)},
		call: bed.Call, drain: bed.Run,
		traffic: counters.HostBytes, reset: counters.ResetTraffic,
		stats: func() (st core.Stats) {
			bed.Call(func() { st = host.Stats() })
			return st
		},
		drives: drives,
		fail: func(m int) {
			fab.SetDown(backend.NodeID(m), true)
			drives[m].Fail()
			bed.Call(func() { host.SetFailed(m, true) })
		},
		size: host.Size(),
		close: func() error {
			closeTransport()
			return bed.Close()
		},
	}, nil
}

// overDevice runs fn over [0, st.size) in pieces of n bytes, four at a time,
// from the host loop. fn issues one piece and calls done when it completes.
func overDevice(st *stack, n int64, fn func(off int64, done func())) error {
	const depth = 4
	finished := make(chan struct{})
	var next int64
	inflight, closed := 0, false
	var step func()
	step = func() {
		for inflight < depth && next < st.size {
			off := next
			next += n
			inflight++
			fn(off, func() {
				inflight--
				step()
			})
		}
		if inflight == 0 && next >= st.size && !closed {
			closed = true
			close(finished)
		}
	}
	st.call(step)
	select {
	case <-finished:
		return nil
	case <-time.After(2 * time.Minute):
		return errors.New("device pass did not complete")
	}
}

// prefill writes every block's prefill payload with full-stripe writes.
func prefill(st *stack, p *pool, seed, io int64) error {
	stripe := int64(chunkSize * (members - 1))
	var free [][]byte
	var firstErr error
	err := overDevice(st, stripe, func(off int64, done func()) {
		var buf []byte
		if len(free) > 0 {
			buf, free = free[len(free)-1], free[:len(free)-1]
		} else {
			buf = make([]byte, stripe)
		}
		for b := off / io; b < (off+stripe)/io; b++ {
			copy(buf[b*io-off:], p.bufs[prefillPayload(seed, b, len(p.bufs))].Data())
		}
		st.dev.Write(off, parity.FromBytes(buf), func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			free = append(free, buf)
			done()
		})
	})
	if err != nil {
		return err
	}
	return firstErr
}

// sweep reads the whole device back after the window and checks every block
// against the generator's record. It returns reads attempted and failed.
func sweep(st *stack, g *gen) (attempted, failed int64, err error) {
	n := max(g.io, chunkSize)
	err = overDevice(st, n, func(off int64, done func()) {
		attempted++
		st.dev.Read(off, n, func(b parity.Buffer, rerr error) {
			bad := rerr != nil
			for i := int64(0); !bad && i < n/g.io; i++ {
				want := g.acked[off/g.io+i]
				got := b.Data()[i*g.io : (i+1)*g.io]
				bad = want >= 0 && !bytes.Equal(got, g.pool.bufs[want].Data())
			}
			if bad {
				failed++
			}
			done()
		})
	})
	return attempted, failed, err
}

// counters are the cumulative figures a phase reads at its window edges.
type counters struct {
	stats                 core.Stats
	driveRead, driveWrite int64
	alloc, mallocs        uint64
	gcs                   uint32
	cpuNs                 int64
}

func readCounters(st *stack) counters {
	var c counters
	if st != nil {
		c.stats = st.stats()
		for _, d := range st.drives {
			s := d.Stats()
			c.driveRead += s.ReadBytes
			c.driveWrite += s.WriteBytes
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.mallocs, c.gcs = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

// plus returns c + sign·o over the fields metrics use: sign −1 turns two
// readings into a window delta, +1 sums the deltas of several windows.
func (c counters) plus(o counters, sign int64) counters {
	s, t := &c.stats, o.stats
	s.Reads += sign * t.Reads
	s.Writes += sign * t.Writes
	s.RMWWrites += sign * t.RMWWrites
	s.RCWWrites += sign * t.RCWWrites
	s.FullStripeWrites += sign * t.FullStripeWrites
	s.Reconstructions += sign * t.Reconstructions
	s.Timeouts += sign * t.Timeouts
	s.Retries += sign * t.Retries
	s.QueuedStripeWaits += sign * t.QueuedStripeWaits
	c.driveRead += sign * o.driveRead
	c.driveWrite += sign * o.driveWrite
	c.alloc += uint64(sign) * o.alloc
	c.mallocs += uint64(sign) * o.mallocs
	c.gcs += uint32(sign) * o.gcs
	c.cpuNs += sign * o.cpuNs
	return c
}

// setupTime is one assembly plus prefill.
type setupTime struct{ assemble, prefill float64 }

// phase is one measured window on one assembled array.
type phase struct {
	rec      *recorder
	sliceSec []float64 // wall seconds each slice covers
	windowNs int64
	setups   []setupTime
	traffic  int64 // host NIC bytes, out + in, over the window
	// peakMB is the process's peak resident memory when the window ended,
	// before the read-back check.
	peakMB float64
	delta  counters
	// Operations of the ramp, the window and the read-back sweep.
	attempted, failed, mismatches int64
	poolIntact                    bool
	// Virtual results, simulator only.
	virt []simResult
	// Events the simulator processed in its measurement windows.
	events int64
}

// windowPlan splits a measurement of the given length into a ramp and
// one-second slices.
func windowPlan(seconds float64) (ramp, slice int64, n int) {
	window := int64(seconds * 1e9)
	ramp = min(int64(500*time.Millisecond), window/4)
	n = max(1, int((window+5e8)/1e9))
	return ramp, window / int64(n), n
}

// runRealtime assembles the array setups times (each assembly prefilled;
// the last one is measured), runs the closed loop for a ramp plus the
// window, then reads the device back. tr selects the traced stack.
func runRealtime(w workload, seed int64, seconds float64, setups int, tr *tracer) (*phase, error) {
	p := newPool(rand.New(rand.NewSource(seed)), w.ioSize, false)
	ph := &phase{}
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := nanotime()
		var err error
		if tr != nil {
			st, err = assembleTraced(w, seed, tr)
		} else {
			st, err = assembleArray(w, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("assemble: %w", err)
		}
		t1 := nanotime()
		if err := prefill(st, p, seed, w.ioSize); err != nil {
			st.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
		ph.setups = append(ph.setups, setupTime{float64(t1-t0) / 1e9, float64(nanotime()-t1) / 1e9})
	}
	defer st.close()
	if w.failMember >= 0 {
		st.fail(w.failMember)
	}
	runtime.GC()

	ramp, slice, n := windowPlan(seconds)
	g := newGen(st.dev, p, true, w, seed, st.size/w.ioSize)
	g.now = nanotime
	start := nanotime() + ramp
	g.stopAt = start + slice*int64(n)
	g.rec = newRecorder(start, slice, n, false)
	ph.rec, ph.windowNs = g.rec, g.stopAt-start
	for range n {
		ph.sliceSec = append(ph.sliceSec, float64(slice)/1e9)
	}
	st.call(g.fill)

	sleepUntil(start)
	st.reset()
	c0 := readCounters(st)
	if tr != nil {
		tr.start(start)
	}
	sleepUntil(g.stopAt)
	if tr != nil {
		tr.stop(g.stopAt)
	}
	out, in := st.traffic()
	ph.traffic = out + in
	ph.delta = readCounters(st).plus(c0, -1)
	ph.peakMB = peakRSS()

	select {
	case <-g.idle:
	case <-time.After(time.Minute):
		return nil, errors.New("closed loop did not drain")
	}
	st.drain()
	sa, sf, err := sweep(st, g)
	if err != nil {
		return nil, err
	}
	ph.attempted, ph.failed, ph.mismatches = g.attempted+sa, g.failed+sf, g.mismatches+sf
	ph.poolIntact = p.intact()
	return ph, nil
}

func sleepUntil(t int64) {
	if d := t - nanotime(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
