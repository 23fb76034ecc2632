package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"draid"
	"draid/internal/backend"
	"draid/internal/sim"
)

// simResult is what one simulated window computes. It is a function of the
// seed and the model alone, so every window of a run must reproduce it, and
// the window at pinnedSeed must reproduce pinned_sim.json exactly: a change
// that makes the simulator faster must not change its answer.
type simResult struct {
	Reads, Writes         int64
	UserBytes             int64
	VirtualMBps           float64
	P50ns, P99ns          int64
	HostOut, HostIn       int64
	DriveRead, DriveWrite int64
	EventsPerOp           float64
}

//go:embed pinned_sim.json
var pinnedJSON []byte

type pinned struct {
	Seed   int64     `json:"seed"`
	Result simResult `json:"result"`
}

// runSim simulates fixed virtual windows, each on a freshly assembled array,
// until seconds of wall time have passed (at least three windows), then
// checks the window at pinnedSeed against pinned_sim.json. Each window is
// one slice: its goodput is simulated user bytes per wall second spent
// simulating the measured part.
func runSim(w workload, seed int64, seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{rec: &recorder{}, poolIntact: true}
	deadline := nanotime() + int64(seconds*1e9)
	for len(ph.virt) < 3 || nanotime() < deadline {
		res, err := simWindow(w, seed, tr, ph)
		if err != nil {
			return nil, err
		}
		ph.virt = append(ph.virt, res)
	}
	ph.peakMB = peakRSS()
	var pin pinned
	if err := json.Unmarshal(pinnedJSON, &pin); err != nil {
		return nil, fmt.Errorf("pinned_sim.json: %w", err)
	}
	res, err := simWindow(w, pin.Seed, nil, &phase{rec: &recorder{}})
	if err != nil {
		return nil, err
	}
	ph.virt = append(ph.virt, res)
	for i, r := range ph.virt[:len(ph.virt)-1] {
		if r != ph.virt[0] {
			ph.failed++
			fmt.Printf("  window %d of seed %d differs from window 0: %+v vs %+v\n", i, seed, r, ph.virt[0])
		}
	}
	if res != pin.Result {
		ph.failed++
		fmt.Printf("  seed %d no longer gives its pinned virtual results:\n    got  %+v\n    want %+v\n", pin.Seed, res, pin.Result)
	}
	return ph, nil
}

// simWindow assembles one simulated array and runs the closed loop over a
// ramp plus the measured window, adding its slice and counters to ph.
func simWindow(w workload, seed int64, tr *tracer, ph *phase) (simResult, error) {
	t0 := nanotime()
	arr, err := draid.New(arrayConfig(w, seed))
	if err != nil {
		return simResult{}, err
	}
	ph.setups = append(ph.setups, setupTime{assemble: float64(nanotime()-t0) / 1e9})
	host, cl := arr.Controller(), arr.Cluster()
	eng := cl.Eng
	st := &stack{stats: arr.Stats, drives: cl.Drives}

	var dev device = host
	if tr != nil {
		dev = tracedDev{post: func(fn func()) { fn() }, host: host, n: tr.node(backend.HostID)}
	}
	g := newGen(dev, newPool(nil, w.ioSize, true), false, w, seed, host.Size()/w.ioSize)
	g.now = func() int64 { return int64(eng.Now()) }
	start := int64(eng.Now()) + int64(simRamp)
	g.stopAt = start + int64(simMeasure)
	g.rec = newRecorder(start, int64(simMeasure), 1, true)
	g.fill()
	eng.RunUntil(sim.Time(start))

	arr.ResetTraffic()
	c0 := readCounters(st)
	e0 := eng.Processed()
	w0 := nanotime()
	if tr != nil {
		tr.start(w0)
	}
	eng.RunUntil(sim.Time(g.stopAt))
	w1 := nanotime()
	if tr != nil {
		tr.stop(w1)
	}
	events := int64(eng.Processed() - e0)
	out, in := arr.HostTraffic()
	d := readCounters(st).plus(c0, -1)

	s := g.rec.slices[0]
	ops := int64(len(s.reads) + len(s.writes))
	if ops == 0 {
		return simResult{}, fmt.Errorf("simulated window completed no operations")
	}
	virt := sorted(s.virt)
	res := simResult{
		Reads: int64(len(s.reads)), Writes: int64(len(s.writes)), UserBytes: s.bytes,
		VirtualMBps: float64(s.bytes) / 1e6 / simMeasure.Seconds(),
		P50ns:       percentile(virt, 0.5), P99ns: percentile(virt, 0.99),
		HostOut: out, HostIn: in, DriveRead: d.driveRead, DriveWrite: d.driveWrite,
		EventsPerOp: float64(events) / float64(ops),
	}
	s.virt = nil
	ph.rec.slices = append(ph.rec.slices, s)
	ph.sliceSec = append(ph.sliceSec, float64(w1-w0)/1e9)
	ph.windowNs += w1 - w0
	ph.traffic += out + in
	ph.delta = ph.delta.plus(d, 1)
	ph.events += events
	ph.attempted += g.attempted
	ph.failed += g.failed
	return res, nil
}
