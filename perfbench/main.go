// Command perfbench is the repository's benchmark. It runs one named
// workload against the dRAID array, checks every byte it reads back, and
// prints the workload's metrics by name and unit; the last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on an array
// assembled through draid.New. With --trace 1 they are the per-layer ones:
// the window is split between that untraced array and a hand-built copy of
// the same stack whose layers are wrapped by the timing decorators in
// tracing.go; the spans go to the --spans file.
//
// It exits non-zero on a read mismatch, a failed operation, a corrupted
// payload pool, or a change to the simulator's pinned virtual results.
// perfbench/run.py builds it and runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"

	"draid/internal/backend"
	"draid/internal/hist"
	"draid/internal/nvmeof"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measurement, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (Chrome trace-event JSON)")
	flag.Parse()
	w, ok := lookup(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// run executes one workload and returns its result, printing the report
// lines as it goes.
func run(w workload, o options) (result, error) {
	fmt.Printf("workload %s: %s; seed %d, %.3g s\n", w.name, w.shape, o.seed, o.seconds)
	r := result{Correct: true, Metrics: map[string]metric{}}
	if !o.trace {
		ph, err := measure(w, o.seed, o.seconds, 3, nil)
		if err != nil {
			return r, err
		}
		r.account(ph)
		r.endToEnd(w, ph)
		return r, nil
	}

	un, err := measure(w, o.seed, o.seconds/2, 1, nil)
	if err != nil {
		return r, err
	}
	tr := newTracer(members)
	tp, err := measure(w, o.seed, o.seconds/2, 1, tr)
	if err != nil {
		return r, err
	}
	r.account(un)
	r.account(tp)
	r.perLayer(un, tp, tr)
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return r, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("  spans written to %s\n", o.spans)
	}
	return r, nil
}

// measure runs one phase of the workload: setups assemblies on realtime
// (the last one measured), or simulated windows for seconds on the sim.
func measure(w workload, seed int64, seconds float64, setups int, tr *tracer) (*phase, error) {
	if w.sim {
		return runSim(w, seed, seconds, tr)
	}
	return runRealtime(w, seed, seconds, setups, tr)
}

// account folds a phase's operation counts and checks into the result.
func (r *result) account(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	if ph.failed > 0 {
		r.Correct = false
	}
	if ph.mismatches > 0 {
		fmt.Printf("  %d reads returned bytes other than the last acknowledged write\n", ph.mismatches)
	}
	if !ph.poolIntact {
		r.Correct = false
		fmt.Println("  the payload pool changed during the run: a data path wrote into a caller's buffer")
	}
}

func (r *result) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	unit := ""
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				unit = d.unit
			}
		}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	report(name, v, unit, note)
}

func report(name string, v float64, unit, note string) {
	fmt.Printf("  %-40s %14.4f %-8s %s\n", name, v, unit, note)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceFigures returns each slice's goodput (MB/s) and p50/p99 latency (µs).
func sliceFigures(ph *phase) (goodput, p50, p99 []float64) {
	for i, s := range ph.rec.slices {
		lat := sorted(s.reads, s.writes)
		goodput = append(goodput, float64(s.bytes)/1e6/ph.sliceSec[i])
		p50 = append(p50, float64(percentile(lat, 0.5))/1e3)
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
	}
	return goodput, p50, p99
}

func (r *result) endToEnd(w workload, ph *phase) {
	goodput, p50, p99 := sliceFigures(ph)
	userBytes, ops := ph.rec.totals()
	note := fmt.Sprintf("median of %d slices", len(goodput))
	r.set("goodput_MBps", median(goodput), note+fmt.Sprintf(", %.1f to %.1f", slices.Min(goodput), slices.Max(goodput)))
	note += fmt.Sprintf(", %d ops", ops)
	r.set("p50_us", median(p50), note)
	r.set("p99_us", median(p99), note)
	var reads, writes []int64
	for _, s := range ph.rec.slices {
		reads = append(reads, s.reads...)
		writes = append(writes, s.writes...)
	}
	for _, k := range []struct {
		name string
		lat  []int64
	}{{"read", sorted(reads)}, {"write", sorted(writes)}} {
		if len(k.lat) == 0 {
			continue
		}
		n := fmt.Sprintf("whole window, n=%d", len(k.lat))
		report(k.name+"_p50_us", float64(percentile(k.lat, 0.5))/1e3, "us", n)
		report(k.name+"_p99_us", float64(percentile(k.lat, 0.99))/1e3, "us", n)
	}
	report("op_error_frac", ratio(float64(ph.failed), float64(ph.attempted)), "frac",
		fmt.Sprintf("%d of %d operations (window, ramp and read-back)", ph.failed, ph.attempted))
	r.set("host_traffic_x", ratio(float64(ph.traffic), float64(userBytes)), "host NIC bytes out+in per user byte")
	r.set("drive_traffic_x", ratio(float64(ph.delta.driveRead+ph.delta.driveWrite), float64(userBytes)), "drive bytes read+written per user byte")
	var setup []float64
	for _, s := range ph.setups {
		setup = append(setup, s.assemble+s.prefill)
	}
	r.set("setup_s", median(setup), fmt.Sprintf("median of %d set-ups (assembly + prefill)", len(setup)))
	r.set("mem_peak_MB", ph.peakMB, "peak resident memory up to the end of the window")
	if w.sim {
		v := ph.virt[0]
		fmt.Printf("  virtual: %d reads %d writes, %.1f MB/s, p50 %d ns, p99 %d ns (pinned for seed %d)\n",
			v.Reads, v.Writes, v.VirtualMBps, v.P50ns, v.P99ns, pinnedSeed)
	}
}

func peakRSS() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

var opNames = []struct {
	name string
	op   nvmeof.Opcode
}{
	{"read", nvmeof.OpRead},
	{"write", nvmeof.OpWrite},
	{"partial_write", nvmeof.OpPartialWrite},
	{"parity", nvmeof.OpParity},
	{"peer", nvmeof.OpPeer},
	{"reconstruction", nvmeof.OpReconstruction},
	{"completion", nvmeof.OpCompletion},
}

// perLayer derives the per-layer metrics: counters and runtime figures from
// the untraced phase un, span figures from the traced phase tp.
func (r *result) perLayer(un, tp *phase, tr *tracer) {
	userBytes, ops := tp.rec.totals()
	fb, fo := float64(userBytes), float64(ops)
	host := tr.node(backend.HostID)
	servers := tr.nodes[1:]
	sum := func(nodes []*nodeTrace, f func(*nodeTrace) int64) float64 {
		var s int64
		for _, n := range nodes {
			s += f(n)
		}
		return float64(s)
	}

	r.set("core.host.submit_ns", ratio(float64(host.self[attrSubmit]), float64(host.calls[attrSubmit])), "self time per Read/Write call")
	r.set("core.host.complete_ns", ratio(float64(host.self[attrComplete]), float64(host.calls[attrComplete])), "self time per completion capsule")
	r.set("core.host.capsules_per_op", ratio(float64(host.calls[attrSend]+host.calls[attrComplete]), fo), "sent + received")
	st := un.delta.stats
	r.set("core.host.stripe_waits_per_write", ratio(float64(st.QueuedStripeWaits), float64(st.Writes)), "")
	mix := float64(st.RMWWrites + st.FullStripeWrites + st.RCWWrites)
	r.set("core.host.rmw_frac", ratio(float64(st.RMWWrites), mix), "")
	r.set("core.host.full_stripe_frac", ratio(float64(st.FullStripeWrites), mix), "")
	r.set("core.host.rcw_frac", ratio(float64(st.RCWWrites), mix), "")
	r.set("core.host.reconstructions_per_read", ratio(float64(st.Reconstructions), float64(st.Reads)), "")
	r.set("core.host.retries_per_op", ratio(float64(st.Retries), float64(st.Reads+st.Writes)), "")
	r.set("core.host.timeouts_per_op", ratio(float64(st.Timeouts), float64(st.Reads+st.Writes)), "")

	var handled float64
	for _, k := range opNames[:6] {
		a := attrOp + uint16(k.op)
		calls := sum(servers, func(n *nodeTrace) int64 { return n.calls[a] })
		handled += calls
		r.set("core.server.handle_ns."+k.name, ratio(sum(servers, func(n *nodeTrace) int64 { return n.self[a] }), calls),
			fmt.Sprintf("over %.0f capsules", calls))
	}
	var busiest int64
	for _, n := range servers {
		busiest = max(busiest, n.busy)
	}
	r.set("core.server.busy_frac_max", ratio(float64(busiest), float64(tr.windowNs)), "handlers, executor tasks and drive completions")
	r.set("core.server.capsules_per_op", ratio(handled, fo), "")

	sends := sum(tr.nodes, func(n *nodeTrace) int64 { return n.calls[attrSend] })
	r.set("fabric.send_ns", ratio(sum(tr.nodes, func(n *nodeTrace) int64 { return n.self[attrSend] }), sends), "")
	waits := hist.New()
	for _, n := range tr.nodes {
		waits.Merge(n.waits)
	}
	r.set("fabric.deliver_wait_us_p50", float64(waits.Quantile(0.5))/1e3, fmt.Sprintf("n=%d", waits.Count()))
	r.set("fabric.deliver_wait_us_p99", float64(waits.Quantile(0.99))/1e3, fmt.Sprintf("n=%d", waits.Count()))
	r.set("fabric.msgs_per_op", ratio(sends, fo), "")
	r.set("fabric.payload_bytes_per_user_byte", ratio(sum(tr.nodes, func(n *nodeTrace) int64 { return n.sentPayload }), fb), "")
	for _, k := range opNames {
		n := sum(tr.nodes, func(n *nodeTrace) int64 { return n.sentByOp[k.op] })
		b := sum(tr.nodes, func(n *nodeTrace) int64 { return n.sentBytes[k.op] })
		r.set("fabric.capsules_per_op."+k.name, ratio(n, fo), fmt.Sprintf("mean payload %.0f B", ratio(b, n)))
	}

	for i, k := range []string{"read", "write"} {
		n := sum(servers, func(n *nodeTrace) int64 { return n.driveOps[i] })
		r.set("drive."+k+"_service_us", ratio(sum(servers, func(n *nodeTrace) int64 { return n.driveNs[i] }), n)/1e3,
			fmt.Sprintf("call to callback, n=%.0f", n))
	}
	for i, k := range []string{"read", "write"} {
		r.set("drive."+k+"_bytes_per_user_byte", ratio(sum(servers, func(n *nodeTrace) int64 { return n.driveBytes[i] }), fb), "")
	}

	var sample []nvmeof.Command
	for _, n := range tr.nodes {
		sample = append(sample, n.sample...)
	}
	enc, dec, allocs := codecCost(sample, 400*time.Millisecond)
	capt := fmt.Sprintf("over %d captured capsules", len(sample))
	r.set("nvmeof.encode_ns", enc, capt)
	r.set("nvmeof.decode_ns", dec, capt)
	r.set("nvmeof.allocs_per_capsule", allocs, "one Encode plus one Decode")

	ub, uo := un.rec.totals()
	d := un.delta
	gb := float64(ub) / 1e9
	r.set("runtime.alloc_bytes_per_user_byte", ratio(float64(d.alloc), float64(ub)), "untraced window")
	r.set("runtime.allocs_per_op", ratio(float64(d.mallocs), float64(uo)), "untraced window")
	r.set("runtime.gc_cycles_per_GB", ratio(float64(d.gcs), gb), "untraced window")
	r.set("runtime.cpu_ms_per_GB", ratio(float64(d.cpuNs)/1e6, gb), "untraced window, user + system")

	r.set("sim.events_per_op", ratio(float64(un.events), float64(uo)), "")
	r.set("sim.ns_per_event", ratio(float64(un.windowNs), float64(un.events)), "")
	r.set("sim.alloc_bytes_per_event", ratio(float64(d.alloc), float64(un.events)), "")

	var asm, pre []float64
	for _, s := range un.setups {
		asm = append(asm, s.assemble)
		pre = append(pre, s.prefill)
	}
	r.set("setup.assemble_s", median(asm), "")
	r.set("setup.prefill_s", median(pre), "")

	gu, _, _ := sliceFigures(un)
	gt, _, _ := sliceFigures(tp)
	r.set("trace.overhead_frac", 1-ratio(median(gt), median(gu)),
		fmt.Sprintf("goodput %.1f MB/s traced vs %.1f untraced", median(gt), median(gu)))
	var dropped int64
	for _, n := range tr.nodes {
		dropped += n.dropped
	}
	fmt.Printf("  span file keeps the first %d spans per node; %d later spans counted but not kept\n", spansPerNode, dropped)
}
