package main

import (
	"time"

	"draid"
)

// Every workload runs RAID-5 over 8 members with 512 KiB chunks.
const (
	members   = 8
	chunkSize = 512 << 10
	// rtDriveCapacity sizes each realtime MemDrive: 8 × 32 MiB holds a
	// 224 MiB device, prefilled in well under a second.
	rtDriveCapacity = 32 << 20
	// simDriveCapacity spreads the simulated workload over 2048 stripes, so
	// its queue depth of 32 rarely meets a stripe lock.
	simDriveCapacity = 1 << 30
	// poolBytes is the size of the payload pool writes draw from.
	poolBytes = 16 << 20
)

// Simulated window: every sim run simulates this much virtual time per
// window, on a freshly assembled array.
const (
	simRamp    = 5 * time.Millisecond
	simMeasure = 40 * time.Millisecond
	// pinnedSeed is the seed whose virtual results pinned_sim.json holds.
	pinnedSeed = 1
)

// workload is one named traffic mix. BENCHMARK.json carries the reason each
// one exists; README.md maps which per-layer metric should move on which.
type workload struct {
	name     string
	shape    string
	sim      bool
	tcp      bool
	ioSize   int64
	readFrac float64
	qd       int
	// failMember is the member failed after prefill, or -1.
	failMember int
}

var workloads = []workload{
	{
		name: "rt-write-128k", ioSize: 128 << 10, qd: 8, failMember: -1,
		shape: "realtime, chan transport, 100% random 128 KiB writes, qd 8",
	},
	{
		name: "rt-mixed-4k", ioSize: 4 << 10, readFrac: 0.7, qd: 16, failMember: -1,
		shape: "realtime, chan transport, 70% reads / 30% writes of random 4 KiB, qd 16, whole device",
	},
	{
		name: "rt-degraded-read-128k-tcp", tcp: true, ioSize: 128 << 10, readFrac: 1, qd: 8, failMember: 2,
		shape: "realtime, loopback TCP transport, 100% random 128 KiB reads, qd 8, member 2 failed after prefill",
	},
	{
		name: "sim-mixed-128k", sim: true, ioSize: 128 << 10, readFrac: 0.5, qd: 32, failMember: -1,
		shape: "sim backend, size-only, 50/50 random 128 KiB, qd 32, 5 ms ramp + 40 ms virtual window per array",
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arrayConfig is the draid.Config the untraced runs assemble.
func arrayConfig(w workload, seed int64) draid.Config {
	cfg := draid.Config{Level: draid.Raid5, Drives: members, ChunkSize: chunkSize, Seed: seed}
	if w.sim {
		cfg.Backend = draid.BackendSim
		cfg.SizeOnly = true
		cfg.DriveCapacity = simDriveCapacity
	} else {
		cfg.Backend = draid.BackendRealtime
		cfg.Realtime.TCP = w.tcp
		cfg.DriveCapacity = rtDriveCapacity
	}
	return cfg
}

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"goodput_MBps", "MB/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"host_traffic_x", "x"},
	{"drive_traffic_x", "x"},
	{"setup_s", "s"},
	{"mem_peak_MB", "MB"},
}

var perLayer = []metricDef{
	{"core.host.submit_ns", "ns"},
	{"core.host.complete_ns", "ns"},
	{"core.host.capsules_per_op", "count"},
	{"core.host.stripe_waits_per_write", "count"},
	{"core.host.rmw_frac", "frac"},
	{"core.host.full_stripe_frac", "frac"},
	{"core.host.rcw_frac", "frac"},
	{"core.host.reconstructions_per_read", "count"},
	{"core.host.retries_per_op", "count"},
	{"core.host.timeouts_per_op", "count"},
	{"core.server.handle_ns.write", "ns"},
	{"core.server.handle_ns.read", "ns"},
	{"core.server.handle_ns.partial_write", "ns"},
	{"core.server.handle_ns.parity", "ns"},
	{"core.server.handle_ns.peer", "ns"},
	{"core.server.handle_ns.reconstruction", "ns"},
	{"core.server.busy_frac_max", "frac"},
	{"core.server.capsules_per_op", "count"},
	{"fabric.send_ns", "ns"},
	{"fabric.deliver_wait_us_p50", "us"},
	{"fabric.deliver_wait_us_p99", "us"},
	{"fabric.msgs_per_op", "count"},
	{"fabric.payload_bytes_per_user_byte", "x"},
	{"fabric.capsules_per_op.read", "count"},
	{"fabric.capsules_per_op.write", "count"},
	{"fabric.capsules_per_op.partial_write", "count"},
	{"fabric.capsules_per_op.parity", "count"},
	{"fabric.capsules_per_op.peer", "count"},
	{"fabric.capsules_per_op.reconstruction", "count"},
	{"fabric.capsules_per_op.completion", "count"},
	{"drive.read_service_us", "us"},
	{"drive.write_service_us", "us"},
	{"drive.read_bytes_per_user_byte", "x"},
	{"drive.write_bytes_per_user_byte", "x"},
	{"nvmeof.encode_ns", "ns"},
	{"nvmeof.decode_ns", "ns"},
	{"nvmeof.allocs_per_capsule", "count"},
	{"runtime.alloc_bytes_per_user_byte", "x"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_GB", "count/GB"},
	{"runtime.cpu_ms_per_GB", "ms/GB"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.alloc_bytes_per_event", "B"},
	{"setup.assemble_s", "s"},
	{"setup.prefill_s", "s"},
	{"trace.overhead_frac", "frac"},
}
