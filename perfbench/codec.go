package main

import (
	"runtime"
	"time"

	"draid/internal/nvmeof"
)

// codecCost times nvmeof Encode and Decode over the capsules a traced run
// captured, so the mix of opcodes and sg-list lengths is the workload's own.
// It returns ns per Encode, ns per Decode and heap allocations per capsule
// for one Encode plus one Decode.
func codecCost(cmds []nvmeof.Command, budget time.Duration) (encNs, decNs, allocs float64) {
	if len(cmds) == 0 {
		return 0, 0, 0
	}
	wire := make([][]byte, len(cmds))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range cmds {
		wire[i] = cmds[i].Encode()
		if _, err := nvmeof.Decode(wire[i]); err != nil {
			panic(err) // the capsules were built by the protocol code itself
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(cmds))

	encNs = timeLoop(budget/2, len(cmds), func(i int) { wire[i] = cmds[i].Encode() })
	decNs = timeLoop(budget/2, len(cmds), func(i int) { _, _ = nvmeof.Decode(wire[i]) })
	return encNs, decNs, allocs
}

// timeLoop calls fn over 0..n-1 repeatedly for about budget and returns the
// mean ns per call.
func timeLoop(budget time.Duration, n int, fn func(int)) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
