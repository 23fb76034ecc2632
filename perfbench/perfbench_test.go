package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite pinned_sim.json from the current simulator")

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload for a tiny window, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit and
// that the span file parses.
func TestSmoke(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		w, ok := lookup(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to perfbench", bw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			for _, traced := range []bool{false, true} {
				res, err := run(w, options{seed: 3, seconds: 0.6, trace: traced, spans: spans})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s printed as %+v (present %v), want unit %q", traced, m.Name, got, ok, m.Unit)
					}
				}
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Args struct{ ID, Parent uint64 }
				}
			}
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			ids := map[uint64]bool{}
			for _, e := range file.TraceEvents {
				if e.Ph == "X" {
					ids[e.Args.ID] = true
				}
			}
			if len(ids) == 0 {
				t.Fatal("span file holds no spans")
			}
		})
	}
}

// TestSeedHonoured checks that the seed alone fixes the inputs: the payload
// pool, the prefill pattern, the operation sequence and, on the simulator,
// the virtual results.
func TestSeedHonoured(t *testing.T) {
	w, _ := lookup("rt-mixed-4k")
	inputs := func(seed int64) (uint64, []op) {
		p := newPool(rand.New(rand.NewSource(seed)), w.ioSize, false)
		g := newGen(nil, p, true, w, seed, 1<<12)
		var ops []op
		for range 100 {
			ops = append(ops, g.next())
		}
		return p.sum ^ uint64(g.seq[7]), ops
	}
	sumA, opsA := inputs(11)
	sumB, opsB := inputs(11)
	sumC, opsC := inputs(12)
	if sumA != sumB || !equalOps(opsA, opsB) {
		t.Error("the same seed gave different inputs")
	}
	if sumA == sumC || equalOps(opsA, opsC) {
		t.Error("different seeds gave the same inputs")
	}

	sw, _ := lookup("sim-mixed-128k")
	window := func(seed int64) simResult {
		r, err := simWindow(sw, seed, nil, &phase{rec: &recorder{}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := window(5), window(5); a != b {
		t.Errorf("seed 5 simulated twice: %+v vs %+v", a, b)
	}
	if a, c := window(5), window(6); a == c {
		t.Error("seeds 5 and 6 simulated the same window")
	}
}

func equalOps(a, b []op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestFlippedByteReported injects a one-byte flip into every drive read
// through the drive decorator and checks that the benchmark reports it.
func TestFlippedByteReported(t *testing.T) {
	w, _ := lookup("rt-mixed-4k")
	tr := newTracer(members)
	tr.flipReads = true
	ph, err := runRealtime(w, 1, 0.4, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ph.mismatches == 0 || ph.failed == 0 {
		t.Fatalf("flipped reads went unnoticed: %d mismatches, %d failed", ph.mismatches, ph.failed)
	}
	r := result{Correct: true}
	r.account(ph)
	if r.Correct {
		t.Fatal("result reported correct despite read mismatches")
	}
}

// TestSimPinned checks the simulator's virtual results at pinnedSeed against
// pinned_sim.json; -update rewrites the file.
func TestSimPinned(t *testing.T) {
	w, _ := lookup("sim-mixed-128k")
	got, err := simWindow(w, pinnedSeed, nil, &phase{rec: &recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		raw, err := json.MarshalIndent(pinned{Seed: pinnedSeed, Result: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pinned_sim.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want pinned
	if err := json.Unmarshal(pinnedJSON, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != pinnedSeed || got != want.Result {
		t.Fatalf("seed %d gives %+v, pinned %+v (seed %d)", pinnedSeed, got, want.Result, want.Seed)
	}
}
