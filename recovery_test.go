package draid_test

import (
	"bytes"
	"testing"
	"time"

	"draid"
)

// recoveryArray builds a small array with one hot spare and automatic
// failure detection on.
func recoveryArray(t *testing.T, seed int64, observe bool) *draid.Array {
	t.Helper()
	return smallArray(t, draid.Config{
		Drives:        5,
		ChunkSize:     64 << 10,
		DriveCapacity: 4 << 20,
		Spares:        1,
		Health: draid.HealthConfig{
			Detect:         true,
			HeartbeatEvery: time.Millisecond,
		},
		RebuildRateMBps: 400,
		Seed:            seed,
		Observe:         draid.Observe{Trace: observe},
	})
}

// TestAutoRecovery is the public-API recovery proof: a drive crashes with NO
// SetFailed call, the array detects it via heartbeats, rebuilds onto the hot
// spare, and the full device reads back byte-exact.
func TestAutoRecovery(t *testing.T) {
	arr := recoveryArray(t, 3, false)
	ref := randBytes(21, int(arr.Size()))
	const step = 1 << 20
	for off := 0; off < len(ref); off += step {
		if err := arr.WriteSync(int64(off), ref[off:off+step]); err != nil {
			t.Fatalf("seed write at %d: %v", off, err)
		}
	}

	arr.CrashDrive(2) // fail-stop: the controller is not told
	if h := arr.MemberHealth(); h[2] != draid.Healthy {
		t.Fatalf("member 2 = %v before detection window, want healthy", h[2])
	}
	arr.RunFor(5 * time.Millisecond) // heartbeats notice and escalate
	arr.Run()                        // the launched rebuild drains

	if got := arr.FailedDrives(); len(got) != 0 {
		t.Fatalf("failed drives after auto-recovery = %v, want none", got)
	}
	if got := arr.SparesAvailable(); got != 0 {
		t.Fatalf("spares = %d, want 0 (consumed by rebuild)", got)
	}
	if st := arr.RebuildStatus(); st.Active {
		t.Fatalf("rebuild still active: %+v", st)
	}
	if h := arr.MemberHealth(); h[2] != draid.Healthy {
		t.Fatalf("member 2 = %v after rebuild, want healthy (served by spare)", h[2])
	}
	kinds := map[string]int{}
	for _, e := range arr.RecoveryEvents() {
		kinds[e.Kind]++
	}
	for _, want := range []string{"failed", "rebuild-start", "rebuild-done"} {
		if kinds[want] != 1 {
			t.Fatalf("recovery log %v: want exactly one %q event", arr.RecoveryEvents(), want)
		}
	}

	got, err := arr.ReadSync(0, arr.Size())
	if err != nil {
		t.Fatalf("full read after recovery: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("device image diverged after automatic recovery")
	}
}

// TestFailoverHost crashes the controller mid-write through the public API:
// the replacement resyncs exactly the write-intent-dirty stripes and resumes
// service.
func TestFailoverHost(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 5, DriveCapacity: 4 << 20, Seed: 5})
	stripeBytes := int64(4) * (64 << 10)
	base := randBytes(31, int(4*stripeBytes))
	if err := arr.WriteSync(0, base); err != nil {
		t.Fatal(err)
	}

	// In-flight writes at crash time: callbacks will be abandoned.
	arr.Write(0, randBytes(32, int(stripeBytes)), func(error) {})
	arr.Write(2*stripeBytes, randBytes(33, int(stripeBytes)), func(error) {})
	arr.RunFor(20 * time.Microsecond)

	resynced, err := arr.FailoverHost()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if resynced == 0 {
		t.Fatal("failover resynced nothing; expected dirty stripes from the in-flight writes")
	}
	if got := arr.Stats().Resyncs; got != int64(resynced) {
		t.Fatalf("stats resyncs = %d, want %d", got, resynced)
	}

	// Service resumes on the replacement controller.
	fresh := randBytes(34, int(stripeBytes))
	if err := arr.WriteSync(0, fresh); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	got, err := arr.ReadSync(0, stripeBytes)
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("post-failover roundtrip: %v", err)
	}
}

// TestRecoveryTraceDeterminism: the whole detection→rebuild pipeline runs in
// virtual time, so two same-seed recovery runs emit byte-identical traces.
func TestRecoveryTraceDeterminism(t *testing.T) {
	run := func() []byte {
		arr := recoveryArray(t, 9, true)
		data := randBytes(41, 256<<10)
		if err := arr.WriteSync(0, data); err != nil {
			t.Fatal(err)
		}
		arr.CrashDrive(1)
		arr.RunFor(5 * time.Millisecond)
		arr.Run()
		if got := arr.FailedDrives(); len(got) != 0 {
			t.Fatalf("recovery incomplete: failed = %v", got)
		}
		var buf bytes.Buffer
		if err := arr.Trace().WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed recovery runs produced different traces")
	}
	for _, want := range []string{"rebuild", "heartbeat"} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("recovery trace missing %q", want)
		}
	}
}

// TestRebuildDriveOneEngine: a manual RebuildDrive on a supervised array
// runs on the supervisor's rebuild engine, so the supervisor's own deferred
// reaction to the same failure neither panics nor rebuilds the member a
// second time — not then, and not when a later failure wakes its queue.
func TestRebuildDriveOneEngine(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            draid.Config
		victim, second int
	}{
		{"fixed", draid.Config{Drives: 5, Spares: 1}, 2, 0},
		{"declustered", draid.Config{Drives: 4, Declustered: true, ClusterDrives: 8,
			Health: draid.HealthConfig{Detect: true, HeartbeatEvery: time.Millisecond}}, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.DriveCapacity = 4 << 20
			arr := smallArray(t, tc.cfg)
			model := randBytes(51, int(arr.Size()))
			if err := arr.WriteSync(0, model); err != nil {
				t.Fatal(err)
			}
			count := func(kind string) int {
				n := 0
				for _, e := range arr.RecoveryEvents() {
					if e.Kind == kind && e.Member == tc.victim {
						n++
					}
				}
				return n
			}

			arr.FailDrive(tc.victim)
			if err := arr.RebuildDrive(tc.victim); err != nil {
				t.Fatalf("RebuildDrive: %v", err)
			}
			if s, d := count("rebuild-start"), count("rebuild-done"); s != 1 || d != 1 {
				t.Fatalf("rebuild-start/done for m%d = %d/%d, want 1/1: %v", tc.victim, s, d, arr.RecoveryEvents())
			}
			if !tc.cfg.Declustered {
				if got := arr.FailedDrives(); len(got) != 0 {
					t.Fatalf("failed drives after rebuild = %v, want none", got)
				}
				if h := arr.MemberHealth()[tc.victim]; h != draid.Healthy {
					t.Fatalf("member %d = %v after rebuild, want healthy", tc.victim, h)
				}
			}

			arr.FailDrive(tc.second)
			arr.Run()
			if s := count("rebuild-start"); s != 1 {
				t.Fatalf("m%d rebuilt %d times after a second failure: %v", tc.victim, s, arr.RecoveryEvents())
			}
			got, err := arr.ReadSync(0, arr.Size())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model) {
				t.Fatal("device image diverged")
			}
		})
	}
}
