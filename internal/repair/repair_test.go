package repair_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/repair"
	"draid/internal/sim"
	"draid/internal/ssd"
)

const chunkSize = 64 << 10

// testCluster builds a small array with hot spares: 64 KB chunks, small
// drives so full-device rebuilds stay fast, a 5 ms op deadline.
func testCluster(t *testing.T, targets, spares int, level raid.Level) (*cluster.Cluster, *core.HostController) {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Targets = targets
	spec.Spares = spares
	drv := ssd.DefaultSpec()
	drv.Capacity = 4 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: level, Width: targets, ChunkSize: chunkSize},
		Deadline: 5 * sim.Millisecond,
	})
	return cl, h
}

func mustWrite(t *testing.T, cl *cluster.Cluster, h *core.HostController, off int64, data []byte) {
	t.Helper()
	doneErr := errors.New("not done")
	h.Write(off, parity.FromBytes(data), func(err error) { doneErr = err })
	cl.Rt.Run()
	if doneErr != nil {
		t.Fatalf("write at %d (%d bytes): %v", off, len(data), doneErr)
	}
}

func mustRead(t *testing.T, cl *cluster.Cluster, h *core.HostController, off, n int64) []byte {
	t.Helper()
	var out []byte
	doneErr := errors.New("not done")
	h.Read(off, n, func(b parity.Buffer, err error) {
		doneErr = err
		out = b.Data()
	})
	cl.Rt.Run()
	if doneErr != nil {
		t.Fatalf("read at %d (%d bytes): %v", off, n, doneErr)
	}
	return out
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// --- Detector state machine -------------------------------------------------

func detectorFixture(t *testing.T) (*cluster.Cluster, *core.HostController, *repair.Detector, *[]int) {
	t.Helper()
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, h, repair.DetectorConfig{
		FailAfter: 3,
		Grace:     10 * sim.Millisecond,
	}, nil, func(m int) { failed = append(failed, m) })
	return cl, h, det, &failed
}

func TestDetectorStrikesEscalate(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)

	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("after 1 strike: state = %v, want suspect", got)
	}
	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("after 2 strikes: state = %v, want suspect", got)
	}
	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Failed {
		t.Fatalf("after 3 strikes: state = %v, want failed", got)
	}
	// onFail is deferred through the engine, exactly once.
	cl.Rt.Run()
	if len(*failed) != 1 || (*failed)[0] != 2 {
		t.Fatalf("onFail calls = %v, want [2]", *failed)
	}
	// Further evidence against a failed member is a no-op.
	det.ObserveFault(2, true)
	cl.Rt.Run()
	if len(*failed) != 1 {
		t.Fatalf("onFail fired again on post-failure evidence: %v", *failed)
	}
	if det.FailTransitions != 1 || det.SuspectTransitions != 1 {
		t.Fatalf("transitions = %d suspect / %d fail, want 1/1",
			det.SuspectTransitions, det.FailTransitions)
	}
}

func TestDetectorConfirmedEscalatesImmediately(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)
	det.ObserveFault(1, true)
	if got := det.State(1); got != repair.Failed {
		t.Fatalf("after confirmed fault: state = %v, want failed", got)
	}
	cl.Rt.Run()
	if len(*failed) != 1 || (*failed)[0] != 1 {
		t.Fatalf("onFail calls = %v, want [1]", *failed)
	}
}

func TestDetectorOKRepairsSuspicion(t *testing.T) {
	_, _, det, _ := detectorFixture(t)
	det.ObserveFault(0, false)
	det.ObserveFault(0, false)
	if det.State(0) != repair.Suspect {
		t.Fatalf("state = %v, want suspect", det.State(0))
	}
	det.ObserveOK(0)
	if det.State(0) != repair.Suspect {
		t.Fatalf("one OK cleared two strikes: state = %v", det.State(0))
	}
	det.ObserveOK(0)
	if det.State(0) != repair.Healthy {
		t.Fatalf("state = %v, want healthy after matching OKs", det.State(0))
	}
}

func TestDetectorGraceDecaysStrikes(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)
	det.ObserveFault(3, false)
	det.ObserveFault(3, false)
	// A quiet window longer than Grace forgets the old strikes.
	cl.Rt.RunFor(20 * sim.Millisecond)
	det.ObserveFault(3, false)
	if got := det.State(3); got != repair.Suspect {
		t.Fatalf("stale strikes still counted: state = %v, want suspect", got)
	}
	cl.Rt.Run()
	if len(*failed) != 0 {
		t.Fatalf("member failed despite grace decay: %v", *failed)
	}
}

// --- Automatic detection via heartbeats ------------------------------------

// A crashed node (observably down) is confirmed by the first probe deadline:
// no SetFailed from outside, detection is fully automatic.
func TestHeartbeatDetectsDownNode(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, h, repair.DetectorConfig{
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { failed = append(failed, m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	cl.FailTarget(3) // node down + drive dead; nobody tells the host
	cl.Rt.RunFor(5 * sim.Millisecond)

	if got := det.State(3); got != repair.Failed {
		t.Fatalf("state = %v, want failed (automatic detection)", got)
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("onFail calls = %v, want [3]", failed)
	}
	for m := 0; m < 5; m++ {
		if m != 3 && det.State(m) != repair.Healthy {
			t.Fatalf("healthy member %d reported %v", m, det.State(m))
		}
	}
}

// An asymmetric fabric fault — host→target capsules silently dropped while
// the reverse direction still delivers — is indistinguishable from a dead
// member to the host: probes go unanswered, strikes accumulate, and the
// member fails after FailAfter probe periods (unconfirmed, since the node is
// not observably down).
func TestHeartbeatDetectsAsymmetricDrop(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, h, repair.DetectorConfig{
		FailAfter:        3,
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { failed = append(failed, m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	conn := cl.Fabric.Connection(core.HostID, core.NodeID(2))
	conn.InjectDropDirection(cl.HostNode, 1.0) // host→target black hole

	cl.Rt.RunFor(2 * sim.Millisecond)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("mid-escalation state = %v, want suspect", got)
	}
	cl.Rt.RunFor(8 * sim.Millisecond)
	if got := det.State(2); got != repair.Failed {
		t.Fatalf("state = %v, want failed after repeated missed heartbeats", got)
	}
	if len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("onFail calls = %v, want [2]", failed)
	}
}

// A short transient drop burst makes the member suspect; once delivery
// resumes, successful probes repair it back to healthy without escalation.
func TestTransientDropRecoversToHealthy(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	det := repair.NewDetector(cl.Rt, h, repair.DetectorConfig{
		FailAfter:        4,
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { t.Errorf("member %d escalated to failed", m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	conn := cl.Fabric.Connection(core.HostID, core.NodeID(1))
	conn.InjectDrop(1.0)
	cl.Rt.RunFor(2500 * sim.Microsecond) // ~2 missed probes
	if got := det.State(1); got != repair.Suspect {
		t.Fatalf("state = %v, want suspect during the drop burst", got)
	}
	conn.InjectDrop(0)
	cl.Rt.RunFor(5 * sim.Millisecond)
	if got := det.State(1); got != repair.Healthy {
		t.Fatalf("state = %v, want healthy after delivery resumed", got)
	}
}

// --- Hot-spare rebuild ------------------------------------------------------

// seedDevice fills the whole virtual device with deterministic bytes and
// returns the reference image.
func seedDevice(t *testing.T, cl *cluster.Cluster, h *core.HostController, seed int64) []byte {
	t.Helper()
	ref := randBytes(seed, int(h.Size()))
	const step = 1 << 20
	for off := int64(0); off < h.Size(); off += step {
		end := off + step
		if end > h.Size() {
			end = h.Size()
		}
		mustWrite(t, cl, h, off, ref[off:end])
	}
	return ref
}

func TestRebuildCopiesMemberToSpare(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 42)

	const victim = 1
	cl.FailTarget(victim)
	h.SetFailed(victim, true)

	reb := repair.NewRebuilder(cl.Rt, h, repair.RebuilderConfig{}, nil)
	rebErr := errors.New("not done")
	reb.Rebuild(victim, cl.SpareIDs()[0], func(err error) { rebErr = err })
	cl.Rt.Run()
	if rebErr != nil {
		t.Fatalf("rebuild: %v", rebErr)
	}
	if st := reb.Status(); st.Active {
		t.Fatalf("rebuild still active after completion: %+v", st)
	}
	if got := h.FailedMembers(); len(got) != 0 {
		t.Fatalf("failed members after rebuild = %v, want none", got)
	}
	if got := h.Stats().RebuiltStripes; got != reb.TotalStripes() {
		t.Fatalf("RebuiltStripes = %d, want %d", got, reb.TotalStripes())
	}
	// Full byte-exact sweep. The victim node is still down: every read of a
	// rebuilt chunk must come from the promoted spare.
	got := mustRead(t, cl, h, 0, h.Size())
	if !bytes.Equal(got, ref) {
		t.Fatalf("device image diverged after rebuild onto spare")
	}
}

// TestRepairPacing pins the one paced walker under every job that uses it.
// Each step's bytes drain at the configured rate, so a job of n steps of c
// bytes at R MB/s spans at least (n-1)·c/R of virtual time (a shared
// limiter lets the first step start at once), and the same job unthrottled
// finishes under that floor. Two rebuilds drawing on one shared limiter
// split its rate, so together they take about twice as long as one.
func TestRepairPacing(t *testing.T) {
	const rateMBps = 100
	stripes := int64(4<<20) / chunkSize
	floor := func(steps, cost int64) sim.Duration {
		return sim.Duration(float64((steps-1)*cost) / (rateMBps * 1e6 / 1e9))
	}
	rebuild := func(t *testing.T, cl *cluster.Cluster, h *core.HostController, cfg repair.RebuilderConfig, dest core.NodeID) *error {
		t.Helper()
		cl.FailTarget(2)
		h.SetFailed(2, true)
		rebErr := errors.New("not done")
		repair.NewRebuilder(cl.Rt, h, cfg, nil).Rebuild(2, dest, func(err error) { rebErr = err })
		return &rebErr
	}
	for _, tc := range []struct {
		name  string
		floor sim.Duration
		// run starts the job at rate (0: unthrottled) and returns its result
		// once the engine drains.
		run func(t *testing.T, cl *cluster.Cluster, rate float64) []*error
	}{
		{name: "rebuild", floor: floor(stripes, chunkSize),
			run: func(t *testing.T, cl *cluster.Cluster, rate float64) []*error {
				h := newHost(t, cl)
				return []*error{rebuild(t, cl, h, repair.RebuilderConfig{RateMBps: rate}, cl.SpareIDs()[0])}
			}},
		{name: "scrub", floor: floor(stripes, 5*chunkSize),
			run: func(t *testing.T, cl *cluster.Cluster, rate float64) []*error {
				h := newHost(t, cl)
				scrubErr := errors.New("not done")
				repair.NewScrubber(cl.Rt, h, repair.ScrubberConfig{RateMBps: rate}, nil).RunPass(
					func(st repair.ScrubStatus, err error) {
						if scrubErr = err; err == nil && st.ScrubbedStripes != stripes {
							scrubErr = fmt.Errorf("scrubbed %d stripes, want %d", st.ScrubbedStripes, stripes)
						}
					})
				return []*error{&scrubErr}
			}},
		{name: "shared limiter", floor: floor(2*stripes, chunkSize),
			run: func(t *testing.T, cl *cluster.Cluster, rate float64) []*error {
				cfg := repair.RebuilderConfig{Limiter: repair.NewRateLimiter(cl.Rt, rate)}
				var errs []*error
				for i := 0; i < 2; i++ {
					h := newHost(t, cl)
					errs = append(errs, rebuild(t, cl, h, cfg, cl.SpareIDs()[i]))
				}
				return errs
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			elapsed := func(rate float64) sim.Duration {
				spec := cluster.DefaultSpec()
				spec.Targets, spec.Spares = 5, 2
				drv := ssd.DefaultSpec()
				drv.Capacity = 8 << 20 // room for two 4 MiB volumes
				spec.Drive = &drv
				cl := cluster.New(spec)
				start := cl.Rt.Now()
				errs := tc.run(t, cl, rate)
				cl.Rt.Run()
				for _, err := range errs {
					if *err != nil {
						t.Fatalf("at %v MB/s: %v", rate, *err)
					}
				}
				return sim.Duration(cl.Rt.Now() - start)
			}
			if got := elapsed(rateMBps); got < tc.floor {
				t.Errorf("at %d MB/s took %v, floor is %v", rateMBps, got, tc.floor)
			}
			if got := elapsed(0); got >= tc.floor {
				t.Errorf("unthrottled took %v, not under the paced floor %v", got, tc.floor)
			}
		})
	}
}

// Abandon ends a rebuild whose step never completes (Array.RebuildDrive's
// stall path): the callback gets the error at once, the member stays
// failed, the rebuilder is idle, and a late step completion does not revive
// the walk.
func TestRebuildAbandon(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	cl.FailTarget(2)
	h.SetFailed(2, true)
	reb := repair.NewRebuilder(cl.Rt, h, repair.RebuilderConfig{}, nil)
	rebErr := errors.New("not done")
	reb.Rebuild(2, cl.SpareIDs()[0], func(err error) { rebErr = err })
	cl.Rt.RunFor(50 * sim.Microsecond) // a stripe is in flight
	stall := errors.New("stalled")
	reb.Abandon(stall)
	if !errors.Is(rebErr, stall) {
		t.Fatalf("callback got %v, want the abandon error", rebErr)
	}
	done := reb.Status().DoneStripes
	cl.Rt.Run()
	// Only the stripe already in flight may still land.
	if st := reb.Status(); st.Active || st.DoneStripes > done+1 {
		t.Fatalf("walk went on after Abandon: %+v (done was %d)", st, done)
	}
	if _, _, ok := h.Rebuilding(2); ok || len(h.FailedMembers()) != 1 {
		t.Fatalf("member 2 rebuilding=%v failed=%v, want failed and not rebuilding", ok, h.FailedMembers())
	}
}

// newHost registers a RAID-5 volume over the next 4 MiB of the cluster's
// five targets.
func newHost(t *testing.T, cl *cluster.Cluster) *core.HostController {
	t.Helper()
	vol, err := cl.AddVolume(fmt.Sprintf("v%d", len(cl.Volumes())), 4<<20, core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize},
		Deadline: 5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vol.Host
}

// --- Supervisor end to end --------------------------------------------------

// The full loop with zero external intervention: a member crashes mid-life,
// heartbeats notice, the detector escalates, the supervisor marks it failed
// and rebuilds onto the spare, and the device image survives byte-exact.
func TestSupervisorAutoRecovery(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 99)

	sup := repair.NewSupervisor(cl.Rt, h, repair.Config{
		Detector: repair.DetectorConfig{
			HeartbeatEvery:   sim.Millisecond,
			HeartbeatTimeout: 500 * sim.Microsecond,
		},
		Spares: cl.SpareIDs(),
	}, nil)
	sup.Start()
	defer sup.Stop()

	cl.FailTarget(3) // nobody calls SetFailed
	cl.Rt.RunFor(5 * sim.Millisecond)
	cl.Rt.Run() // drive the launched rebuild to completion

	if got := sup.Detector().FailTransitions; got != 1 {
		t.Fatalf("fail transitions = %d, want 1 (automatic detection)", got)
	}
	// Post-rebuild the member is healthy again: it is served by the spare.
	if got := sup.Detector().State(3); got != repair.Healthy {
		t.Fatalf("detector state after recovery = %v, want healthy", got)
	}
	if got := h.FailedMembers(); len(got) != 0 {
		t.Fatalf("failed members after auto-recovery = %v, want none", got)
	}
	if sup.SparesAvailable() != 0 {
		t.Fatalf("spare pool = %d, want 0 (consumed)", sup.SparesAvailable())
	}
	kinds := []string{}
	for _, e := range sup.Events() {
		if e.Member == 3 {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{"failed", "rebuild-start", "rebuild-done"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	got := mustRead(t, cl, h, 0, h.Size())
	if !bytes.Equal(got, ref) {
		t.Fatalf("device image diverged after automatic recovery")
	}
}

// Foreground I/O keeps completing while a throttled rebuild runs — the
// Figure 17 tradeoff the token bucket exists for.
func TestForegroundServiceDuringRebuild(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 5)

	cl.FailTarget(0)
	h.SetFailed(0, true)
	reb := repair.NewRebuilder(cl.Rt, h, repair.RebuilderConfig{RateMBps: 50}, nil)
	rebErr := errors.New("not done")
	reb.Rebuild(0, cl.SpareIDs()[0], func(err error) { rebErr = err })

	// Interleave foreground reads with the rebuild: issue one read per
	// virtual millisecond and require every one of them to complete.
	completed := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= 20 {
			return
		}
		off := (int64(i) * 3 * chunkSize) % (h.Size() - chunkSize)
		h.Read(off, chunkSize, func(b parity.Buffer, err error) {
			if err != nil {
				t.Errorf("foreground read %d during rebuild: %v", i, err)
			} else if !bytes.Equal(b.Data(), ref[off:off+chunkSize]) {
				t.Errorf("foreground read %d returned stale bytes", i)
			}
			completed++
		})
		cl.Rt.After(sim.Millisecond, func() { issue(i + 1) })
	}
	issue(0)
	cl.Rt.Run()

	if rebErr != nil {
		t.Fatalf("rebuild: %v", rebErr)
	}
	if completed != 20 {
		t.Fatalf("foreground reads completed = %d, want 20", completed)
	}
}

// --- Host failover ----------------------------------------------------------

// A controller crash mid-write loses in-flight state; the replacement adopts
// the array, resyncs exactly the stripes the write-intent bitmap marked
// dirty, and resumes service with parity consistent.
func TestHostFailoverResyncsDirtyStripes(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	geo := h.Geometry()
	stripeBytes := int64(geo.DataChunks()) * chunkSize
	ref := randBytes(11, int(4 * stripeBytes))
	mustWrite(t, cl, h, 0, ref)

	// Start writes over two stripes, then crash mid-flight.
	crashed := false
	h.Write(0, parity.FromBytes(randBytes(12, int(stripeBytes))), func(error) {
		if crashed {
			t.Error("write callback fired on a crashed controller")
		}
	})
	h.Write(2*stripeBytes, parity.FromBytes(randBytes(13, int(stripeBytes))), func(error) {
		if crashed {
			t.Error("write callback fired on a crashed controller")
		}
	})
	cl.Rt.RunFor(20 * sim.Microsecond) // partway into the writes
	dirtyBefore := h.DirtyStripes()
	if len(dirtyBefore) == 0 {
		t.Fatal("test setup: no dirty stripes at crash time")
	}
	h.Crash()
	crashed = true
	cl.Rt.Run() // drain whatever the crash left behind
	if !h.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}

	// Replacement adopts: same geometry, same fabric endpoint.
	h2 := cl.NewDRAID(core.Config{
		Geometry: geo,
		Deadline: 5 * sim.Millisecond,
	})
	adopted := h2.Adopt(h)
	if len(adopted) != len(dirtyBefore) {
		t.Fatalf("adopted %d dirty stripes, want %d", len(adopted), len(dirtyBefore))
	}

	ferr := errors.New("not done")
	repair.Failover(cl.Rt, h2, adopted, func(err error) { ferr = err })
	cl.Rt.Run()
	if ferr != nil {
		t.Fatalf("failover resync: %v", ferr)
	}
	if got := h2.Stats().Resyncs; got != int64(len(adopted)) {
		t.Fatalf("resyncs = %d, want exactly the %d dirty stripes", got, len(adopted))
	}
	if got := h2.DirtyStripes(); len(got) != 0 {
		t.Fatalf("dirty stripes after resync = %v, want none", got)
	}

	// Service resumes: a fresh write+read roundtrip on the replacement.
	fresh := randBytes(14, int(stripeBytes))
	wrErr := errors.New("not done")
	h2.Write(0, parity.FromBytes(fresh), func(err error) { wrErr = err })
	cl.Rt.Run()
	if wrErr != nil {
		t.Fatalf("post-failover write: %v", wrErr)
	}
	var got []byte
	rdErr := errors.New("not done")
	h2.Read(0, stripeBytes, func(b parity.Buffer, err error) { got, rdErr = b.Data(), err })
	cl.Rt.Run()
	if rdErr != nil {
		t.Fatalf("post-failover read: %v", rdErr)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("post-failover roundtrip returned wrong bytes")
	}
}
