// Package conformancetest is the cross-backend contract suite: every
// Transport/Drive backend must expose identical application-visible
// semantics — healthy round trips, degraded reads, rebuild, media errors,
// context cancellation — even though the substrates (virtual time vs.
// goroutines and wall clocks) share no code below the protocol layer.
//
// Backends that cannot support a scenario (for example, media-fault
// injection on file-backed drives) must report draid.ErrUnsupported from the
// injection APIs; the suite then skips that scenario rather than failing it.
package conformancetest

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"draid"
)

// Factory builds an array for one backend under test. The suite passes the
// workload shape (drives, chunk size, capacity, integrity, ...); the factory
// fills in Backend/Realtime and returns the assembled array. The suite
// closes returned arrays itself.
type Factory func(t *testing.T, cfg draid.Config) *draid.Array

// baseConfig is the workload shape every scenario starts from: a small
// RAID-5 array whose extents keep realtime rebuilds fast.
func baseConfig() draid.Config {
	return draid.Config{
		Drives:        5,
		ChunkSize:     16 << 10,
		DriveCapacity: 1 << 20,
		Seed:          7,
	}
}

// pattern fills a deterministic, offset-dependent payload so misdirected
// reads cannot pass.
func pattern(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((off + int64(i)) * 131 % 251)
	}
	return out
}

// Run executes the full conformance suite against one backend.
func Run(t *testing.T, f Factory) {
	t.Run("HealthyRoundTrip", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		// Full-stripe, partial-stripe, and sub-chunk shapes.
		for _, c := range []struct{ off, n int64 }{
			{0, 64 << 10},        // full stripe
			{64 << 10, 20 << 10}, // stripe-crossing partial
			{200 << 10, 3000},    // sub-chunk, unaligned
		} {
			want := pattern(c.off, int(c.n))
			if err := a.WriteSync(c.off, want); err != nil {
				t.Fatalf("write [%d,%d): %v", c.off, c.off+c.n, err)
			}
			got, err := a.ReadSync(c.off, c.n)
			if err != nil {
				t.Fatalf("read [%d,%d): %v", c.off, c.off+c.n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read [%d,%d): payload mismatch", c.off, c.off+c.n)
			}
		}
	})

	t.Run("ContextPreCancelled", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := a.WriteContext(ctx, 0, pattern(0, 4096)); !errors.Is(err, context.Canceled) {
			t.Fatalf("write on cancelled context: got %v, want context.Canceled", err)
		}
		if _, err := a.ReadContext(ctx, 0, 4096); !errors.Is(err, context.Canceled) {
			t.Fatalf("read on cancelled context: got %v, want context.Canceled", err)
		}
	})

	t.Run("ContextDeadlineOnCrashedDrive", func(t *testing.T) {
		cfg := baseConfig()
		cfg.OpDeadline = 30 * time.Second // far beyond the context budget
		a := f(t, cfg)
		defer a.Close()
		if err := a.WriteSync(0, pattern(0, 64<<10)); err != nil {
			t.Fatalf("priming write: %v", err)
		}
		// The host does not know the drive is gone; only the context bounds
		// the wait.
		a.CrashDrive(1)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := a.WriteContext(ctx, 0, pattern(0, 64<<10)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("write past context deadline: got %v, want context.DeadlineExceeded", err)
		}
	})

	t.Run("DegradedReadAndWrite", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		want := pattern(0, 128<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		a.FailDrive(1)
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("degraded read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("degraded read: payload mismatch (reconstruction wrong)")
		}
		want2 := pattern(1<<20, 80<<10)
		if err := a.WriteSync(1<<20, want2); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		got2, err := a.ReadSync(1<<20, int64(len(want2)))
		if err != nil {
			t.Fatalf("degraded read-back: %v", err)
		}
		if !bytes.Equal(got2, want2) {
			t.Fatal("degraded read-back: payload mismatch")
		}
	})

	t.Run("RebuildRestoresRedundancy", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		want := pattern(4096, 96<<10)
		if err := a.WriteSync(4096, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		a.FailDrive(2)
		if err := a.RebuildDrive(2); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if failed := a.FailedDrives(); len(failed) != 0 {
			t.Fatalf("members still failed after rebuild: %v", failed)
		}
		// The rebuilt member must carry real redundancy: fail a different
		// drive and reconstruct through the rebuilt one.
		a.FailDrive(0)
		got, err := a.ReadSync(4096, int64(len(want)))
		if err != nil {
			t.Fatalf("read after rebuild with another member failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read through rebuilt member: payload mismatch")
		}
	})

	t.Run("DoubleFaultFails", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		if err := a.WriteSync(0, pattern(0, 64<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		a.FailDrive(0)
		a.FailDrive(1)
		if _, err := a.ReadSync(0, 64<<10); !errors.Is(err, draid.ErrIO) {
			t.Fatalf("read past the parity budget: got %v, want an ErrIO chain", err)
		}
	})

	t.Run("MediaErrorRepairOnRead", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Integrity = true
		a := f(t, cfg)
		defer a.Close()
		want := pattern(0, 128<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Stay within one chunk: a range crossing members of one stripe
		// would be a genuine double fault on every backend.
		if err := a.Inject().MediaError(8<<10, 4<<10); err != nil {
			if errors.Is(err, draid.ErrUnsupported) {
				t.Skipf("backend does not support media injection: %v", err)
			}
			t.Fatalf("inject media error: %v", err)
		}
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read over media error: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read over media error: payload mismatch (reconstruction wrong)")
		}
	})

	t.Run("BitRotCaughtByIntegrity", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Integrity = true
		a := f(t, cfg)
		defer a.Close()
		want := pattern(0, 64<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := a.Inject().BitRot(4<<10, 8<<10); err != nil {
			if errors.Is(err, draid.ErrUnsupported) {
				t.Skipf("backend does not support bit-rot injection: %v", err)
			}
			t.Fatalf("inject bit rot: %v", err)
		}
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read over bit rot: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read over bit rot: checksums did not trigger reconstruction")
		}
	})

	t.Run("SlowDriveHedgedRead", func(t *testing.T) {
		cfg := baseConfig()
		cfg.HedgeDelay = 10 * time.Millisecond
		a := f(t, cfg)
		defer a.Close()
		// Four stripes, so member 1 serves data chunks in several of them no
		// matter where the parity rotation places it.
		want := pattern(0, 256<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("priming write: %v", err)
		}
		// Member 1 now stalls for the full 2s of every 2s cycle: any chunk
		// read it serves lands seconds late. The hedge must solve k-of-n
		// through parity well inside the context budget instead of waiting
		// out the straggler.
		if err := a.Inject().SlowDrive(1, draid.SlowProfile{
			Kind: draid.SlowStall, Stall: 2 * time.Second, Period: 2 * time.Second,
		}); err != nil {
			if errors.Is(err, draid.ErrUnsupported) {
				t.Skipf("backend does not support slow-drive injection: %v", err)
			}
			t.Fatalf("inject slow drive: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		got, err := a.ReadContext(ctx, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("hedged read under slow drive: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("hedged read: payload mismatch (parity solve wrong)")
		}
		if a.Stats().HedgedReads == 0 {
			t.Fatal("read completed without hedging; expected a hedged parity solve")
		}
	})

	t.Run("WritebackStagedCrashRecovery", func(t *testing.T) {
		cfg := baseConfig()
		cfg.WriteBack = true
		cfg.StageMB = 1
		cfg.CacheMB = 1
		a := f(t, cfg)
		defer a.Close()
		base := pattern(0, 128<<10)
		if err := a.WriteSync(0, base); err != nil {
			t.Fatalf("priming write: %v", err)
		}
		if err := a.Flush(); err != nil {
			t.Fatalf("priming flush: %v", err)
		}
		// Sub-stripe writes acknowledged from the staging buffer; some may
		// still be staged (or mid-destage) when the controller dies.
		staged := []struct{ off, n int64 }{
			{4 << 10, 6 << 10},   // sub-chunk
			{70 << 10, 9 << 10},  // chunk-crossing partial
			{100 << 10, 2 << 10}, // second write into the same stripe
		}
		want := append([]byte(nil), base...)
		for _, c := range staged {
			p := pattern(c.off+1, int(c.n)) // +1: differs from the primer
			if err := a.WriteSync(c.off, p); err != nil {
				t.Fatalf("staged write [%d,%d): %v", c.off, c.off+c.n, err)
			}
			copy(want[c.off:], p)
		}
		// Kill the controller; the replacement adopts the intent log, fences
		// the dead session, and resyncs — zero acknowledged writes may be
		// lost.
		if _, err := a.FailoverHost(); err != nil {
			t.Fatalf("host failover: %v", err)
		}
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after failover: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read after failover: acknowledged staged writes lost")
		}
		// Destage everything and read back from the drives proper.
		if err := a.Flush(); err != nil {
			t.Fatalf("flush after failover: %v", err)
		}
		got, err = a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after flush: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read after flush: destaged bytes differ")
		}
	})

	t.Run("DeclusteredCrashAndRebuild", func(t *testing.T) {
		// Width-3 parity groups declustered over 5 physical drives: a drive
		// crash must be survivable and the many-to-many rebuild (relocation
		// into distributed spare slots, no spare endpoint) must restore
		// redundancy identically on every backend.
		cfg := baseConfig()
		cfg.Drives = 3
		cfg.Declustered = true
		cfg.ClusterDrives = 5
		a := f(t, cfg)
		defer a.Close()
		want := pattern(0, 160<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		a.FailDrive(2)
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("degraded read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("degraded read: payload mismatch")
		}
		if err := a.RebuildDrive(2); err != nil {
			t.Fatalf("declustered rebuild: %v", err)
		}
		// Redundancy must be whole again: a second failure on a different
		// drive reconstructs through the relocated chunks.
		a.FailDrive(4)
		got, err = a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after rebuild with second drive failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read after declustered rebuild: payload mismatch")
		}
	})

	t.Run("PartitionedHostFailover", func(t *testing.T) {
		// The tentpole robustness scenario: the host is partitioned from every
		// drive mid-workload, a replacement seizes the volume at a higher
		// epoch, the partition heals — and no acknowledged write may be lost,
		// while nothing the stale host attempted may surface after takeover.
		cfg := baseConfig()
		cfg.EpochFencing = true
		cfg.HostLease = 50 * time.Millisecond
		cfg.WriteBack = true
		cfg.StageMB = 1
		cfg.OpDeadline = 50 * time.Millisecond
		a := f(t, cfg)
		defer a.Close()
		base := pattern(0, 128<<10)
		if err := a.WriteSync(0, base); err != nil {
			t.Fatalf("priming write: %v", err)
		}
		if err := a.Flush(); err != nil {
			t.Fatalf("priming flush: %v", err)
		}
		if err := a.Inject().IsolateHost(); err != nil {
			if errors.Is(err, draid.ErrUnsupported) {
				t.Skipf("backend does not support partition injection: %v", err)
			}
			t.Fatalf("isolate host: %v", err)
		}
		want := append([]byte(nil), base...)
		// A sub-stripe write is acknowledged from the staging buffer even
		// while the fabric is cut; its destages fail until takeover. Once
		// acknowledged it must survive everything that follows.
		ackd := pattern(5<<10, 6<<10)
		if err := a.WriteSync(4<<10, ackd); err != nil {
			t.Fatalf("staged write during partition: %v", err)
		}
		copy(want[4<<10:], ackd)
		// A full-stripe write goes write-through into the cut fabric and must
		// fail — never be silently dropped as acknowledged. (The exact error
		// depends on what the partition starved first: a plain op timeout, or
		// a degraded-path failure after timeouts struck members out.)
		if err := a.WriteSync(64<<10, pattern(1, 64<<10)); err == nil {
			t.Fatal("write-through during partition unexpectedly succeeded")
		}
		if err := a.Inject().HealHostIsolation(); err != nil {
			t.Fatalf("heal partition: %v", err)
		}
		// The replacement seizes the volume without crashing the predecessor:
		// the epoch bump plus the servers' stale-epoch rejections are what
		// fence the zombie out.
		if _, err := a.SeizeHost(); err != nil {
			t.Fatalf("seize host: %v", err)
		}
		if got := a.HostEpoch(); got != 2 {
			t.Fatalf("replacement epoch: got %d, want 2", got)
		}
		if err := a.Flush(); err != nil {
			t.Fatalf("flush after takeover: %v", err)
		}
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after takeover: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read after takeover: acknowledged write lost or stale write applied")
		}
	})

	t.Run("DeclusteredRaid6RebuildThroughQ", func(t *testing.T) {
		// Double fault on a declustered RAID-6 volume: reads must solve
		// through P+Q, and the many-to-many rebuild must relocate both failed
		// drives' chunks — Q parity included — into distributed spare slots,
		// leaving redundancy whole enough to survive two further failures.
		cfg := baseConfig()
		cfg.Level = draid.Raid6
		cfg.Drives = 4
		cfg.Declustered = true
		cfg.ClusterDrives = 7
		a := f(t, cfg)
		defer a.Close()
		want := pattern(0, 160<<10)
		if err := a.WriteSync(0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		a.FailDrive(1)
		a.FailDrive(3)
		got, err := a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("double-degraded read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("double-degraded read: P+Q solve wrong")
		}
		if err := a.RebuildDrive(1); err != nil {
			t.Fatalf("rebuild first failed drive: %v", err)
		}
		if err := a.RebuildDrive(3); err != nil {
			t.Fatalf("rebuild second failed drive: %v", err)
		}
		// Redundancy must be fully restored: two fresh failures reconstruct
		// through the relocated chunks (Q among them).
		a.FailDrive(0)
		a.FailDrive(4)
		got, err = a.ReadSync(0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after rebuild with two more drives failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read after RAID-6 declustered rebuild: payload mismatch")
		}
	})

	t.Run("OutOfRange", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		if _, err := a.ReadSync(a.Size(), 4096); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("read past device: got %v, want ErrOutOfRange", err)
		}
		if err := a.WriteSync(a.Size()-1024, pattern(0, 4096)); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("write past device: got %v, want ErrOutOfRange", err)
		}
	})
}
