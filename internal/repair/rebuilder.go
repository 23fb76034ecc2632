package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/placement"
	"draid/internal/trace"
)

// RebuilderConfig tunes rebuild throttling.
type RebuilderConfig struct {
	// RateMBps caps the rebuild at this many megabytes of reconstructed
	// chunk data per second (the Figure 17 rebuild-vs-foreground knob).
	// 0 means unthrottled: stripes are rebuilt back-to-back.
	RateMBps float64
	// Limiter, when non-nil, replaces the private RateMBps bucket with a
	// budget shared across volumes: every rebuilder on the cluster reserves
	// its stripe bytes from the same bucket, so concurrent rebuilds split
	// the rate instead of each claiming it in full.
	Limiter *RateLimiter
	// OnLost, when non-nil, is called after any rebuilt stripe sacrificed
	// data to a media double fault (a survivor URE past the parity budget —
	// the RAID-5 rebuild hazard). The rebuild continues; the affected bytes
	// are in the host's lost-region list.
	OnLost func(stripe int64)
}

// walker paces a rebuild or rebalance at one chunk's bytes per step.
func (cfg RebuilderConfig) walker(eng backend.Runtime, h *core.HostController) walker {
	return walker{eng: eng, RateMBps: cfg.RateMBps, Limiter: cfg.Limiter, cost: h.Geometry().ChunkSize}
}

// RebuildStatus is a snapshot of rebuild progress.
type RebuildStatus struct {
	Active       bool
	Member       int
	Dest         core.NodeID
	DoneStripes  int64
	TotalStripes int64
	// LostRegions counts lost ranges recorded during this rebuild: nonzero
	// means some stripes were rebuilt with unrecoverable holes.
	LostRegions int64
}

// Rebuilder restores a failed member's chunks stripe by stripe, using the
// host's disaggregated reconstruction (§6) under the per-stripe write lock,
// paced by a token-bucket rate limit so foreground I/O keeps serving. It is
// the only rebuild engine: the supervisor's spare rebuilds and the manual
// Array.RebuildDrive both run through it.
type Rebuilder struct {
	eng  backend.Runtime
	host *core.HostController
	cfg  RebuilderConfig

	status RebuildStatus
	// end stops the active rebuild's walk (see Abandon).
	end func(error)

	track  trace.Track
	tracer *trace.Collector
}

// NewRebuilder builds a rebuild manager for the host.
func NewRebuilder(eng backend.Runtime, host *core.HostController, cfg RebuilderConfig, tracer *trace.Collector) *Rebuilder {
	r := &Rebuilder{eng: eng, host: host, cfg: cfg, tracer: tracer}
	if tracer.Enabled() {
		r.track = tracer.Track("repair", "rebuild")
		tracer.AddGauge(r.track, "rebuild progress", func() float64 {
			if r.status.TotalStripes == 0 {
				return 0
			}
			return float64(r.status.DoneStripes) / float64(r.status.TotalStripes)
		})
	}
	return r
}

// Rebind points the rebuilder at a replacement controller after failover.
func (r *Rebuilder) Rebind(h *core.HostController) { r.host = h }

// Status returns a snapshot of the current rebuild.
func (r *Rebuilder) Status() RebuildStatus { return r.status }

// TotalStripes returns the number of stripes the array spans.
func (r *Rebuilder) TotalStripes() int64 {
	geo := r.host.Geometry()
	return r.host.Size() / (int64(geo.DataChunks()) * geo.ChunkSize)
}

// Rebuild restores every chunk a failed member held, paced at one chunk's
// bytes per step. The host's layout picks the work:
//
//   - fixed: every stripe is reconstructed onto dest — a hot spare, or the
//     member's own replaced node — under the per-stripe write lock, with a
//     frontier so reads below it already go to dest. On success dest is
//     promoted to be member's endpoint (FinishRebuild); on any stripe error
//     the rebuild aborts and the member stays failed.
//   - declustered: every chunk the layout places on the drive is
//     reconstructed into an idle spare slot of its own row, so reads and
//     writes spread over the whole cluster and the rebuild shortens as the
//     cluster grows. dest is unused: each committed relocation heals its
//     stripe at once, and on success the drive is retired in the layout,
//     never to be placed on again.
//
// Only one rebuild may run at a time.
func (r *Rebuilder) Rebuild(member int, dest core.NodeID, cb func(error)) {
	if r.status.Active {
		r.eng.Defer(func() { cb(fmt.Errorf("repair: rebuild of member %d already active", r.status.Member)) })
		return
	}
	decl := r.host.Declustered()
	var slots []placement.Slot
	var span *trace.Op
	if decl {
		slots = r.host.PlacementSlots(member)
		r.status = RebuildStatus{Active: true, Member: member, TotalStripes: int64(len(slots))}
		span = r.tracer.Begin(r.track, "repair", fmt.Sprintf("declustered rebuild d%d", member),
			trace.I64("chunks", r.status.TotalStripes))
	} else {
		r.status = RebuildStatus{Active: true, Member: member, Dest: dest, TotalStripes: r.TotalStripes()}
		r.host.StartRebuild(member, dest)
		span = r.tracer.Begin(r.track, "repair", fmt.Sprintf("rebuild m%d→n%d", member, int(dest)),
			trace.I64("stripes", r.status.TotalStripes))
	}

	step := func(i int64, next func(error)) {
		stripe, op := i, r.host.RebuildStripe
		if decl {
			stripe, op = slots[i].Stripe, r.host.RebuildSlot
		}
		lostBefore := r.host.LostRegionsEver()
		op(stripe, member, func(err error) {
			if delta := r.host.LostRegionsEver() - lostBefore; delta > 0 {
				r.status.LostRegions += delta
				if r.cfg.OnLost != nil {
					r.cfg.OnLost(stripe)
				}
			}
			if err != nil {
				next(fmt.Errorf("repair: member %d stripe %d: %w", member, stripe, err))
				return
			}
			r.status.DoneStripes = i + 1
			next(nil)
		})
	}
	finish := func(err error) {
		if decl {
			if err == nil {
				r.host.RetireDrive(member)
			}
		} else if err == nil {
			r.host.FinishRebuild(member)
		} else {
			r.host.AbortRebuild(member)
		}
		span.End(outcome(err))
		r.status.Active = false
		cb(err)
	}
	r.end = r.cfg.walker(r.eng, r.host).walk(r.status.TotalStripes, step, finish)
}

// Abandon ends the active rebuild with err when its current step can never
// complete (the engine drained with the rebuild still running). The
// rebuild's callback receives err, the member stays failed, and the
// rebuilder is idle again. No-op when no rebuild is active.
func (r *Rebuilder) Abandon(err error) {
	if r.status.Active {
		r.end(err)
	}
}
