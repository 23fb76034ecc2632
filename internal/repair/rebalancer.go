package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/placement"
	"draid/internal/trace"
)

// RebalanceStatus is a snapshot of an online-expansion migration.
type RebalanceStatus struct {
	Active bool
	Drive  int  // drive being filled (add) or drained (remove)
	Drain  bool // true when draining for removal
	// Done/Total count chunk relocations of the current (or last) run.
	Done, Total int
	// Skipped counts planned moves abandoned because their target slot was
	// claimed by a racing rebuild or migration; the chunk stays where it is
	// and placement remains valid, merely a little less balanced.
	Skipped int
}

// Rebalancer executes layout migrations for online expansion on a
// declustered volume: after a drive add it moves the new drive's fair
// share of chunks onto it, and before a drive removal it drains every
// chunk off the leaving drive into the remaining rows' spare slots. Each
// relocation runs under the per-stripe write lock (the same discipline as
// destage and rebuild) and is paced by the shared repair rate budget, so
// foreground service keeps its share while the cluster reshapes.
type Rebalancer struct {
	eng  backend.Runtime
	host *core.HostController
	cfg  RebuilderConfig

	status RebalanceStatus

	track  trace.Track
	tracer *trace.Collector
}

// NewRebalancer builds a rebalance manager sharing the rebuilder's rate
// configuration (and, through cfg.Limiter, its cluster-wide budget).
func NewRebalancer(eng backend.Runtime, host *core.HostController, cfg RebuilderConfig, tracer *trace.Collector) *Rebalancer {
	r := &Rebalancer{eng: eng, host: host, cfg: cfg, tracer: tracer}
	if tracer.Enabled() {
		r.track = tracer.Track("repair", "rebalance")
		tracer.AddGauge(r.track, "rebalance progress", func() float64 {
			if r.status.Total == 0 {
				return 0
			}
			return float64(r.status.Done) / float64(r.status.Total)
		})
	}
	return r
}

// Rebind points the rebalancer at a replacement controller after failover.
func (r *Rebalancer) Rebind(h *core.HostController) { r.host = h }

// Status returns a snapshot of the current (or last) rebalance.
func (r *Rebalancer) Status() RebalanceStatus { return r.status }

// Fill migrates a fair share of existing chunks onto a freshly added drive
// (the host must already have grown its drive set via AddDrive). A planned
// move whose target row slot has meanwhile been claimed is skipped — the
// placement stays valid either way.
func (r *Rebalancer) Fill(drive int, cb func(error)) {
	if r.status.Active {
		r.eng.Defer(func() { cb(fmt.Errorf("repair: rebalance of drive %d already active", r.status.Drive)) })
		return
	}
	dyn, ok := r.host.Layout().(placement.Dynamic)
	if !ok {
		r.eng.Defer(func() { cb(fmt.Errorf("repair: layout does not support rebalance: %w", backend.ErrUnsupported)) })
		return
	}
	moves := dyn.PlanAdd(drive)
	r.run(drive, false, len(moves), fmt.Sprintf("rebalance onto d%d", drive), func(i int64, next func(error)) {
		m := moves[i]
		if !dyn.ClaimDrive(m.Stripe, m.To) {
			r.status.Skipped++
			next(nil)
			return
		}
		r.host.MigrateStripeChunk(m.Stripe, m.Member, m.To, func(err error) {
			if err != nil {
				err = fmt.Errorf("repair: rebalance stripe %d member %d → d%d: %w", m.Stripe, m.Member, m.To, err)
			}
			next(err)
		})
	}, cb)
}

// Drain migrates every chunk off a drive being removed into spare slots on
// the remaining drives, then leaves the drive retired in the layout. The
// drive is marked removed up front so no racing rebuild or rebalance
// places new chunks onto it mid-drain.
func (r *Rebalancer) Drain(drive int, cb func(error)) {
	if r.status.Active {
		r.eng.Defer(func() { cb(fmt.Errorf("repair: rebalance of drive %d already active", r.status.Drive)) })
		return
	}
	if !r.host.Declustered() {
		r.eng.Defer(func() { cb(fmt.Errorf("repair: layout does not support drive removal: %w", backend.ErrUnsupported)) })
		return
	}
	r.host.RetireDrive(drive)
	slots := r.host.PlacementSlots(drive)
	r.run(drive, true, len(slots), fmt.Sprintf("drain d%d", drive), func(i int64, next func(error)) {
		r.host.EvictSlot(slots[i].Stripe, drive, func(err error) {
			if err != nil {
				err = fmt.Errorf("repair: drain stripe %d off d%d: %w", slots[i].Stripe, drive, err)
			}
			next(err)
		})
	}, cb)
}

// run walks total relocations, one chunk's bytes each from the rebuild
// rate budget, counting each completed (or skipped) one in the status, and
// stops on the first error.
func (r *Rebalancer) run(drive int, drain bool, total int, label string, step func(i int64, next func(error)), cb func(error)) {
	r.status = RebalanceStatus{Active: true, Drive: drive, Drain: drain, Total: total}
	span := r.tracer.Begin(r.track, "repair", label, trace.I64("chunks", int64(total)))
	r.cfg.walker(r.eng, r.host).walk(int64(total), func(i int64, next func(error)) {
		step(i, func(err error) {
			if err == nil {
				r.status.Done = int(i) + 1
			}
			next(err)
		})
	}, func(err error) {
		span.End(outcome(err))
		r.status.Active = false
		cb(err)
	})
}
