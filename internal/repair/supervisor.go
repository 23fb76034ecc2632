package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/sim"
	"draid/internal/trace"
)

// Config assembles the supervision stack.
type Config struct {
	Detector DetectorConfig
	Rebuild  RebuilderConfig
	// Scrub configures the background scrubber; a zero Interval leaves
	// periodic scrubbing off (the scrubber still exists for on-demand use).
	Scrub ScrubberConfig
	// Spares is the hot-spare pool (fabric NodeIDs, consumed in order).
	// Ignored when Pool is set.
	Spares []core.NodeID
	// Pool, when non-nil, is a spare pool shared with other supervisors on
	// the same cluster: whichever volume's supervisor asks first claims the
	// spare (first-claim arbitration). When nil the supervisor wraps Spares
	// in a private pool.
	Pool *core.SparePool
}

// Event is one entry of the supervisor's recovery log.
type Event struct {
	Time   sim.Time
	Kind   string // "suspect", "failed", "rebuild-start", "rebuild-done", "rebuild-error", "failover", "scrub-pass", "scrub-repair", "scrub-error", "lost-region", "drive-add", "drive-remove", "rebalance-done", "rebalance-error"
	Member int
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%-10v %-13s m%d %s", e.Time, e.Kind, e.Member, e.Detail)
}

// Supervisor ties detection to recovery: it installs a Detector as the
// host's health sink, and on each confirmed failure marks the member failed
// on the controller and — when a spare is available — launches a throttled
// rebuild onto it, queueing further failures until the current rebuild
// finishes. It is the subsystem that turns "a node stopped answering" into
// "the array healed itself".
type Supervisor struct {
	eng  backend.Runtime
	host *core.HostController

	det   *Detector
	reb   *Rebuilder
	rebal *Rebalancer
	scrub *Scrubber

	spares *core.SparePool
	queue  []int // failed members awaiting a spare or the rebuilder
	events []Event
	tracer *trace.Collector
}

// NewSupervisor wires detector + rebuilder onto the host and installs the
// health sink. Call Start to begin heartbeat probing.
func NewSupervisor(eng backend.Runtime, host *core.HostController, cfg Config, tracer *trace.Collector) *Supervisor {
	pool := cfg.Pool
	if pool == nil {
		pool = core.NewSparePool(cfg.Spares)
	}
	s := &Supervisor{eng: eng, host: host, spares: pool, tracer: tracer}
	if cfg.Rebuild.OnLost == nil {
		cfg.Rebuild.OnLost = func(stripe int64) {
			s.log("lost-region", s.reb.Status().Member, fmt.Sprintf("stripe %d rebuilt with unrecoverable hole", stripe))
		}
	}
	s.det = NewDetector(eng, host, cfg.Detector, tracer, s.handleFail)
	s.reb = NewRebuilder(eng, host, cfg.Rebuild, tracer)
	s.rebal = NewRebalancer(eng, host, cfg.Rebuild, tracer)
	if cfg.Scrub.OnEvent == nil {
		cfg.Scrub.OnEvent = func(kind string, stripe int64, detail string) {
			s.log(kind, -1, detail)
		}
	}
	s.scrub = NewScrubber(eng, host, cfg.Scrub, tracer)
	host.SetHealth(s.det)
	return s
}

// Start begins heartbeat probing (no-op when the detector has no period) and
// periodic scrub passes (no-op when the scrubber has no interval).
func (s *Supervisor) Start() {
	s.det.Start()
	s.scrub.Start()
}

// Stop halts probing and periodic scrubbing.
func (s *Supervisor) Stop() {
	s.det.Stop()
	s.scrub.Stop()
}

// Detector exposes the state machine (tests, status surfaces).
func (s *Supervisor) Detector() *Detector { return s.det }

// Rebuilder exposes the rebuild manager.
func (s *Supervisor) Rebuilder() *Rebuilder { return s.reb }

// Rebalancer exposes the online-expansion migration manager.
func (s *Supervisor) Rebalancer() *Rebalancer { return s.rebal }

// Scrubber exposes the background scrubber.
func (s *Supervisor) Scrubber() *Scrubber { return s.scrub }

// SparesAvailable returns how many spares remain in the pool (shared with
// other supervisors when the pool is).
func (s *Supervisor) SparesAvailable() int { return s.spares.Available() }

// Events returns the recovery log in order.
func (s *Supervisor) Events() []Event { return append([]Event(nil), s.events...) }

// NotifyFailed is the administrative failure path (draid.FailDrive): the
// member is declared failed without waiting for evidence.
func (s *Supervisor) NotifyFailed(member int) { s.det.ForceFail(member) }

// Rebind moves the supervision stack onto a replacement controller after
// host failover. The replacement must already have adopted the array.
func (s *Supervisor) Rebind(h *core.HostController) {
	s.host = h
	s.det.Rebind(h)
	s.reb.Rebind(h)
	s.rebal.Rebind(h)
	s.scrub.Rebind(h)
	h.SetHealth(s.det)
	s.log("failover", -1, "supervision rebound to replacement controller")
}

func (s *Supervisor) log(kind string, member int, detail string) {
	s.events = append(s.events, Event{Time: s.eng.Now(), Kind: kind, Member: member, Detail: detail})
}

// AddDrive grows a declustered volume onto a fresh fabric endpoint and
// rebalances its fair share of chunks onto it in the background. Returns
// the new drive index immediately; cb fires when the rebalance converges.
func (s *Supervisor) AddDrive(node core.NodeID, cb func(error)) (int, error) {
	idx, err := s.host.AddDrive(node)
	if err != nil {
		return 0, err
	}
	s.det.Grow(s.host.Drives())
	s.log("drive-add", idx, fmt.Sprintf("node %d joined as drive %d; rebalancing", int(node), idx))
	s.rebal.Fill(idx, func(err error) {
		if err != nil {
			s.log("rebalance-error", idx, err.Error())
		} else {
			st := s.rebal.Status()
			s.log("rebalance-done", idx, fmt.Sprintf("%d chunk(s) moved, %d skipped", st.Done-st.Skipped, st.Skipped))
		}
		cb(err)
	})
	return idx, nil
}

// RemoveDrive drains every chunk off a drive and retires it from the
// layout; cb fires when the drive is empty. The endpoint itself is not
// touched — fencing or reusing it is the caller's business.
func (s *Supervisor) RemoveDrive(drive int, cb func(error)) {
	s.log("drive-remove", drive, "draining chunks onto remaining drives")
	s.rebal.Drain(drive, func(err error) {
		if err != nil {
			s.log("rebalance-error", drive, err.Error())
		} else {
			s.log("rebalance-done", drive, fmt.Sprintf("%d chunk(s) evicted; drive retired", s.rebal.Status().Done))
		}
		cb(err)
	})
}

// handleFail runs (deferred) on each healthy/suspect → failed transition.
func (s *Supervisor) handleFail(member int) {
	s.log("failed", member, "detector confirmed failure")
	// The data path may already have marked it via §5.4; make it definitive
	// either way so no new I/O targets the dead member.
	s.host.SetFailed(member, true)
	s.queue = append(s.queue, member)
	s.tryRebuild()
}

// tryRebuild launches the next queued rebuild if the rebuilder is idle —
// into distributed spare slots on a declustered layout, else onto a claimed
// spare. Queued members that no longer need a rebuild (a manual rebuild got
// there first) are dropped. With a shared pool, the spare claim races
// supervisors of co-tenant volumes degraded by the same fault; engine order
// decides, and the loser keeps its member queued until a spare frees up.
func (s *Supervisor) tryRebuild() {
	for len(s.queue) > 0 && !s.host.NeedsRebuild(s.queue[0]) {
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 || s.reb.Status().Active {
		return
	}
	var dest core.NodeID
	if !s.host.Declustered() {
		spare, ok := s.spares.Claim()
		if !ok {
			return
		}
		dest = spare
	}
	member := s.queue[0]
	s.queue = s.queue[1:]
	s.Rebuild(member, dest, func(error) {})
}

// Rebuild runs one member's rebuild on the supervisor's rebuilder, logs
// its start and outcome in the recovery log, and then launches the next
// queued rebuild. dest is a claimed spare, or the member's own (replaced)
// node for a manual in-place rebuild; a declustered rebuild ignores it. cb
// receives the rebuild's outcome after the log entry is written.
func (s *Supervisor) Rebuild(member int, dest core.NodeID, cb func(error)) {
	decl := s.host.Declustered()
	if decl {
		// Many-to-many rebuild: the failed drive's chunks relocate into the
		// rows' distributed spare slots, and the drive stays failed (and
		// retired) afterwards, so the detector state is deliberately not
		// reset.
		s.log("rebuild-start", member, "declustered: relocating onto distributed spare slots")
	} else if dest == s.host.MemberNode(member) {
		s.log("rebuild-start", member, fmt.Sprintf("in place on node %d", int(dest)))
	} else {
		s.log("rebuild-start", member, fmt.Sprintf("onto spare node %d", int(dest)))
	}
	s.reb.Rebuild(member, dest, func(err error) {
		switch {
		case err != nil:
			// A spare may hold partial state; it does not return to the
			// pool. The member stays failed (degraded service continues).
			s.log("rebuild-error", member, err.Error())
		case decl:
			s.log("rebuild-done", member, "chunks relocated; drive retired")
		default:
			s.det.Reset(member)
			s.log("rebuild-done", member, fmt.Sprintf("member now served by node %d", int(dest)))
		}
		cb(err)
		s.tryRebuild()
	})
}
