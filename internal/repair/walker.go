package repair

import (
	"draid/internal/backend"
	"draid/internal/sim"
	"draid/internal/trace"
)

// walker is the paced stripe walk behind every repair job — rebuild,
// rebalance and scrub. It runs one step at a time, in order, and spaces
// step starts with a token bucket so each step's bytes drain at the
// configured rate: the private bucket (RateMBps) anchored at the last
// step's start, or the cluster-shared RateLimiter when one is set.
type walker struct {
	eng backend.Runtime
	// RateMBps and Limiter are the job config's fields of the same name:
	// the private bucket's rate (0 means unthrottled), and the shared
	// bucket that replaces it when non-nil.
	RateMBps float64
	Limiter  *RateLimiter
	cost     int64 // bytes one step moves
	bg       bool  // schedule on background timers (periodic scrub)
	// halt, when non-nil, is checked before each step: true ends the walk
	// cleanly, as if every step had run.
	halt func() bool
}

// walk calls step(i, next) for i in [0, n), starting step i+1 only after
// step i has called next(nil). The first error passed to next ends the
// walk; done then receives it (nil after the last step). The returned end
// function stops the walk at once with err: done(err) runs now, and any
// later step completion is ignored.
func (w walker) walk(n int64, step func(i int64, next func(error)), done func(error)) (end func(error)) {
	var gap sim.Duration
	if w.RateMBps > 0 {
		bytesPerNs := w.RateMBps * 1e6 / 1e9
		gap = sim.Duration(float64(w.cost) / bytesPerNs)
	}
	lastStart := w.eng.Now()
	over := false
	end = func(err error) {
		if !over {
			over = true
			done(err)
		}
	}

	var next func(i int64)
	next = func(i int64) {
		if over {
			return
		}
		if i >= n || (w.halt != nil && w.halt()) {
			end(nil)
			return
		}
		run := func() {
			if over {
				return
			}
			lastStart = w.eng.Now()
			step(i, func(err error) {
				if err != nil {
					end(err)
					return
				}
				next(i + 1)
			})
		}
		// Token bucket: the next step may not start before the previous
		// one's bytes have drained at the rate. A shared limiter reserves
		// from the cross-volume budget instead.
		var wait sim.Duration
		if w.Limiter != nil {
			wait = w.Limiter.Reserve(w.cost)
		} else if gap > 0 {
			wait = sim.Duration(lastStart+sim.Time(gap)) - sim.Duration(w.eng.Now())
		}
		switch {
		case w.bg:
			w.eng.AfterBG(max(wait, 0), run)
		case wait > 0:
			w.eng.After(wait, run)
		default:
			w.eng.Defer(run)
		}
	}
	next(0)
	return end
}

// outcome is a repair job's span result: ok, or aborted by err.
func outcome(err error) trace.Arg {
	if err != nil {
		return trace.Str("result", "aborted")
	}
	return trace.Str("result", "ok")
}
