package experiments

import (
	"fmt"
	"time"

	"draid"
	"draid/internal/fio"
)

// Greyfail is the grey-failure experiment: one member of an 8-wide RAID-5
// array is made deterministically slow (10× service-time inflation — it
// answers correctly, just late) and a full-stripe random-read workload sweeps
// queue depth with hedging off and on. The figure reports read p99 (Lat) and
// p999 (Extra) per series: without hedging every read that touches the grey
// member waits out its straggler; with a 500µs hedge delay the host solves
// the straggler's chunk through parity from the k completions it already
// holds. Hedging also feeds the failure detector's slow-strike lattice, so
// the grey member is eventually evicted and reads continue degraded at zero
// extra cost — the "fixed-delay/no-evict" series isolates what eviction
// buys. Notes carry the drive-read amplification each series paid.
func Greyfail(o Options) Figure {
	o = o.withDefaults()
	qds := []int{8, 16, 32}
	policies := []greyfailPolicy{
		{label: "off"},
		{label: "fixed-delay", delay: 500 * time.Microsecond},
		{label: "fixed-delay/no-evict", delay: 500 * time.Microsecond, noEvict: true},
	}
	if o.Quick {
		qds = []int{16}
		policies = policies[:2]
	}

	type cell struct {
		p    Point
		note string
	}
	grid := parMap(o.parallel(), len(policies)*len(qds), func(idx int) cell {
		pol := policies[idx/len(qds)]
		qd := qds[idx%len(qds)]
		r, note := greyfailPoint(o, pol, qd)
		return cell{
			p: Point{
				X: float64(qd), Label: fmt.Sprintf("qd=%d", qd),
				BW:  r.BandwidthMBps(),
				Lat: r.ReadLat.P99 / 1e3, Extra: r.ReadLat.P999 / 1e3,
			},
			note: note,
		}
	})

	fig := Figure{
		ID:     "greyfail",
		Title:  "Grey failure: read p99 vs hedging (8-wide RAID-5, full-stripe reads, member 2 at 10x latency)",
		XLabel: "queue depth",
		Notes: []string{
			"Lat column is read p99 in us; Extra (per-point) is p999",
			"slow member injected via SlowProfile{const,10x}; hedge solves k-of-n through parity",
		},
	}
	for pi, pol := range policies {
		s := Series{System: pol.label}
		for qi := range qds {
			c := grid[pi*len(qds)+qi]
			s.Points = append(s.Points, c.p)
			if qi == len(qds)-1 {
				fig.Notes = append(fig.Notes, c.note)
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

type greyfailPolicy struct {
	label   string
	delay   time.Duration // hedge delay; 0 = off
	noEvict bool
}

// greyfailPoint measures one (series, queue depth) cell on a fresh array and
// returns the fio result plus a note summarizing what the series cost:
// drive-read amplification over the user bytes, hedge counts, and whether
// the detector evicted the grey member.
func greyfailPoint(o Options, pol greyfailPolicy, qd int) (fio.Result, string) {
	evictAfter := 0 // default (64)
	if pol.noEvict {
		evictAfter = -1
	}
	arr, err := draid.New(draid.Config{
		Drives: 8, ChunkSize: 64 << 10, SizeOnly: true, Seed: o.Seed,
		HedgeDelay: pol.delay,
		Health: draid.HealthConfig{
			// The detector here consumes only slow strikes from the hedger;
			// park the heartbeat prober far beyond the run so fault evidence
			// cannot contribute.
			Detect: true, HeartbeatEvery: time.Hour, EvictAfter: evictAfter,
		},
	})
	if err != nil {
		panic(err)
	}
	if err := arr.Inject().SlowDrive(2, draid.SlowProfile{Kind: draid.SlowConstant, Factor: 10}); err != nil {
		panic(err)
	}
	geo := arr.Controller().Geometry()
	r := fio.Run(fio.Job{
		Name: pol.label, Dev: arr.Controller(), Eng: arr.Cluster().Rt,
		IOSize: geo.StripeDataSize(), ReadRatio: 1, QueueDepth: qd,
		Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed,
	})

	var driveBytes int64
	for _, d := range arr.Cluster().Drives {
		driveBytes += d.Stats().ReadBytes
	}
	st := arr.Stats()
	amp := 0.0
	if st.UserBytesRead > 0 {
		amp = 100 * (float64(driveBytes)/float64(st.UserBytesRead) - 1)
	}
	evicted := "grey member still in service"
	if h := arr.MemberHealth(); h[2] == draid.Failed {
		evicted = "grey member evicted"
	} else if h[2] == draid.Degraded || h[2] == draid.Suspect {
		evicted = "grey member " + h[2].String()
	}
	note := fmt.Sprintf("%s @qd=%d: %+.1f%% drive-read amplification, %d hedged / %d wins, %s",
		pol.label, qd, amp, st.HedgedReads, st.HedgeWins, evicted)
	return r, note
}

// RealtimeGreyfail is the realtime counterpart: the same grey-failure
// scenario driven through the realtime backend's memory drives, whose slow
// profile inflates a synthetic per-op latency instead of a modeled service
// rate. One point with hedging off and one with a 2ms hedge delay, at a fixed
// queue depth — wall-clock quantiles, so shapes matter, not magnitudes.
func RealtimeGreyfail(o Options, ro draid.RealtimeOptions) (Figure, error) {
	o = o.withDefaults()
	if ro.Dir != "" {
		return Figure{}, fmt.Errorf("experiments: greyfail needs slow-drive injection, unsupported on file-backed drives: %w", draid.ErrUnsupported)
	}
	policies := []greyfailPolicy{
		{label: "off"},
		{label: "fixed-delay", delay: 2 * time.Millisecond},
	}
	s := Series{System: "dRAID (realtime)"}
	for _, pol := range policies {
		arr, err := draid.New(draid.Config{
			Backend: draid.BackendRealtime, Realtime: ro,
			Drives: 8, ChunkSize: 64 << 10, DriveCapacity: 256 << 20,
			SizeOnly: true, Seed: o.Seed,
			HedgeDelay: pol.delay,
		})
		if err != nil {
			return Figure{}, err
		}
		// The realtime drives' slow profile inflates a synthetic latency, so
		// the penalty must clear wall-clock scheduling noise: 20x on a 500us
		// base pins the straggler ~9.5ms late, far above any hedge path.
		if err := arr.Inject().SlowDrive(2, draid.SlowProfile{
			Kind: draid.SlowConstant, Factor: 20, Base: 500 * time.Microsecond,
		}); err != nil {
			arr.Close()
			return Figure{}, err
		}
		geo := arr.Controller().Geometry()
		r := fio.Run(fio.Job{
			Name: pol.label, Dev: arr.Controller(), Eng: arr.Cluster().Rt,
			IOSize: geo.StripeDataSize(), ReadRatio: 1, QueueDepth: 16,
			Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed,
		})
		arr.Close()
		s.Points = append(s.Points, Point{
			X: float64(len(s.Points)), Label: pol.label,
			BW: r.BandwidthMBps(), Lat: r.ReadLat.P99 / 1e3, Extra: r.ReadLat.P999 / 1e3,
		})
	}
	return Figure{
		ID:     "greyfail",
		Title:  "Grey failure: read p99 with and without hedging (8-wide RAID-5, member 2 at 20x, realtime backend)",
		XLabel: "hedging",
		Series: []Series{s},
		Notes:  []string{"Lat column is read p99 in us; Extra is p999 (wall clock)"},
	}, nil
}
