package experiments

import "fmt"

// Expectation encodes one of the paper's claims as a machine-checkable
// predicate over a regenerated figure — the artifact-evaluation view of the
// reproduction. Bounds are deliberately looser than the measured values in
// EXPERIMENTS.md: they assert the SHAPE (who wins, rough factor, crossover),
// not the calibration.
type Expectation struct {
	FigureID string
	Claim    string
	Check    func(Figure) error
}

// series returns the named series of f.
func series(f Figure, name string) (Series, error) {
	for _, s := range f.Series {
		if s.System == name {
			return s, nil
		}
	}
	return Series{}, fmt.Errorf("series %q missing from %s", name, f.ID)
}

// at returns the point with the given label.
func at(s Series, label string) (Point, error) {
	for _, p := range s.Points {
		if p.Label == label {
			return p, nil
		}
	}
	return Point{}, fmt.Errorf("point %q missing from series %s", label, s.System)
}

// bwAt returns the bandwidth of system sys at point label.
func bwAt(f Figure, sys, label string) (float64, error) {
	s, err := series(f, sys)
	if err != nil {
		return 0, err
	}
	p, err := at(s, label)
	if err != nil {
		return 0, err
	}
	return p.BW, nil
}

// maxBW returns the best bandwidth a system reaches anywhere on the figure.
func maxBW(f Figure, sys string) (float64, error) {
	s, err := series(f, sys)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, p := range s.Points {
		if p.BW > best {
			best = p.BW
		}
	}
	return best, nil
}

// ratioCheck asserts dRAID/SPDK (or any pair) at one point is within
// [lo, hi].
func ratioCheck(num, den, label string, lo, hi float64) func(Figure) error {
	return func(f Figure) error {
		a, err := bwAt(f, num, label)
		if err != nil {
			return err
		}
		b, err := bwAt(f, den, label)
		if err != nil {
			return err
		}
		r := a / b
		if r < lo || r > hi {
			return fmt.Errorf("%s/%s at %s = %.2fx, want [%.2f, %.2f]", num, den, label, r, lo, hi)
		}
		return nil
	}
}

const goodputMBps = 11485 // ~92 Gbps on the 100 Gbps NIC

// Expectations lists the paper's checkable claims. Run with RunFigure and
// non-Quick options.
func Expectations() []Expectation {
	return []Expectation{
		{"fig09", "all systems reach NIC goodput on 128 KB reads (§9.2)", func(f Figure) error {
			for _, sys := range []string{"Linux", "SPDK", "dRAID"} {
				bw, err := bwAt(f, sys, "128KB")
				if err != nil {
					return err
				}
				if bw < 0.9*goodputMBps {
					return fmt.Errorf("%s 128KB read = %.0f, want ≥ 90%% of goodput", sys, bw)
				}
			}
			return nil
		}},
		{"fig10", "dRAID beats SPDK on 128 KB RMW writes (paper 1.7x; ≥1.3x required)",
			ratioCheck("dRAID", "SPDK", "128KB", 1.3, 2.5)},
		{"fig10", "full-stripe writes (3584 KB) are handled identically (§9.3)",
			ratioCheck("dRAID", "SPDK", "3584KB", 0.97, 1.03)},
		{"fig10", "Linux writes are far behind SPDK (§9.3)",
			ratioCheck("Linux", "SPDK", "128KB", 0, 0.55)},
		{"fig11", "dRAID write advantage holds across chunk sizes (§9.3)",
			ratioCheck("dRAID", "SPDK", "512KB", 1.25, 3.0)},
		{"fig12", "SPDK write ceiling is ~half the NIC goodput at width 18 (§9.3)", func(f Figure) error {
			bw, err := bwAt(f, "SPDK", "18")
			if err != nil {
				return err
			}
			if bw < 0.40*goodputMBps || bw > 0.60*goodputMBps {
				return fmt.Errorf("SPDK width-18 write = %.0f, want ~50%% of goodput", bw)
			}
			return nil
		}},
		{"fig12", "dRAID scales near-linearly to ~the goodput at width 18 (paper 84 Gbps)", func(f Figure) error {
			bw, err := bwAt(f, "dRAID", "18")
			if err != nil {
				return err
			}
			if bw < 0.85*goodputMBps {
				return fmt.Errorf("dRAID width-18 write = %.0f, want >= 85%% of goodput", bw)
			}
			return nil
		}},
		{"fig12", "Linux throughput declines with stripe width (§9.3)", func(f Figure) error {
			s, err := series(f, "Linux")
			if err != nil {
				return err
			}
			if s.Points[len(s.Points)-1].BW >= s.Points[0].BW {
				return fmt.Errorf("Linux does not decline: %.0f → %.0f",
					s.Points[0].BW, s.Points[len(s.Points)-1].BW)
			}
			return nil
		}},
		{"fig13", "dRAID gains at every mixed ratio, parity on read-only (§9.3)", func(f Figure) error {
			for _, label := range []string{"0%", "25%", "50%", "75%"} {
				if err := ratioCheck("dRAID", "SPDK", label, 1.15, 2.5)(f); err != nil {
					return err
				}
			}
			return ratioCheck("dRAID", "SPDK", "100%", 0.97, 1.03)(f)
		}},
		{"fig14a", "write-only load sweep: dRAID's ceiling ~2x SPDK's (§9.3)", func(f Figure) error {
			d, err := maxBW(f, "dRAID")
			if err != nil {
				return err
			}
			s, err := maxBW(f, "SPDK")
			if err != nil {
				return err
			}
			if d < 1.8*s {
				return fmt.Errorf("dRAID max %.0f vs SPDK max %.0f = %.2fx, want ≥ 1.8x", d, s, d/s)
			}
			return nil
		}},
		{"fig14b", "50/50 load sweep: up to ~3x improvement (§9.3)", func(f Figure) error {
			d, err := maxBW(f, "dRAID")
			if err != nil {
				return err
			}
			s, err := maxBW(f, "SPDK")
			if err != nil {
				return err
			}
			if d < 2.2*s {
				return fmt.Errorf("dRAID max %.0f vs SPDK max %.0f = %.2fx, want ≥ 2.2x", d, s, d/s)
			}
			return nil
		}},
		{"fig15", "dRAID degraded reads reach ≥90%% of normal-state read (paper 95%)", func(f Figure) error {
			bw, err := bwAt(f, "dRAID", "128KB")
			if err != nil {
				return err
			}
			if bw < 0.90*goodputMBps {
				return fmt.Errorf("dRAID degraded 128KB read = %.0f, want ≥ 90%% of goodput", bw)
			}
			return nil
		}},
		{"fig15", "SPDK degraded reads drop to ~57% of normal (§9.4)", func(f Figure) error {
			bw, err := bwAt(f, "SPDK", "128KB")
			if err != nil {
				return err
			}
			frac := bw / goodputMBps
			if frac < 0.45 || frac > 0.70 {
				return fmt.Errorf("SPDK degraded fraction = %.2f, want ~0.57", frac)
			}
			return nil
		}},
		{"fig15", "Linux degraded reads collapse to ~834 MB/s (§9.4)", func(f Figure) error {
			bw, err := bwAt(f, "Linux", "128KB")
			if err != nil {
				return err
			}
			if bw > 1500 {
				return fmt.Errorf("Linux degraded read = %.0f, want ≤ 1500", bw)
			}
			return nil
		}},
		{"fig16", "degraded-read scaling: dRAID up to 2.4x SPDK (≥1.5x required)", func(f Figure) error {
			return ratioCheck("dRAID", "SPDK", "18", 1.5, 3.0)(f)
		}},
		{"fig17a", "rebuild scales with width for dRAID, collapses for SPDK (§9.4)",
			ratioCheck("dRAID", "SPDK", "18", 2.0, 8.0)},
		{"fig17b", "bandwidth-aware reconstruction gains ~53% at light load (§6.2)", func(f Figure) error {
			r, err := series(f, "Random")
			if err != nil {
				return err
			}
			a, err := series(f, "BW-Aware")
			if err != nil {
				return err
			}
			gain := a.Points[0].BW / r.Points[0].BW
			if gain < 1.25 {
				return fmt.Errorf("BW-aware gain at light load = %.2fx, want ≥ 1.25x", gain)
			}
			return nil
		}},
		{"fig18", "degraded writes: dRAID keeps its lead (paper 1.7x; ≥1.3x required)",
			ratioCheck("dRAID", "SPDK", "128KB", 1.3, 2.5)},
		{"fig23", "RAID-6 128 KB writes: dRAID leads (paper 2.3x; ≥1.3x required)",
			ratioCheck("dRAID", "SPDK", "128KB", 1.3, 3.0)},
		{"fig23", "RAID-6 full stripe (3072 KB) identical",
			ratioCheck("dRAID", "SPDK", "3072KB", 0.97, 1.03)},
		{"fig25", "RAID-6 width scaling: SPDK can hardly scale, dRAID near-linear (§A.2)",
			ratioCheck("dRAID", "SPDK", "18", 1.8, 4.0)},
		{"fig28", "RAID-6 degraded reads: SPDK at ~61% of dRAID (§A.3)", func(f Figure) error {
			s, err := bwAt(f, "SPDK", "128KB")
			if err != nil {
				return err
			}
			d, err := bwAt(f, "dRAID", "128KB")
			if err != nil {
				return err
			}
			frac := s / d
			if frac < 0.50 || frac > 0.75 {
				return fmt.Errorf("SPDK/dRAID degraded = %.2f, want ~0.61", frac)
			}
			return nil
		}},
		{"ablation-hostparity", "peer-to-peer parity is the load-bearing design choice (≥2x host-side)",
			ratioCheck("dRAID (peer-to-peer parity)", "dRAID (host parity)", "128KB", 2.0, 5.0)},
		{"decluster", "declustered rebuild at 3x the drives completes in ≤0.6x the time (many-to-many)", func(f Figure) error {
			s, err := series(f, "declustered")
			if err != nil {
				return err
			}
			small, err := at(s, "6")
			if err != nil {
				return err
			}
			big, err := at(s, "18")
			if err != nil {
				return err
			}
			if small.Lat <= 0 || big.Lat > 0.6*small.Lat {
				return fmt.Errorf("declustered rebuild: 18 drives %.0fus vs 6 drives %.0fus = %.2fx, want ≤ 0.6x",
					big.Lat, small.Lat, big.Lat/small.Lat)
			}
			return nil
		}},
		{"decluster", "fixed-layout rebuild time stays flat as the cluster grows (±10%)", func(f Figure) error {
			s, err := series(f, "fixed")
			if err != nil {
				return err
			}
			lo, hi := 0.0, 0.0
			for i, p := range s.Points {
				if p.Lat <= 0 {
					return fmt.Errorf("fixed rebuild at %s took no time", p.Label)
				}
				if i == 0 || p.Lat < lo {
					lo = p.Lat
				}
				if i == 0 || p.Lat > hi {
					hi = p.Lat
				}
			}
			if hi > 1.1*lo {
				return fmt.Errorf("fixed rebuild spread = %.2fx across cluster sizes, want ≤ 1.1x", hi/lo)
			}
			return nil
		}},
		{"greyfail", "hedging cuts read p99 ≥2x under a 10x-slow member (qd=16)", func(f Figure) error {
			off, err := series(f, "off")
			if err != nil {
				return err
			}
			fd, err := series(f, "fixed-delay")
			if err != nil {
				return err
			}
			po, err := at(off, "qd=16")
			if err != nil {
				return err
			}
			pf, err := at(fd, "qd=16")
			if err != nil {
				return err
			}
			if pf.Lat*2 > po.Lat {
				return fmt.Errorf("read p99: off %.0fus vs fixed-delay %.0fus = %.2fx cut, want ≥ 2x",
					po.Lat, pf.Lat, po.Lat/pf.Lat)
			}
			return nil
		}},
		{"multivol-noisy", "per-volume QoS keeps the victim's write p99 within 1.5x of isolated", func(f Figure) error {
			shared, err := series(f, "victim rnd-wr")
			if err != nil {
				return err
			}
			qos, err := series(f, "victim (QoS)")
			if err != nil {
				return err
			}
			iso, err := at(shared, "qd=0")
			if err != nil {
				return err
			}
			hurt, err := at(shared, "qd=32")
			if err != nil {
				return err
			}
			kept, err := at(qos, "qd=32")
			if err != nil {
				return err
			}
			// Extra carries the victim's write p99 in us. The unprotected
			// series must show real interference, else the claim is vacuous.
			if hurt.Extra < 3*iso.Extra {
				return fmt.Errorf("aggressor barely hurts: shared p99 %.0fus vs isolated %.0fus", hurt.Extra, iso.Extra)
			}
			if kept.Extra > 1.5*iso.Extra {
				return fmt.Errorf("QoS victim p99 %.0fus = %.2fx isolated %.0fus, want ≤ 1.5x",
					kept.Extra, kept.Extra/iso.Extra, iso.Extra)
			}
			return nil
		}},
		{"writeback", "staging cuts sub-chunk write amplification to ≤1.3x where unstaged pays ≥2x", func(f Figure) error {
			staged, err := series(f, "staged")
			if err != nil {
				return err
			}
			unstaged, err := series(f, "unstaged")
			if err != nil {
				return err
			}
			ps, err := at(staged, "64KB")
			if err != nil {
				return err
			}
			pu, err := at(unstaged, "64KB")
			if err != nil {
				return err
			}
			// Extra carries drive-byte amplification at equal data written.
			if pu.Extra < 2.0 {
				return fmt.Errorf("unstaged 64KB amplification = %.2fx, want ≥ 2x (RMW pays data+parity)", pu.Extra)
			}
			if ps.Extra > 1.3 {
				return fmt.Errorf("staged 64KB amplification = %.2fx, want ≤ 1.3x (full-stripe destage)", ps.Extra)
			}
			if ps.Extra < 1.0 {
				return fmt.Errorf("staged 64KB amplification = %.2fx < 1x: drives missing bytes after flush", ps.Extra)
			}
			return nil
		}},
		{"writeback", "full-stripe writes are unaffected by staging (both ~(k+1)/k)", func(f Figure) error {
			for _, sys := range []string{"staged", "unstaged"} {
				s, err := series(f, sys)
				if err != nil {
					return err
				}
				pt, err := at(s, "448KB")
				if err != nil {
					return err
				}
				if pt.Extra < 1.0 || pt.Extra > 1.3 {
					return fmt.Errorf("%s 448KB amplification = %.2fx, want ~1.14x", sys, pt.Extra)
				}
			}
			return nil
		}},
	}
}
