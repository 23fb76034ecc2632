package core

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
)

// This file implements hedged reads: the grey-failure counterpart of the
// §6.1 degraded read. A drive that is slow — not dead — stalls exactly one
// chunk of an otherwise-complete stripe read. Instead of waiting out the
// straggler (or the §5.4 deadline), the host reads the stripe's P chunk,
// reuses the data completions it already holds, and XOR-solves the
// straggler's range: any k of the n members answer the read. The loser is
// cancelled, and the health detector is told the member was slow so
// persistent laggards are eventually evicted rather than hedged forever.
//
// With Config.HedgeDelay zero (the default) none of this code runs and the
// read path is byte-identical to the pre-hedging implementation.

// SlowSink is the optional grey-failure extension of HealthSink: ObserveSlow
// reports that a member was the straggler a hedged read had to solve around.
// Implementations (the repair detector) feed it into degraded→suspect→failed
// transitions so persistently slow members are evicted.
type SlowSink interface {
	ObserveSlow(member int)
}

// observeSlow forwards straggler evidence to the health sink, if it cares.
// Like all health evidence, slowness is attributed in drive space.
func (h *HostController) observeSlow(drive int) {
	if s, ok := h.health.(SlowSink); ok && drive >= 0 && drive < len(h.memberNode) {
		s.ObserveSlow(drive)
	}
}

// hedgeRead coordinates the extents of one all-healthy stripe group so that
// a single straggler can be solved through parity from the k completions
// already in hand.
type hedgeRead struct {
	h      *HostController
	stripe int64
	exts   []raid.Extent
	asm    *assembler
	fail   *error
	done   func()

	settled []bool
	// recovering marks extents whose primary handed off to media recovery
	// or the degraded path — those paths own the extent's completion and
	// already read parity themselves, so the hedge must stand down.
	recovering  []bool
	ops         []*stripeOp
	outstanding int

	timer     backend.Timer
	triggered bool
	finished  bool
	hedgeDead bool // a hedge attempt failed; primary path owns the op now
	resolving bool
}

// hedgedReadStripe issues the group's primary reads and arms the hedge.
// Calls done exactly once when every extent has settled (or failed, with
// *fail set).
func (h *HostController) hedgedReadStripe(stripe int64, exts []raid.Extent, asm *assembler, fail *error, done func()) {
	hr := &hedgeRead{
		h: h, stripe: stripe, exts: exts, asm: asm, fail: fail, done: done,
		settled:     make([]bool, len(exts)),
		recovering:  make([]bool, len(exts)),
		ops:         make([]*stripeOp, len(exts)),
		outstanding: len(exts),
	}
	for i := range exts {
		hr.issuePrimary(i, 0)
	}
	hr.timer = h.rt.After(h.cfg.HedgeDelay, hr.trigger)
}

// issuePrimary sends the plain read for extent i (attempt counts retries).
func (hr *hedgeRead) issuePrimary(i, attempt int) {
	h := hr.h
	e := hr.exts[i]
	target := h.nodeAt(e.Stripe, h.geo.DataDrive(e.Stripe, e.Chunk))
	absOff := h.driveOff(e.Stripe) + e.Off
	op := h.newStripeOp("read", e.Stripe, 1, []NodeID{target},
		func() {
			hr.ops[i] = nil
			hr.settle(i)
		},
		func(missing []NodeID) { hr.primaryFailed(i, missing, attempt) },
	)
	hr.ops[i] = op
	op.onPayload = func(_ NodeID, _ nvmeof.Command, b parity.Buffer) {
		if !hr.settled[i] {
			hr.asm.put(e.VOff, b)
		}
	}
	op.onMediaErr = func(m int, _ nvmeof.Command) {
		// Media recovery owns this extent now; the hedge must not race it
		// (it writes the same assembler), and abandoning the straggler here
		// would be wrong anyway — the URE victim's data comes back through
		// the parity gather inside recovery.
		hr.ops[i] = nil
		hr.recovering[i] = true
		h.mediaRecoverExtent(e, m, hr.asm, hr.fail, func() { hr.settle(i) })
	}
	h.send(op, target, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: e.Len}, parity.Buffer{})
}

// primaryFailed mirrors readFailurePath for a hedged group's extent.
func (hr *hedgeRead) primaryFailed(i int, missing []NodeID, attempt int) {
	h := hr.h
	e := hr.exts[i]
	if hr.settled[i] || hr.finished {
		return
	}
	if attempt >= h.maxRetries() {
		*hr.fail = fmt.Errorf("core: stripe %d read: retries exhausted: %w", e.Stripe, blockdev.ErrTimeout)
		hr.ops[i] = nil
		hr.settle(i)
		return
	}
	h.stats.Retries++
	if len(missing) == 0 {
		h.retryAfter(attempt, func() {
			if !hr.settled[i] && !hr.finished {
				hr.issuePrimary(i, attempt+1)
			}
		})
		return
	}
	for _, m := range missing {
		h.failNode(m)
	}
	hr.ops[i] = nil
	hr.recovering[i] = true
	h.degradedReadStripe(e.Stripe, e, nil, hr.asm, hr.fail, func() { hr.settle(i) })
}

// settle marks extent i complete; the last settle finishes the group.
func (hr *hedgeRead) settle(i int) {
	if hr.settled[i] || hr.finished {
		return
	}
	hr.settled[i] = true
	hr.outstanding--
	if hr.outstanding == 0 {
		hr.finish()
		return
	}
	hr.maybeResolve()
}

// finish retires the group: stop the hedge trigger and report to the caller
// exactly once.
func (hr *hedgeRead) finish() {
	if hr.finished {
		return
	}
	hr.finished = true
	if hr.timer != nil {
		hr.timer.Stop()
	}
	hr.done()
}

func (hr *hedgeRead) trigger() {
	hr.triggered = true
	hr.maybeResolve()
}

// maybeResolve hedges when the trigger has fired and exactly one extent is
// still outstanding — the straggler condition. (With two or more stragglers
// RAID-5 parity cannot solve them all; the §5.4 deadline handles genuine
// multi-member trouble.)
func (hr *hedgeRead) maybeResolve() {
	if hr.finished || !hr.triggered || hr.hedgeDead || hr.resolving {
		return
	}
	if hr.outstanding != 1 {
		return
	}
	i := -1
	for j := range hr.settled {
		if !hr.settled[j] {
			i = j
			break
		}
	}
	if i < 0 || hr.recovering[i] {
		return
	}
	h := hr.h
	if h.memberFailed(hr.stripe, h.geo.PDrive(hr.stripe)) {
		return // no parity to solve through
	}
	hr.resolving = true
	h.stats.HedgedReads++
	hr.resolve(i)
}

// resolve reads whatever the XOR solve still needs — the P chunk and any
// data chunk not covered by a settled extent — then solves the straggler's
// range and cancels the loser. For an aligned
// full-stripe read every other data chunk is already in hand, so the hedge
// costs exactly one extra parity read.
func (hr *hedgeRead) resolve(i int) {
	h := hr.h
	e := hr.exts[i]
	stripe := hr.stripe
	rOff, rLen := e.Off, e.Len
	absOff := h.driveOff(stripe) + rOff

	// Classify every other data chunk: covered by a settled extent (slice
	// the assembler) or fetched by the hedge op.
	type cover struct {
		target NodeID
		buf    parity.Buffer
	}
	var settledSrcs []parity.Buffer
	var fetches []*cover
	byNode := make(map[NodeID]*cover)
	for c := 0; c < h.geo.DataChunks(); c++ {
		if c == e.Chunk {
			continue
		}
		d := h.geo.DataDrive(stripe, c)
		if h.memberFailed(stripe, d) {
			// The stripe went degraded under us (rebuild/eviction races);
			// reconstruction through this path needs the full §6.1
			// machinery, not a hedge. Stand down.
			hr.resolving = false
			hr.hedgeDead = true
			return
		}
		var own *raid.Extent
		for j := range hr.exts {
			if hr.settled[j] && hr.exts[j].Chunk == c &&
				hr.exts[j].Off <= rOff && hr.exts[j].Off+hr.exts[j].Len >= rOff+rLen {
				own = &hr.exts[j]
				break
			}
		}
		if own != nil && !hr.asm.elided {
			settledSrcs = append(settledSrcs,
				hr.asm.buf.Slice(int(own.VOff+(rOff-own.Off)), int(rLen)))
			continue
		}
		if own != nil && hr.asm.elided {
			// Size-only mode: the data "exists", no bytes to slice.
			continue
		}
		cv := &cover{target: h.nodeAt(stripe, d)}
		fetches = append(fetches, cv)
		byNode[cv.target] = cv
	}

	pTarget := h.nodeAt(stripe, h.geo.PDrive(stripe))
	watch := []NodeID{pTarget}
	for _, cv := range fetches {
		watch = append(watch, cv.target)
	}
	var pBuf parity.Buffer
	op := h.newStripeOp("hedge-read", stripe, len(watch), watch,
		func() {
			elided := hr.asm.elided || pBuf.Elided()
			if !elided {
				for _, cv := range fetches {
					if cv.buf.Elided() {
						elided = true
						break
					}
				}
			}
			h.cores.Exec(h.cfg.Costs.Gf(int(rLen)), func() {
				if hr.finished || hr.settled[i] || hr.recovering[i] {
					return
				}
				var out parity.Buffer
				if elided {
					out = parity.Sized(int(rLen))
				} else {
					acc := pBuf.Clone()
					for _, s := range settledSrcs {
						acc = parity.XORInto(acc, s)
					}
					for _, cv := range fetches {
						acc = parity.XORInto(acc, cv.buf)
					}
					out = acc
				}
				if op := hr.ops[i]; op != nil {
					h.cancelOp(op, "hedged")
					hr.ops[i] = nil
				}
				h.stats.HedgeWins++
				h.observeSlow(h.layout.Drive(stripe, h.geo.DataDrive(stripe, e.Chunk)))
				hr.asm.put(e.VOff, out)
				hr.settle(i)
			})
		},
		func([]NodeID) {
			// The hedge lost its own race (timeout, member loss). The
			// primary straggler still owns correctness; just stand down.
			hr.hedgeDead = true
		},
	)
	op.onPayload = func(from NodeID, _ nvmeof.Command, b parity.Buffer) {
		if cv := byNode[from]; cv != nil {
			cv.buf = b
			return
		}
		if from == pTarget {
			pBuf = b
		}
	}
	op.onMediaErr = func(int, nvmeof.Command) {
		// A hedge source hit a URE: never solve from partial sources. The
		// primary path (and repair-on-read, if the straggler itself faults)
		// retains responsibility for this extent.
		hr.hedgeDead = true
	}
	h.send(op, pTarget, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: rLen}, parity.Buffer{})
	for _, cv := range fetches {
		h.send(op, cv.target, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: rLen}, parity.Buffer{})
	}
}
