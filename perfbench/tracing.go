package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/hist"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
)

// The traced run times calls into each layer's public entry points from
// here, by wrapping them: the backend.Transport (Send, and every handler
// registered on it), every backend.Drive (Read/Write and their callbacks),
// every node's backend.Executor (the realtime backend runs a capsule's CPU
// work as an executor task posted after the handler returns), and the host
// controller's Read/Write. Each wrapper opens a span on the node whose event
// loop it runs on; a span's self time is its duration minus the time of the
// spans nested in it.
//
// Work is attributed to the entry point that caused it: an executor task or
// drive completion inherits the attribution of the span that posted it, so
// a server's handler, executor and drive-completion time for one capsule
// all count towards that capsule's opcode.

// Attributions.
const (
	attrNone uint16 = iota
	attrSubmit
	attrComplete
	attrClient
	attrSend
	attrDrive
	attrOp = 0x100 // + opcode: server work for a capsule of that opcode
	nAttr  = 0x200
)

const (
	spansPerNode  = 10000 // spans kept per node for the span file
	sampleEvery   = 16    // every 16th sent capsule is kept for codec timing
	samplePerNode = 4096
)

// tracer owns the per-node span state. Each nodeTrace is touched only from
// its node's event loop; pairs carry send times from sender to receiver.
type tracer struct {
	on         atomic.Bool
	flipReads  bool // corrupt one byte of every drive read (tests)
	nodes      []*nodeTrace
	pairs      [][]pairQueue
	windowNs   int64
	windowFrom int64
}

func newTracer(width int) *tracer {
	t := &tracer{}
	for i := -1; i < width; i++ {
		t.nodes = append(t.nodes, &nodeTrace{id: backend.NodeID(i), tr: t, waits: hist.New()})
	}
	t.pairs = make([][]pairQueue, width+1)
	for i := range t.pairs {
		t.pairs[i] = make([]pairQueue, width+1)
	}
	return t
}

func (t *tracer) node(id backend.NodeID) *nodeTrace { return t.nodes[id+1] }

func (t *tracer) pair(from, to backend.NodeID) *pairQueue { return &t.pairs[from+1][to+1] }

// start and stop bracket a measurement window; spans begun inside it count.
func (t *tracer) start(at int64) {
	t.windowFrom = at
	t.on.Store(true)
}

func (t *tracer) stop(at int64) {
	t.on.Store(false)
	t.windowNs += at - t.windowFrom
}

type frame struct {
	id, parent uint64
	name       string
	attr       uint16
	start      int64
	child      int64 // time covered by nested spans
	rec        bool  // begun inside the window
}

type span struct {
	id, parent uint64
	name       string
	attr       uint16
	start, end int64
}

type nodeTrace struct {
	id      backend.NodeID
	tr      *tracer
	seq     uint64
	stack   []frame
	spans   []span
	dropped int64

	self  [nAttr]int64 // self time by attribution
	calls [nAttr]int64 // entry-point calls by attribution
	busy  int64        // time in top-level spans

	sentPayload int64
	sentByOp    [256]int64 // capsules sent, by opcode
	sentBytes   [256]int64 // payload bytes sent, by opcode
	sample      []nvmeof.Command
	waits       *hist.Histogram // send → handler start, ns

	driveNs    [2]int64 // read, write service time
	driveOps   [2]int64
	driveBytes [2]int64
}

func (n *nodeTrace) begin(name string, parent uint64, attr uint16) uint64 {
	n.seq++
	id := uint64(n.id+2)<<40 | n.seq
	if parent == 0 && len(n.stack) > 0 {
		parent = n.stack[len(n.stack)-1].id
	}
	n.stack = append(n.stack, frame{id: id, parent: parent, name: name, attr: attr,
		start: nanotime(), rec: n.tr.on.Load()})
	return id
}

// end closes the innermost span and returns it with its self time.
func (n *nodeTrace) end() (frame, int64) {
	f := n.stack[len(n.stack)-1]
	n.stack = n.stack[:len(n.stack)-1]
	now := nanotime()
	dur := now - f.start
	self := dur - f.child
	if len(n.stack) > 0 {
		n.stack[len(n.stack)-1].child += dur
	}
	if !f.rec {
		return f, self
	}
	n.self[f.attr] += self
	if len(n.stack) == 0 {
		n.busy += dur
	}
	if len(n.spans) < spansPerNode {
		n.spans = append(n.spans, span{f.id, f.parent, f.name, f.attr, f.start, now})
	} else {
		n.dropped++
	}
	return f, self
}

// current returns the innermost open span and its attribution.
func (n *nodeTrace) current() (uint64, uint16) {
	if len(n.stack) == 0 {
		return 0, attrNone
	}
	f := n.stack[len(n.stack)-1]
	if f.attr == attrSend || f.attr == attrDrive {
		return f.id, attrNone
	}
	return f.id, f.attr
}

// pairQueue carries one ordered pair's send records to the receiver. The
// transports deliver FIFO per pair, so the receiver finds its record at or
// near the front; records of capsules that never arrived are skipped.
type pairQueue struct {
	mu sync.Mutex
	q  []sendRec
}

type sendKey struct {
	id      uint64
	op      nvmeof.Opcode
	sub     nvmeof.Subtype
	status  nvmeof.Status
	off, ln int64
}

type sendRec struct {
	key  sendKey
	span uint64
	at   int64
}

func keyOf(c *nvmeof.Command) sendKey {
	return sendKey{c.ID, c.Opcode, c.Subtype, c.Status, c.Offset, c.Length}
}

func (p *pairQueue) push(r sendRec) {
	p.mu.Lock()
	p.q = append(p.q, r)
	p.mu.Unlock()
}

func (p *pairQueue) pop(k sendKey) (sendRec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.q) && i < 8; i++ {
		if p.q[i].key == k {
			r := p.q[i]
			p.q = p.q[i+1:]
			return r, true
		}
	}
	return sendRec{}, false
}

// tracedFabric wraps a backend.Transport and every handler registered on it.
type tracedFabric struct {
	backend.Transport
	tr *tracer
}

func (t *tracer) transport(inner backend.Transport) *tracedFabric {
	return &tracedFabric{Transport: inner, tr: t}
}

func (f *tracedFabric) Send(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	n := f.tr.node(from)
	id := n.begin("fabric.send", 0, attrSend)
	f.tr.pair(from, to).push(sendRec{keyOf(&cmd), id, n.stack[len(n.stack)-1].start})
	f.Transport.Send(from, to, cmd, payload)
	if fr, _ := n.end(); !fr.rec {
		return
	}
	n.calls[attrSend]++
	n.sentPayload += int64(payload.Len())
	n.sentByOp[cmd.Opcode]++
	n.sentBytes[cmd.Opcode] += int64(payload.Len())
	if n.calls[attrSend]%sampleEvery == 0 && len(n.sample) < samplePerNode {
		n.sample = append(n.sample, cmd)
	}
}

func (f *tracedFabric) Register(id backend.NodeID, h backend.Handler) {
	f.Transport.Register(id, f.wrap(id, h))
}

func (f *tracedFabric) RegisterVolume(id backend.NodeID, vol backend.VolumeID, h backend.Handler) {
	f.Transport.RegisterVolume(id, vol, f.wrap(id, h))
}

func (f *tracedFabric) wrap(to backend.NodeID, h backend.Handler) backend.Handler {
	n := f.tr.node(to)
	return func(m backend.Message) {
		sent, ok := f.tr.pair(m.From, to).pop(keyOf(&m.Cmd))
		name, attr := "core.host.complete", attrComplete
		if to != backend.HostID {
			name, attr = "core.server.handle", attrOp+uint16(m.Cmd.Opcode)
		}
		n.begin(name, sent.span, attr)
		h(m)
		fr, _ := n.end()
		if !fr.rec {
			return
		}
		n.calls[attr]++
		if ok {
			n.waits.Record(fr.start - sent.at)
		}
	}
}

// tracedExec wraps a node's executor: each task becomes a span attributed
// like the span that posted it.
type tracedExec struct {
	inner backend.Executor
	n     *nodeTrace
	name  string
}

func (t *tracer) executor(id backend.NodeID, inner backend.Executor) tracedExec {
	return tracedExec{inner: inner, n: t.node(id), name: "core.server.exec"}
}

func (e tracedExec) Exec(d sim.Duration, fn func()) {
	parent, attr := e.n.current()
	e.inner.Exec(d, func() {
		e.n.begin(e.name, parent, attr)
		fn()
		e.n.end()
	})
}

// hostRuntime is the host's backend.Runtime with its executor wrapped
// (core.NewHost takes its executor from the runtime).
type hostRuntime struct {
	backend.Runtime
	tracedExec
}

func (t *tracer) hostRuntime(rt interface {
	backend.Runtime
	backend.Executor
}) hostRuntime {
	return hostRuntime{Runtime: rt, tracedExec: tracedExec{inner: rt, n: t.node(backend.HostID), name: "core.host.exec"}}
}

// tracedDrive wraps a backend.Drive: the call is a span, the completion
// callback another whose parent is the call.
type tracedDrive struct {
	backend.Drive
	n    *nodeTrace
	flip bool
}

func (t *tracer) drive(id backend.NodeID, d backend.Drive) *tracedDrive {
	return &tracedDrive{Drive: d, n: t.node(id), flip: t.flipReads}
}

func (d *tracedDrive) Read(off, size int64, cb func(parity.Buffer, error)) {
	_, attr := d.n.current()
	id := d.n.begin("drive.read", 0, attrDrive)
	issued := nanotime()
	d.Drive.Read(off, size, func(b parity.Buffer, err error) {
		done := nanotime()
		if d.flip && err == nil && b.Len() > 0 && !b.Elided() {
			b = b.Clone()
			b.Data()[0] ^= 0xff
		}
		d.n.begin("drive.read.done", id, attr)
		cb(b, err)
		if fr, _ := d.n.end(); fr.rec {
			d.n.driveNs[0] += done - issued
			d.n.driveOps[0]++
			d.n.driveBytes[0] += size
		}
	})
	d.n.end()
}

func (d *tracedDrive) Write(off int64, b parity.Buffer, cb func(error)) {
	_, attr := d.n.current()
	id := d.n.begin("drive.write", 0, attrDrive)
	issued := nanotime()
	d.Drive.Write(off, b, func(err error) {
		done := nanotime()
		d.n.begin("drive.write.done", id, attr)
		cb(err)
		if fr, _ := d.n.end(); fr.rec {
			d.n.driveNs[1] += done - issued
			d.n.driveOps[1]++
			d.n.driveBytes[1] += int64(b.Len())
		}
	})
	d.n.end()
}

// tracedDev times the host controller's Read/Write entry points. post runs
// the call where draid.Array would: a task on the host loop on realtime,
// inline on the simulator. The caller's callback is its own span, so its
// time is not charged to the host.
type tracedDev struct {
	post func(func())
	host *core.HostController
	n    *nodeTrace
}

func (d tracedDev) Read(off, size int64, cb func(parity.Buffer, error)) {
	d.post(func() {
		d.n.begin("core.host.submit", 0, attrSubmit)
		d.host.Read(off, size, func(b parity.Buffer, err error) {
			d.n.begin("client", 0, attrClient)
			cb(b, err)
			d.n.end()
		})
		d.submitted()
	})
}

func (d tracedDev) Write(off int64, b parity.Buffer, cb func(error)) {
	d.post(func() {
		d.n.begin("core.host.submit", 0, attrSubmit)
		d.host.Write(off, b, func(err error) {
			d.n.begin("client", 0, attrClient)
			cb(err)
			d.n.end()
		})
		d.submitted()
	})
}

func (d tracedDev) submitted() {
	if fr, _ := d.n.end(); fr.rec {
		d.n.calls[attrSubmit]++
	}
}

// writeSpans writes the recorded spans as Chrome trace-event JSON (loadable
// in Perfetto): one thread per node, each span's id and parent in its args.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	for _, n := range t.nodes {
		name := fmt.Sprintf("server %d", n.id)
		if n.id == backend.HostID {
			name = "host"
		}
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, n.id+1, name)
		for _, s := range n.spans {
			sep()
			fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
				s.name, attrName(s.attr), n.id+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func attrName(a uint16) string {
	switch {
	case a >= attrOp:
		return "capsule/" + nvmeof.Opcode(a-attrOp).String()
	case a == attrSubmit:
		return "submit"
	case a == attrComplete:
		return "complete"
	case a == attrClient:
		return "client"
	case a == attrSend:
		return "send"
	case a == attrDrive:
		return "drive"
	}
	return "other"
}
