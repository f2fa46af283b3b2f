// Package machine provides the virtual parallel machine on which the
// collective operations run: a fully connected system of p processors in
// which any pair can exchange blocks of m words in time ts + m·tw, and one
// computation operation costs one time unit — exactly the machine and
// implementation model of §4.1 of Gorlatch, Wedler and Lengauer (IPPS'99).
//
// The machine substitutes for the paper's MPI/Parsytec testbed: Go has no
// mature MPI bindings, so processors are goroutines, point-to-point
// messages are channel rendezvous, and *time* is virtual — every processor
// carries a clock advanced by the cost model, so measured run times are
// deterministic and directly comparable with the paper's estimates, while
// the data flow is executed for real (values actually travel between
// goroutines, so correctness is exercised, not assumed).
package machine

import (
	"fmt"
	"sync"
	"time"
)

// Params are the machine parameters of the cost model: Ts is the start-up
// time of a transfer, Tw the per-word transfer time, both in units of one
// computation operation.
type Params struct {
	// Ts is the message start-up time.
	Ts float64
	// Tw is the per-word transfer time.
	Tw float64
}

// DefaultParams resemble the relation between start-up and per-word cost
// on the paper's Parsytec network: start-up dominates by a few orders of
// magnitude.
func DefaultParams() Params { return Params{Ts: 1000, Tw: 1} }

// msg is the §4.1 price of one message of the given size: ts + words·tw.
func (c Params) msg(words int) float64 { return c.Ts + float64(words)*c.Tw }

// Machine is a virtual fully connected parallel machine with P processors.
// Create one with New, then call Run to execute an SPMD program.
type Machine struct {
	// P is the number of processors.
	P int
	// Params are the communication cost parameters.
	Params Params
	// Timeout bounds how long a processor may block in Recv before the
	// run is aborted with a deadlock diagnosis. Zero means no bound.
	Timeout time.Duration
	// MailboxCap overrides the buffer depth per directed processor pair.
	// Zero means the default (4), which is enough for every collective in
	// package coll; fault-injecting decorators that put retransmissions
	// and acknowledgements on the same links want more headroom.
	MailboxCap int

	tracer *Tracer
	// procs is the processor table of the run in progress. A Machine
	// runs one program at a time.
	procs []*Proc
}

// New creates a machine with p processors and the given cost parameters.
func New(p int, params Params) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("machine: need at least 1 processor, got %d", p))
	}
	return &Machine{P: p, Params: params, Timeout: 30 * time.Second}
}

// SetTracer installs an event tracer; pass nil to disable tracing.
func (m *Machine) SetTracer(t *Tracer) { m.tracer = t }

// packet is one in-flight message.
type packet struct {
	value any
	words int
	// depart is the sender's clock when the transfer began.
	depart float64
	tag    int
}

// Proc is one virtual processor, handed to the SPMD body by Run. Its
// methods must only be called from the goroutine running that body.
type Proc struct {
	rank  int
	m     *Machine
	clock float64
	// in[src] carries messages from processor src to this processor.
	in []chan packet
	// sent counts messages sent, recvd messages received; sentWords and
	// ops accumulate communication volume and charged computation.
	sent, recvd int
	sentWords   int
	ops         float64
	tagseq      int
}

// NextTag returns a fresh message tag. Because the processors execute the
// same SPMD program, per-processor counters stay synchronized, giving each
// collective operation a distinct tag without global coordination.
func (p *Proc) NextTag() int {
	p.tagseq++
	return p.tagseq
}

// Rank is this processor's rank, 0 ≤ Rank < P.
func (p *Proc) Rank() int { return p.rank }

// P is the machine size.
func (p *Proc) P() int { return p.m.P }

// Clock is the processor's current virtual time.
func (p *Proc) Clock() float64 { return p.clock }

// AdvanceTo moves the clock forward to t; it never moves backwards.
func (p *Proc) AdvanceTo(t float64) {
	if t > p.clock {
		p.clock = t
	}
}

// Compute charges n time units of local computation (one unit per
// elementary operation, per §4.1).
func (p *Proc) Compute(n float64) {
	if n < 0 {
		panic("machine: negative computation charge")
	}
	start := p.clock
	p.clock += n
	p.ops += n
	p.m.trace(Event{Kind: EvCompute, Proc: p.rank, Peer: -1, Start: start, End: p.clock})
}

// Send ships value (words machine words) to processor dst. The sender is
// occupied for ts + words·tw, per the model's bidirectional-link cost.
func (p *Proc) Send(dst int, value any, words int, tag int) {
	if dst == p.rank {
		panic(fmt.Sprintf("machine: proc %d sending to itself", p.rank))
	}
	p.checkRank(dst)
	depart := p.clock
	p.clock += p.m.Params.msg(words)
	p.sent++
	p.sentWords += words
	p.m.trace(Event{Kind: EvSend, Proc: p.rank, Peer: dst, Words: words, Start: depart, End: p.clock, Tag: tag})
	p.m.procs[dst].in[p.rank] <- packet{value: value, words: words, depart: depart, tag: tag}
}

// Recv receives the next message from processor src, blocking until it
// arrives. The receiver's clock advances to
// max(receiver clock, sender clock at departure) + ts + words·tw.
func (p *Proc) Recv(src int, tag int) any {
	p.checkRank(src)
	var pkt packet
	if p.m.Timeout > 0 {
		select {
		case pkt = <-p.in[src]:
		case <-time.After(p.m.Timeout):
			panic(fmt.Sprintf("machine: proc %d deadlocked waiting for a message from proc %d (tag %d)", p.rank, src, tag))
		}
	} else {
		pkt = <-p.in[src]
	}
	if pkt.tag != tag {
		panic(fmt.Sprintf("machine: proc %d expected tag %d from proc %d, got %d", p.rank, tag, src, pkt.tag))
	}
	start := p.clock
	if pkt.depart > start {
		start = pkt.depart
	}
	p.clock = start + p.m.Params.msg(pkt.words)
	p.recvd++
	p.m.trace(Event{Kind: EvRecv, Proc: p.rank, Peer: src, Words: pkt.words, Start: start, End: p.clock, Tag: tag})
	return pkt.value
}

// TrySend is the non-blocking variant of Send: it ships the value if the
// destination mailbox has room and reports whether it did. Nothing is
// charged on failure. Fault-injecting decorators build their retry loops
// on it so a full mailbox never wedges a processor that still has
// protocol work to do.
func (p *Proc) TrySend(dst int, value any, words int, tag int) bool {
	if dst == p.rank {
		panic(fmt.Sprintf("machine: proc %d sending to itself", p.rank))
	}
	p.checkRank(dst)
	depart := p.clock
	select {
	case p.m.procs[dst].in[p.rank] <- packet{value: value, words: words, depart: depart, tag: tag}:
	default:
		return false
	}
	p.clock += p.m.Params.msg(words)
	p.sent++
	p.sentWords += words
	p.m.trace(Event{Kind: EvSend, Proc: p.rank, Peer: dst, Words: words, Start: depart, End: p.clock, Tag: tag})
	return true
}

// RecvAny receives the next message from processor src regardless of its
// tag, returning the value and the tag it was sent under — the raw link
// layer beneath the tag discipline, for fault-injecting decorators that
// multiplex their own protocol over one wire tag. Clock accounting is
// identical to Recv's.
func (p *Proc) RecvAny(src int) (any, int) {
	p.checkRank(src)
	var pkt packet
	if p.m.Timeout > 0 {
		select {
		case pkt = <-p.in[src]:
		case <-time.After(p.m.Timeout):
			panic(fmt.Sprintf("machine: proc %d timed out after %v waiting for any message from proc %d", p.rank, p.m.Timeout, src))
		}
	} else {
		pkt = <-p.in[src]
	}
	return p.admit(pkt, src), pkt.tag
}

// TryRecvAny is the non-blocking variant of RecvAny: it dequeues an
// already-arrived message from src, if there is one.
func (p *Proc) TryRecvAny(src int) (any, int, bool) {
	p.checkRank(src)
	select {
	case pkt := <-p.in[src]:
		return p.admit(pkt, src), pkt.tag, true
	default:
		return nil, 0, false
	}
}

// admit applies Recv's clock accounting to a dequeued packet.
func (p *Proc) admit(pkt packet, src int) any {
	start := p.clock
	if pkt.depart > start {
		start = pkt.depart
	}
	p.clock = start + p.m.Params.msg(pkt.words)
	p.recvd++
	p.m.trace(Event{Kind: EvRecv, Proc: p.rank, Peer: src, Words: pkt.words, Start: start, End: p.clock, Tag: pkt.tag})
	return pkt.value
}

// SendRecv performs the simultaneous bidirectional exchange of §4.1: this
// processor and partner swap values over their bidirectional link. Both
// clocks advance to max(clock_a, clock_b) + ts + max(words)·tw — the two
// transfers overlap, which is what makes the butterfly phase cost
// ts + m·tw rather than twice that.
func (p *Proc) SendRecv(partner int, value any, words int, tag int) any {
	if partner == p.rank {
		panic(fmt.Sprintf("machine: proc %d exchanging with itself", p.rank))
	}
	p.checkRank(partner)
	depart := p.clock
	p.sent++
	p.sentWords += words
	p.m.procs[partner].in[p.rank] <- packet{value: value, words: words, depart: depart, tag: tag}
	var pkt packet
	if p.m.Timeout > 0 {
		select {
		case pkt = <-p.in[partner]:
		case <-time.After(p.m.Timeout):
			panic(fmt.Sprintf("machine: proc %d deadlocked in exchange with proc %d (tag %d)", p.rank, partner, tag))
		}
	} else {
		pkt = <-p.in[partner]
	}
	if pkt.tag != tag {
		panic(fmt.Sprintf("machine: proc %d expected tag %d from proc %d, got %d", p.rank, tag, partner, pkt.tag))
	}
	p.recvd++
	start := p.clock
	if pkt.depart > start {
		start = pkt.depart
	}
	w := words
	if pkt.words > w {
		w = pkt.words
	}
	p.clock = start + p.m.Params.msg(w)
	p.m.trace(Event{Kind: EvExchange, Proc: p.rank, Peer: partner, Words: w, Start: start, End: p.clock, Tag: tag})
	return pkt.value
}

func (p *Proc) checkRank(r int) {
	if r < 0 || r >= p.m.P {
		panic(fmt.Sprintf("machine: rank %d out of range [0,%d)", r, p.m.P))
	}
}

// Result summarises one run of an SPMD program.
type Result struct {
	// Makespan is the maximum finishing clock over all processors —
	// the run time of the program under the cost model.
	Makespan float64
	// Clocks are the per-processor finishing clocks.
	Clocks []float64
	// Messages is the total number of point-to-point transfers.
	Messages int
	// Words is the total number of words moved over the links — the
	// run's communication volume.
	Words int
	// Ops is the total computation charged across all processors — the
	// run's work. The paper's "cost-optimal" claims (§3.4) are claims
	// about Ops, not Makespan.
	Ops float64
	// Wall is the real (host) execution time of the run.
	Wall time.Duration
}

// Run executes body as an SPMD program: one goroutine per processor, all
// starting at clock 0. It returns when every processor's body has
// finished. A panic in any processor's body aborts the run and is
// re-raised on the caller's goroutine with the processor identified.
func (m *Machine) Run(body func(p *Proc)) Result {
	m.procs = make([]*Proc, m.P)
	for r := 0; r < m.P; r++ {
		in := make([]chan packet, m.P)
		cap := m.MailboxCap
		if cap <= 0 {
			// Capacity 4 is plenty: the collectives never have more
			// than one outstanding message per directed pair.
			cap = 4
		}
		for s := 0; s < m.P; s++ {
			if s != r {
				in[s] = make(chan packet, cap)
			}
		}
		m.procs[r] = &Proc{rank: r, m: m, in: in}
	}
	start := time.Now()
	var wg sync.WaitGroup
	panics := make([]any, m.P)
	for r := 0; r < m.P; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[p.rank] = e
				}
			}()
			body(p)
		}(m.procs[r])
	}
	wg.Wait()
	wall := time.Since(start)
	for r, e := range panics {
		if e != nil {
			panic(fmt.Sprintf("machine: processor %d failed: %v", r, e))
		}
	}
	res := Result{Clocks: make([]float64, m.P), Wall: wall}
	for r, p := range m.procs {
		res.Clocks[r] = p.clock
		res.Messages += p.sent
		res.Words += p.sentWords
		res.Ops += p.ops
		if p.clock > res.Makespan {
			res.Makespan = p.clock
		}
	}
	m.procs = nil
	return res
}

func (m *Machine) trace(e Event) {
	if m.tracer != nil {
		m.tracer.record(e)
	}
}
