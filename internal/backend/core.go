package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
)

// Packet is one in-flight message between two ranks. Unlike the virtual
// machine's packet it carries no departure clock — arrival order and wall
// time are the truth.
type Packet struct {
	Value algebra.Value
	Tag   int
	// Owned marks an ownership-transferring message: the receiver may
	// write the value in place (it is the new owner); the sender has
	// relinquished it. Borrowing sends leave it false — the value is a
	// shared, frozen reference.
	Owned bool
}

// Link is the driver beneath a rank core: the one thing that differs
// between the real backends. The native backend's driver is a send on the
// peer's mailbox channel; the multi-process driver encodes a frame onto a
// socket whose reader goroutine feeds the peer core's mailbox.
type Link interface {
	// Outbound prepares pkt for dst at the send site — a clone under the
	// copying transport, a frame encoding on a socket — and returns the
	// packet to deliver. The core calls it before setting any move
	// poison, so it may still read the value.
	Outbound(dst int, pkt Packet) Packet
	// Deliver makes pkt visible to rank dst. When try is set it must not
	// block and reports whether the packet went out; otherwise it returns
	// true once the packet is on its way.
	Deliver(c *Core, dst int, pkt Packet, try bool) bool
}

// Abort is a cancellation slot for blocked ranks: the native watchdog
// fires it when a run has quiesced, a multi-process link fires it when a
// peer's connection fails. Every take and put armed with the slot wakes
// and panics with the cause.
type Abort struct {
	done chan struct{}
	once sync.Once
	// err is written before done is closed, so a rank that observes the
	// close reads it race-free.
	err error
}

// NewAbort returns an unfired slot.
func NewAbort() *Abort { return &Abort{done: make(chan struct{})} }

// Fire records err and wakes every blocked rank; later calls are no-ops.
func (a *Abort) Fire(err error) {
	a.once.Do(func() {
		a.err = err
		close(a.done)
	})
}

// Counters are one rank's traffic and work figures, reported alike by
// every backend.
type Counters struct {
	// Sent and Words count the messages sent and their volume.
	Sent, Words int
	// Received counts the messages taken from the mailboxes.
	Received int
	// Ops is the computation charged via Compute.
	Ops float64
}

// Core is the rank runtime shared by the native and multi-process
// backends: the whole coll.Comm / coll.Transport / coll.Mover surface
// over a Link. It owns the per-source inbound mailboxes, the rank and tag
// checks, the move/own flags, the counters and the one blocking receive
// and send with their timeout, published blocked-on state and abort slot.
// Its methods must only be called from the goroutine running the rank's
// body; Inbox and WaitState are the exceptions noted on them.
type Core struct {
	rank, size int
	link       Link
	// in[src] lazily materializes the channel carrying messages from rank
	// src to this rank, so setup is O(links actually used) rather than
	// O(P²) channel allocations.
	in         []atomic.Pointer[chan Packet]
	mailboxCap int
	// timeout bounds a blocking receive; zero means no bound (and no
	// timer, which matters in tight benchmarks).
	timeout time.Duration
	// timer is the reusable receive-timeout timer; a per-take time.After
	// would allocate a fresh timer (and leak it until expiry) on every
	// receive.
	timer *time.Timer
	// abort, when non-nil, arms the blocked-on publication and makes
	// blocking operations cancellable.
	abort *Abort
	// wait is the rank's published blocking state: nil while running, a
	// fresh immutable waitInfo on every blocking slow path. A rank that
	// fails while blocked leaves it published, so a post-mortem report
	// still names the edge.
	wait atomic.Pointer[waitInfo]
	// arena is the rank's scratch-buffer pool; package coll's collectives
	// draw their combining buffers from it.
	arena  *algebra.Arena
	tagseq int
	// Count holds the rank's traffic and work counters.
	Count Counters
}

// NewCore returns the core of rank among size ranks, sending through link
// and buffering up to mailboxCap packets per source. A non-nil abort arms
// the blocked-on state and cancellation from the start.
func NewCore(rank, size, mailboxCap int, link Link, abort *Abort) *Core {
	return &Core{
		rank:       rank,
		size:       size,
		link:       link,
		in:         make([]atomic.Pointer[chan Packet], size),
		mailboxCap: mailboxCap,
		abort:      abort,
		arena:      algebra.NewArena(),
	}
}

// inbox returns the channel carrying messages from src to c, creating it
// on first use. Sender and receiver may race to create the same pair's
// channel; the compare-and-swap makes the first one win and both see it.
func (c *Core) inbox(src int) chan Packet {
	if ch := c.in[src].Load(); ch != nil {
		return *ch
	}
	ch := make(chan Packet, c.mailboxCap)
	if c.in[src].CompareAndSwap(nil, &ch) {
		return ch
	}
	return *c.in[src].Load()
}

// Inbox is the mailbox a link driver fills with packets from src. It is
// safe to call from any goroutine.
func (c *Core) Inbox(src int) chan<- Packet { return c.inbox(src) }

// Rank is this rank's index, 0 ≤ Rank < Size.
func (c *Core) Rank() int { return c.rank }

// Size is the number of ranks.
func (c *Core) Size() int { return c.size }

// NextTag returns a fresh message tag. As on the virtual machine, the
// per-rank counters of an SPMD program stay synchronized, giving each
// collective a distinct tag without coordination.
func (c *Core) NextTag() int {
	c.tagseq++
	return c.tagseq
}

// Compute records n charged units of local computation. No clock advances
// here: the arithmetic the charge accounts for already ran for real inside
// the operator, so its cost is in the wall-clock measurement. The counter
// is kept so every backend reports the same work figure.
func (c *Core) Compute(n float64) {
	if n < 0 {
		panic("backend: negative computation charge")
	}
	c.Count.Ops += n
}

// ScratchArena returns the rank's scratch-buffer arena. The collectives in
// package coll draw their combining buffers from it, so the log-p rounds
// of a reduction or scan reuse storage instead of allocating. The owning
// backend resets it only where no peer can still read its buffers.
func (c *Core) ScratchArena() *algebra.Arena { return c.arena }

// Send ships v to rank dst — a borrow: the sender may still read v
// afterwards, and neither side may write it.
func (c *Core) Send(dst int, v algebra.Value, tag int) {
	c.peer(dst, "sending to")
	c.send(dst, Packet{Value: v, Tag: tag}, false)
}

// SendMove ships v to rank dst transferring ownership: the receiver (via
// RecvOwned) becomes the value's owner and may write it in place; the
// sender relinquishes it and must not observe it again. For a *FlatTuple
// the relinquishment is enforced — the tuple is poisoned and any later
// access by the sender panics until its arena reclaims the buffer. The
// poison is set on every link, whether the reference itself crosses or a
// copy does, so a program's ownership discipline is checked identically
// everywhere.
func (c *Core) SendMove(dst int, v algebra.Value, tag int) {
	c.peer(dst, "sending to")
	c.send(dst, Packet{Value: v, Tag: tag, Owned: true}, false)
}

// TrySend is the non-blocking variant of Send: it ships v to dst if the
// link has room and reports whether it did. Nothing is charged on
// failure. Fault-injecting decorators build their retry loops on it so a
// full mailbox never wedges a rank that still has protocol work to do.
func (c *Core) TrySend(dst int, v algebra.Value, tag int) bool {
	c.peer(dst, "sending to")
	return c.send(dst, Packet{Value: v, Tag: tag}, true)
}

// send is the one send path: prepare the packet on the link, poison a
// moved tuple, then deliver. The poison goes after Outbound, which may
// still read the value, and before Deliver, after which the receiver may
// already have adopted it.
func (c *Core) send(dst int, pkt Packet, try bool) bool {
	words := pkt.Value.Words()
	wire := c.link.Outbound(dst, pkt)
	if pkt.Owned {
		if ft, ok := pkt.Value.(*algebra.FlatTuple); ok {
			ft.MarkMoved()
		}
	}
	if !c.link.Deliver(c, dst, wire, try) {
		return false
	}
	c.Count.Sent++
	c.Count.Words += words
	return true
}

// Recv receives the next message from rank src, blocking until it
// arrives.
func (c *Core) Recv(src, tag int) algebra.Value {
	c.checkRank(src)
	return c.take(src, tag, "waiting for a message from").Value
}

// RecvOwned receives the next message from rank src like Recv and reports
// whether the message transferred ownership: when owned is true the caller
// is the value's new owner and may write it in place (a received
// *FlatTuple has its move poison cleared — the adoption point of the
// ownership protocol); when false the value is a borrowed shared reference
// and must be treated as frozen.
func (c *Core) RecvOwned(src, tag int) (v algebra.Value, owned bool) {
	c.checkRank(src)
	pkt := c.take(src, tag, "waiting for a message from")
	if pkt.Owned {
		if ft, ok := pkt.Value.(*algebra.FlatTuple); ok {
			ft.MarkOwned()
		}
	}
	return pkt.Value, pkt.Owned
}

// Exchange performs the simultaneous bidirectional swap with partner:
// both sides send, then receive, which the buffered mailboxes keep
// deadlock-free.
func (c *Core) Exchange(partner int, v algebra.Value, tag int) algebra.Value {
	c.peer(partner, "exchanging with")
	c.send(partner, Packet{Value: v, Tag: tag}, false)
	return c.take(partner, tag, "deadlocked in exchange with").Value
}

// RecvAny dequeues the next message from rank src regardless of its tag,
// returning the value and the tag it was sent under. It blocks like Recv
// (same timeout and abort discipline) but performs no tag check — it is
// the raw link layer that fault-injecting decorators, which multiplex
// their own protocol over one wire tag, read from.
func (c *Core) RecvAny(src int) (algebra.Value, int) {
	c.checkRank(src)
	pkt := c.take(src, anyTag, "waiting for a message from")
	return pkt.Value, pkt.Tag
}

// TryRecvAny is the non-blocking variant of RecvAny: it dequeues an
// already-arrived message from src, if there is one.
func (c *Core) TryRecvAny(src int) (algebra.Value, int, bool) {
	c.checkRank(src)
	select {
	case pkt := <-c.inbox(src):
		c.Count.Received++
		return pkt.Value, pkt.Tag, true
	default:
		return nil, 0, false
	}
}

// anyTag makes take skip the tag check; it is never a valid message tag
// (NextTag counts up from 1, subgroup tags are offset positive).
const anyTag = -1 << 62

// waitInfo is one rank's published blocking state. A waitInfo is
// immutable once published.
type waitInfo struct {
	// dir is the blocked direction: "receiving from", "sending to" or
	// "exchanging with".
	dir string
	// peer and tag identify the transfer being waited on.
	peer, tag int
	// since is when the rank started waiting.
	since time.Time
}

// describe renders the blocked-on line of the deadlock reports.
func (w *waitInfo) describe(now time.Time) string {
	return fmt.Sprintf("blocked %s rank %d (tag %d) for %v", w.dir, w.peer, w.tag, now.Sub(w.since).Round(time.Millisecond))
}

// WaitState describes what the rank is blocked on — "blocked receiving
// from rank 1 (tag 7) for 1s" — or returns "running". The state is only
// published while the core is armed with an abort slot. It is safe to
// call from any goroutine.
func (c *Core) WaitState() string {
	if w := c.wait.Load(); w != nil {
		return w.describe(time.Now())
	}
	return "running"
}

// publish announces a blocking slow path when the core is armed.
func (c *Core) publish(dir string, peer, tag int) {
	if c.abort != nil {
		c.wait.Store(&waitInfo{dir: dir, peer: peer, tag: tag, since: time.Now()})
	}
}

// unblock withdraws the published state after a blocking operation
// succeeded.
func (c *Core) unblock() {
	if c.abort != nil {
		c.wait.Store(nil)
	}
}

// aborted is the panic of a rank woken by its abort slot.
func (c *Core) aborted() string {
	return fmt.Sprintf("backend: rank %d %s: %v", c.rank, c.WaitState(), c.abort.err)
}

// put enqueues a packet on a mailbox channel. The fast path is a plain
// buffered-channel send; when the mailbox is full and the core is armed,
// the rank publishes its blocked-on state and stays cancellable, so a
// send-side deadlock (every mailbox full, nobody receiving) is diagnosed
// like a receive-side one.
func (c *Core) put(ch chan<- Packet, dst int, pkt Packet) {
	if c.abort == nil {
		ch <- pkt
		return
	}
	select {
	case ch <- pkt:
		return
	default:
	}
	c.publish("sending to", dst, pkt.Tag)
	select {
	case ch <- pkt:
		c.unblock()
	case <-c.abort.done:
		panic(c.aborted())
	}
}

// take dequeues the next packet from src with the timeout and tag
// discipline of the virtual machine. A packet already delivered wins over
// a concurrent abort: the mailbox is checked once more before the abort is
// surfaced, so a peer whose link fails right after its last send never
// loses that send. The timeout uses the rank's reusable timer, stopped and
// drained after every successful receive.
func (c *Core) take(src, tag int, verb string) Packet {
	ch := c.inbox(src)
	if c.timeout <= 0 && c.abort == nil {
		return c.accept(<-ch, src, tag)
	}
	// Fast path: the message is already there — skip the timer and the
	// wait-state publication entirely.
	select {
	case pkt := <-ch:
		return c.accept(pkt, src, tag)
	default:
	}
	dir := "receiving from"
	if verb == "deadlocked in exchange with" {
		dir = "exchanging with"
	}
	c.publish(dir, src, tag)
	// Nil channels block forever, so an unset timeout or abort slot drops
	// out of the select cleanly.
	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(c.timeout)
		} else {
			c.timer.Reset(c.timeout)
		}
		timeoutC = c.timer.C
	}
	var abortC <-chan struct{}
	if c.abort != nil {
		abortC = c.abort.done
	}
	var pkt Packet
	select {
	case pkt = <-ch:
	case <-timeoutC:
		panic(fmt.Sprintf("backend: rank %d timed out after %v %s rank %d (tag %d); %d messages received, %d sent so far",
			c.rank, c.timeout, verb, src, tag, c.Count.Received, c.Count.Sent))
	case <-abortC:
		select {
		case pkt = <-ch:
		default:
			panic(c.aborted())
		}
	}
	if timeoutC != nil && !c.timer.Stop() {
		// The timer fired concurrently with the receive; drain it so the
		// next Reset starts from a clean channel.
		select {
		case <-c.timer.C:
		default:
		}
	}
	c.unblock()
	return c.accept(pkt, src, tag)
}

// accept performs the tag check of the virtual machine and counts the
// receive. A tag of anyTag skips the check (raw-link receives).
func (c *Core) accept(pkt Packet, src, tag int) Packet {
	if tag != anyTag && pkt.Tag != tag {
		panic(fmt.Sprintf("backend: rank %d expected tag %d from rank %d, got %d", c.rank, tag, src, pkt.Tag))
	}
	c.Count.Received++
	return pkt
}

// peer checks a send destination: in range and not the rank itself.
func (c *Core) peer(r int, verb string) {
	if r == c.rank {
		panic(fmt.Sprintf("backend: rank %d %s itself", c.rank, verb))
	}
	c.checkRank(r)
}

func (c *Core) checkRank(r int) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("backend: rank %d out of range [0,%d)", r, c.size))
	}
}

// reset prepares the core for a fresh run of the same machine: counters,
// tag sequence, wait state and arena restart from zero, and any packet a
// sloppy program sent but never received is drained so it cannot satisfy
// a later run's matching tag.
func (c *Core) reset(timeout time.Duration) {
	c.Count = Counters{}
	c.tagseq = 0
	c.timeout = timeout
	c.wait.Store(nil)
	c.arena.Reset()
	for s := range c.in {
		if ch := c.in[s].Load(); ch != nil {
			for len(*ch) > 0 {
				<-*ch
			}
		}
	}
}
