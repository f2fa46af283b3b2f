// Package backend is the native execution backend: a second implementation
// of the coll.Comm communicator in which group members are plain goroutines
// on the host, point-to-point messages are real channel transfers of
// algebra values, and time is wall-clock — per-rank time.Now deltas from a
// barrier-synchronized start — instead of the virtual clocks of package
// machine.
//
// The two backends answer different questions. The virtual machine runs
// the data flow for real but *times* it with the §4.1 cost-model
// arithmetic, so its makespans are deterministic and comparable with the
// paper's closed-form estimates. The native backend times nothing and
// simulates nothing: the arithmetic inside the operators is the
// computation, channel rendezvous and goroutine scheduling are the message
// start-ups, and the measured makespan is the host's actual cost of the
// program. Because every collective in package coll is written against
// coll.Comm, the whole collective library — and every optimization-rule
// rewrite — runs unmodified on either backend, which is what makes the
// conformance harness in this package possible.
//
// # Timing methodology
//
// Every Run follows the same discipline, shared by the experiment
// harness (exper.NativeRunner) and the calibration probes (package
// calib):
//
//   - Barrier start. All P rank goroutines are spawned first and wait on
//     a barrier; the clock of every rank starts only when all ranks are
//     released together, so goroutine spawn cost never pollutes the
//     measurement and no rank gets a head start.
//   - Per-rank elapsed time. Each rank records its own time.Now delta
//     from the barrier release to the end of its program, giving a
//     per-rank profile (Result.Ranks).
//   - Makespan. The run's reported cost is the maximum per-rank elapsed
//     time — the finish of the last rank — matching how the §4.1 model
//     prices a collective by its slowest processor.
//
// Single runs of short programs sit near timer resolution and scheduler
// noise; callers that need stable numbers iterate the operation inside
// one Run to amortize the timer, repeat the run several times, and take
// the minimum as the undisturbed estimate. NativeRunner and the calib
// probes both do exactly this.
package backend

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
)

// DefaultTimeout bounds how long a rank may block in Recv before the run
// is aborted with a deadlock diagnosis.
const DefaultTimeout = 30 * time.Second

// TransportMode selects how a payload crosses the mailbox.
type TransportMode int

const (
	// TransportZeroCopy (the default) hands the value reference through
	// the channel without copying. Borrowing sends (Send, Exchange) freeze
	// the value under the owned-scratch discipline; moving sends
	// (SendMove) additionally transfer write ownership to the receiver,
	// making a large-m transfer O(1) regardless of block size.
	TransportZeroCopy TransportMode = iota
	// TransportCopy deep-copies every payload at the send site, modeling a
	// memory-isolation boundary (as a multi-process transport forces on
	// every message) in-process. It is the O(m) baseline the zero-copy
	// benchmarks and conformance runs compare against.
	TransportCopy
)

// String names the mode as the collbench -transport flag spells it.
func (t TransportMode) String() string {
	switch t {
	case TransportZeroCopy:
		return "zerocopy"
	case TransportCopy:
		return "copy"
	}
	return fmt.Sprintf("TransportMode(%d)", int(t))
}

// ParseTransport maps a -transport flag value to its mode.
func ParseTransport(s string) (TransportMode, error) {
	switch s {
	case "zerocopy":
		return TransportZeroCopy, nil
	case "copy":
		return TransportCopy, nil
	}
	return 0, fmt.Errorf("unknown transport %q (want zerocopy or copy)", s)
}

// Machine is a native shared-memory machine of P ranks. Create one with
// New, then call Run to execute an SPMD program; a Machine runs one
// program at a time.
type Machine struct {
	// P is the number of ranks (goroutines).
	P int
	// Timeout bounds how long a rank may block in Recv or Exchange
	// before the run is aborted with a deadlock diagnosis. Zero means no
	// bound (and removes a per-receive timer, which matters in tight
	// benchmarks).
	Timeout time.Duration
	// MailboxCap overrides the buffer depth per directed rank pair. Zero
	// means the default (4), which is enough for every collective in
	// package coll; fault-injecting decorators that put retransmissions
	// and acknowledgements on the same links want more headroom.
	MailboxCap int
	// Transport selects the payload-passing discipline: TransportZeroCopy
	// (the default) hands references through the mailbox, TransportCopy
	// deep-copies every payload at the send site. See TransportMode.
	Transport TransportMode
	// Watchdog, when non-zero, arms the deadlock watchdog: a monitor
	// that fires when every unfinished rank has been blocked in the same
	// send or receive for at least this long — a quiesced-but-unfinished
	// run. Instead of hanging until Timeout (or forever), the run is
	// aborted with a per-rank blocked-on report naming each rank's peer,
	// tag, direction and wait duration. The watchdog costs two atomic
	// stores per blocking operation, so it is off by default.
	Watchdog time.Duration

	procs []*Proc
	// abort is the watchdog's slot, shared by every rank of the run;
	// wdReport carries its report to Run. Both are per-run state.
	abort    *Abort
	wdReport string
	wdWG     sync.WaitGroup
}

// New creates a native machine with p ranks and the default timeout.
func New(p int) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("backend: need at least 1 rank, got %d", p))
	}
	return &Machine{P: p, Timeout: DefaultTimeout}
}

// mailboxCap is the default buffer depth per directed rank pair. As on the
// virtual machine, the collectives never have more than a couple of
// outstanding messages per pair.
const mailboxCap = 4

func (m *Machine) mailboxCap() int {
	if m.MailboxCap > 0 {
		return m.MailboxCap
	}
	return mailboxCap
}

// Proc is one native rank: a rank core whose link is a channel send into
// the peer's mailbox. It implements coll.Comm, coll.Transport, coll.Mover
// and coll.ArenaHolder, so every collective of package coll runs on it
// directly. Its methods must only be called from the goroutine running
// that rank's SPMD body. Its scratch arena is reset at the start of every
// Run, so arena-backed values stay valid until the machine's next Run.
type Proc struct {
	*Core
	// start is the barrier-synchronized run start, shared by all ranks.
	start time.Time
	// elapsed is the rank's wall time from start to body return.
	elapsed time.Duration
	// finished flips when the rank's body returns; the deadlock watchdog
	// reads it.
	finished atomic.Bool
}

// chanLink is the native link driver: a packet crosses as a channel send
// into the peer core's mailbox.
type chanLink struct{ m *Machine }

// Outbound prepares a payload for the channel: under TransportCopy it is
// deep-copied at the send site (the memory-isolation baseline); under
// TransportZeroCopy the reference itself crosses.
func (l chanLink) Outbound(dst int, pkt Packet) Packet {
	if l.m.Transport == TransportCopy {
		pkt.Value = algebra.CloneValue(pkt.Value)
	}
	return pkt
}

// Deliver sends pkt into dst's mailbox for c's rank.
func (l chanLink) Deliver(c *Core, dst int, pkt Packet, try bool) bool {
	ch := l.m.procs[dst].inbox(c.rank)
	if !try {
		c.put(ch, dst, pkt)
		return true
	}
	select {
	case ch <- pkt:
		return true
	default:
		return false
	}
}

// Result summarises one native run.
type Result struct {
	// Makespan is the wall time from the barrier-synchronized start to
	// the last rank's finish — the native analogue of the virtual
	// machine's makespan.
	Makespan time.Duration
	// Ranks are the per-rank wall times from the same start.
	Ranks []time.Duration
	// Messages and Words count the point-to-point transfers and their
	// volume, comparable with the virtual machine's counters.
	Messages int
	Words    int
	// Ops is the computation charged via Compute across all ranks. The
	// native backend performs this work for real; the counter is kept so
	// both backends report the same work figure.
	Ops float64
}

// Run executes body as an SPMD program: one goroutine per rank, all
// released from a common barrier so the per-rank timings share one origin.
// It returns when every rank's body has finished. A panic in any rank's
// body aborts the run and is re-raised on the caller's goroutine with the
// rank identified.
//
// The machine caches its ranks across runs: mailbox channels, timeout
// timers, and scratch arenas warm up on the first run and are reused by
// later ones, so a repeated benchmark loop measures the steady state
// rather than per-run setup.
func (m *Machine) Run(body func(p *Proc)) Result {
	m.reset()
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	panics := make([]any, m.P)
	for r := 0; r < m.P; r++ {
		ready.Add(1)
		done.Add(1)
		go func(p *Proc) {
			defer done.Done()
			ready.Done()
			<-release
			defer func() {
				p.elapsed = time.Since(p.start)
				p.finished.Store(true)
				if e := recover(); e != nil {
					panics[p.rank] = e
				}
			}()
			body(p)
		}(m.procs[r])
	}
	ready.Wait()
	var wdStop chan struct{}
	if m.Watchdog > 0 {
		m.abort = NewAbort()
		m.wdReport = ""
		wdStop = make(chan struct{})
		m.wdWG.Add(1)
		go m.watch(wdStop)
	}
	start := time.Now()
	for _, p := range m.procs {
		p.start = start
		p.abort = m.abort
	}
	close(release)
	done.Wait()
	if wdStop != nil {
		close(wdStop)
		m.wdWG.Wait()
		m.abort = nil
	}
	if m.wdReport != "" {
		// The watchdog cancelled a quiesced run: every blocked rank
		// panicked on the abort; surface the per-rank report instead.
		m.procs = nil
		panic(m.wdReport)
	}
	for r, e := range panics {
		if e != nil {
			// An aborted run can leave packets in flight; drop the cached
			// ranks so the next run rebuilds clean mailboxes.
			m.procs = nil
			panic(fmt.Sprintf("backend: rank %d failed: %v", r, e))
		}
	}
	res := Result{Ranks: make([]time.Duration, m.P)}
	for r, p := range m.procs {
		res.Ranks[r] = p.elapsed
		res.Messages += p.Count.Sent
		res.Words += p.Count.Words
		res.Ops += p.Count.Ops
		if p.elapsed > res.Makespan {
			res.Makespan = p.elapsed
		}
	}
	return res
}

// watch is the deadlock watchdog: it samples every rank's published
// blocking state and fires when the run has quiesced without finishing —
// every unfinished rank stuck in the same send or receive for at least
// m.Watchdog. (That condition is a true deadlock: a rank can only be
// unblocked by another rank, and all of them are waiting.) On firing it
// composes the per-rank blocked-on report and cancels every blocked rank,
// so Run returns a diagnosis instead of hanging until Timeout or forever.
func (m *Machine) watch(stop chan struct{}) {
	defer m.wdWG.Done()
	tick := m.Watchdog / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		unfinished, quiesced := 0, true
		for _, p := range m.procs {
			if p.finished.Load() {
				continue
			}
			unfinished++
			w := p.wait.Load()
			if w == nil || now.Sub(w.since) < m.Watchdog {
				quiesced = false
				break
			}
		}
		if unfinished == 0 || !quiesced {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "backend: deadlock: every unfinished rank blocked for %v with no progress\n", m.Watchdog)
		for _, p := range m.procs {
			if p.finished.Load() {
				fmt.Fprintf(&b, "  rank %d: finished\n", p.rank)
				continue
			}
			if w := p.wait.Load(); w != nil {
				fmt.Fprintf(&b, "  rank %d: %s\n", p.rank, w.describe(now))
			} else {
				fmt.Fprintf(&b, "  rank %d: running\n", p.rank)
			}
		}
		m.wdReport = b.String()
		m.abort.Fire(errors.New("deadlock watchdog fired"))
		return
	}
}

// reset prepares the cached ranks for a fresh run, building them on the
// first call. Counters, tag sequences and arenas restart from zero;
// mailbox channels persist (a completed run leaves them empty, stray
// packets are drained, and an aborted run discards the ranks entirely).
func (m *Machine) reset() {
	if len(m.procs) != m.P {
		m.procs = make([]*Proc, m.P)
		for r := range m.procs {
			m.procs[r] = &Proc{Core: NewCore(r, m.P, m.mailboxCap(), chanLink{m}, nil)}
		}
	}
	for _, p := range m.procs {
		p.elapsed = 0
		p.finished.Store(false)
		// The previous run's completion barrier (done.Wait) ordered every
		// rank's arena use and sends before this reset.
		p.Core.reset(m.Timeout)
	}
}
