package chaos

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/term"
)

// Runners: execute a stage program under a fault profile on either
// backend, one chaos decorator per rank. These are what the conformance
// harness and the collchaos command drive.

// mailbox is the per-link buffer depth for chaos runs. The decorator puts
// duplicates, retransmissions and acknowledgements on the same links as
// the data, and acks to a rank that has moved on can sit undrained until
// the run ends, so the chaos runners want more headroom than the
// collectives' default of 4.
const mailbox = 64

// NativeMachine returns a native backend machine tuned for chaos traffic:
// deep mailboxes, a generous receive timeout, and the deadlock watchdog
// armed so a protocol bug yields a per-rank diagnosis instead of a hang.
func NativeMachine(p int) *backend.Machine {
	m := backend.New(p)
	m.MailboxCap = mailbox
	m.Timeout = 30 * time.Second
	m.Watchdog = 5 * time.Second
	return m
}

// VirtualMachine returns a virtual-time machine tuned the same way.
func VirtualMachine(p int) *machine.Machine {
	m := machine.New(p, machine.Params{Ts: 100, Tw: 1})
	m.MailboxCap = mailbox
	return m
}

// RunNative executes the stage program on the chaos-wrapped native
// backend: p goroutine ranks, each behind its own decorator seeded from
// (seed, rank), and returns the per-rank outputs. The promise under test:
// the result equals a fault-free run bit for bit.
func RunNative(t term.Term, p int, prof Profile, seed int64, in []algebra.Value) []algebra.Value {
	return RunNativeTransport(t, p, prof, seed, in, backend.TransportZeroCopy)
}

// RunNativeTransport is RunNative with an explicit payload transport.
// The two modes stress different hazards: under zero-copy the decorator's
// duplicates and retransmissions re-deliver the same value reference, so
// any in-place write by a receiver would corrupt a copy still in flight;
// under copy every delivery is an independent clone. The conformance
// promise — bitwise equality with a fault-free run — must hold under
// both aliasing regimes.
func RunNativeTransport(t term.Term, p int, prof Profile, seed int64, in []algebra.Value, transport backend.TransportMode) []algebra.Value {
	out := make([]algebra.Value, p)
	nm := NativeMachine(p)
	nm.Transport = transport
	nm.Run(func(pr *backend.Proc) {
		c := Wrap(pr, prof, seed)
		out[pr.Rank()] = core.RunStagesSelected(c, t, in[pr.Rank()], nil)
		c.Fence()
	})
	return out
}

// RunVirtual is RunNative on the virtual-time machine — same decorator,
// same fault schedule, cost-model clocks underneath.
func RunVirtual(t term.Term, p int, prof Profile, seed int64, in []algebra.Value) []algebra.Value {
	out := make([]algebra.Value, p)
	VirtualMachine(p).Run(func(pr *machine.Proc) {
		c := Wrap(coll.World(pr), prof, seed)
		out[c.Rank()] = core.RunStagesSelected(c, t, in[c.Rank()], nil)
		c.Fence()
	})
	return out
}

// OnNative runs an arbitrary SPMD body with a chaos communicator per rank
// on the native backend — for tests that drive subgroups or raw
// collectives rather than stage programs. The body must not outlive the
// call; Fence runs after it returns.
func OnNative(p int, prof Profile, seed int64, body func(c *Comm)) {
	NativeMachine(p).Run(func(pr *backend.Proc) {
		c := Wrap(pr, prof, seed)
		body(c)
		c.Fence()
	})
}

// OnVirtual is OnNative on the virtual-time machine.
func OnVirtual(p int, prof Profile, seed int64, body func(c *Comm)) {
	VirtualMachine(p).Run(func(pr *machine.Proc) {
		c := Wrap(coll.World(pr), prof, seed)
		body(c)
		c.Fence()
	})
}
