package coll

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/machine"
)

// Comm is the communication context a collective operation runs in — the
// MPI communicator of the paper's notation (§2.2 assumes one group and
// omits comm; this layer supplies the general case). A Comm names a group
// of processors, gives the caller its rank within the group, and carries
// its own tag sequence so that collectives on different groups never
// cross-talk.
type Comm interface {
	// Rank is the caller's rank within this group.
	Rank() int
	// Size is the number of group members.
	Size() int
	// Send ships v to group rank dst.
	Send(dst int, v Value, tag int)
	// Recv receives the next tagged message from group rank src.
	Recv(src, tag int) Value
	// Exchange performs the simultaneous bidirectional swap with the
	// group rank partner.
	Exchange(partner int, v Value, tag int) Value
	// Compute charges local computation time.
	Compute(n float64)
	// NextTag returns a fresh tag, synchronized across the group.
	NextTag() int
}

// Transport is optionally implemented by communicators that expose the
// raw link layer beneath the tag discipline: non-blocking sends and
// tag-oblivious receives. Decorators that perturb traffic (package chaos)
// multiplex their own wire protocol — envelopes carrying the application
// tag, acknowledgements, retransmissions — over these primitives, while
// the collectives above them keep the ordinary tagged Comm interface.
// Both backends implement it; a decorator should type-assert and refuse
// communicators that do not.
type Transport interface {
	// TrySend enqueues v for dst if the link has room and reports
	// whether it did; nothing is charged on failure.
	TrySend(dst int, v Value, tag int) bool
	// RecvAny blocks for the next message from src regardless of tag,
	// returning the value and the tag it was sent under.
	RecvAny(src int) (Value, int)
	// TryRecvAny dequeues an already-arrived message from src, if any.
	TryRecvAny(src int) (Value, int, bool)
}

// Marker is optionally implemented by communicators that can record
// stage-boundary annotations — the virtual machine puts them on the event
// trace. Executors should type-assert for it rather than require it.
type Marker interface {
	// Mark records a stage annotation at the current time.
	Mark(label string)
}

// world adapts a machine processor to the full-machine communicator.
type world struct {
	p      *machine.Proc
	tagseq int
}

// World returns the communicator spanning all processors of the machine,
// the analogue of MPI_COMM_WORLD. Each processor must create its own via
// this call inside the SPMD body.
func World(p *machine.Proc) Comm { return &world{p: p} }

func (w *world) Rank() int { return w.p.Rank() }
func (w *world) Size() int { return w.p.P() }

func (w *world) Send(dst int, v Value, tag int) {
	w.p.Send(dst, v, v.Words(), tag)
}

func (w *world) Recv(src, tag int) Value {
	raw := w.p.Recv(src, tag)
	if raw == nil {
		return nil
	}
	return raw.(Value)
}

func (w *world) Exchange(partner int, v Value, tag int) Value {
	return w.p.SendRecv(partner, v, v.Words(), tag).(Value)
}

func (w *world) Compute(n float64) { w.p.Compute(n) }

func (w *world) NextTag() int {
	w.tagseq++
	return w.tagseq
}

// TrySend exposes the processor's non-blocking send (Transport).
func (w *world) TrySend(dst int, v Value, tag int) bool {
	return w.p.TrySend(dst, v, v.Words(), tag)
}

// RecvAny exposes the processor's tag-oblivious receive (Transport).
func (w *world) RecvAny(src int) (Value, int) {
	raw, tag := w.p.RecvAny(src)
	if raw == nil {
		return nil, tag
	}
	return raw.(Value), tag
}

// TryRecvAny exposes the processor's non-blocking tag-oblivious receive
// (Transport).
func (w *world) TryRecvAny(src int) (Value, int, bool) {
	raw, tag, ok := w.p.TryRecvAny(src)
	if !ok || raw == nil {
		return nil, tag, ok
	}
	return raw.(Value), tag, ok
}

// Mark records a stage annotation on the processor's event trace.
func (w *world) Mark(label string) { w.p.Mark(label) }

// sub is a subgroup communicator: group rank i maps to parent rank
// ranks[i].
type sub struct {
	parent Comm
	ranks  []int
	rank   int
	tagseq int
}

// Sub builds the subgroup of parent consisting of the given parent ranks
// (which must be distinct and include the caller). Every listed member
// must call Sub with the same rank list; the caller's group rank is its
// index in the list.
func Sub(parent Comm, ranks []int) Comm {
	seen := make(map[int]bool, len(ranks))
	me := -1
	for i, r := range ranks {
		if r < 0 || r >= parent.Size() {
			panic(fmt.Sprintf("coll: Sub rank %d out of range [0,%d)", r, parent.Size()))
		}
		if seen[r] {
			panic(fmt.Sprintf("coll: Sub rank %d listed twice", r))
		}
		seen[r] = true
		if r == parent.Rank() {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("coll: caller rank %d not in subgroup %v", parent.Rank(), ranks))
	}
	return &sub{parent: parent, ranks: append([]int(nil), ranks...), rank: me}
}

func (s *sub) Rank() int { return s.rank }
func (s *sub) Size() int { return len(s.ranks) }

func (s *sub) Send(dst int, v Value, tag int) {
	s.parent.Send(s.ranks[dst], v, tag)
}

func (s *sub) Recv(src, tag int) Value {
	return s.parent.Recv(s.ranks[src], tag)
}

func (s *sub) Exchange(partner int, v Value, tag int) Value {
	return s.parent.Exchange(s.ranks[partner], v, tag)
}

func (s *sub) Compute(n float64) { s.parent.Compute(n) }

// Mark forwards a stage annotation to the parent, if it records them.
func (s *sub) Mark(label string) {
	if m, ok := s.parent.(Marker); ok {
		m.Mark(label)
	}
}

// ScratchArena exposes the parent's per-rank arena, if it provides one
// (subgroup collectives share the rank's arena with full-group ones).
func (s *sub) ScratchArena() *algebra.Arena {
	if h, ok := s.parent.(ArenaHolder); ok {
		return h.ScratchArena()
	}
	return nil
}

func (s *sub) NextTag() int {
	s.tagseq++
	// Offset subgroup tags so a sloppy caller mixing parent and
	// subgroup collectives gets a tag-mismatch panic instead of silent
	// cross-talk.
	return 1<<20 + s.tagseq
}

// Split partitions the communicator by color, MPI_Comm_split-style: every
// member calls Split with its color and key; members with equal color
// form a new group, ordered by (key, parent rank). The implementation
// allgathers the (color, key) pairs and builds the subgroup
// deterministically, so all members agree without further communication.
func Split(c Comm, color, key int) Comm {
	type entry struct{ rank, color, key int }
	pairs := AllGather(c, pairValue(color, key))
	entries := make([]entry, 0, len(pairs))
	for r, pv := range pairs {
		col, k := pairFields(pv)
		if col == color {
			entries = append(entries, entry{rank: r, color: col, key: k})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].rank < entries[j].rank
	})
	ranks := make([]int, len(entries))
	for i, e := range entries {
		ranks[i] = e.rank
	}
	return Sub(c, ranks)
}
