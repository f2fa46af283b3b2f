package mpbackend

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
)

// mailboxCap is the decoded-message queue depth per inbound link. It is
// deeper than the native backend's default because the socket reader
// drains ahead of the body: protocol bursts (barriers, unfold sends)
// should never stall the peer's writer.
const mailboxCap = 64

// Proc is one multi-process rank: a separate OS process connected to
// every peer by a Unix domain socket. It is the rank core of package
// backend over a socket link, so it has the same communicator surface as
// the native backend — coll.Comm, coll.Transport, coll.Mover and
// coll.ArenaHolder — and every collective of package coll runs on it
// unmodified. Unlike the in-process backends a message here is a real
// serialization: the value is encoded at the send site, shipped through
// the kernel, and decoded into fresh storage by the receiver, which is
// exactly the per-word cost the §4.1 model calls tw and the in-process
// transports calibrate to ~0. Because no peer ever holds a reference into
// this rank's buffers, the body may Reset the scratch arena at any
// quiescent point (the probe bodies do so between repetitions).
type Proc struct {
	*backend.Core
	sock    *sockLink
	ctrlseq int
}

// sockLink is the socket link driver. links[r] is the duplex connection
// to rank r (nil at the rank itself); only the rank's body goroutine
// writes a link.
type sockLink struct {
	links []*link
	// frame is the reusable encoding buffer; it grows to the largest
	// message and is not reallocated per send.
	frame []byte
}

type link struct {
	conn net.Conn
	w    *bufio.Writer
}

// sockPath is rank r's listening socket inside the job directory.
func sockPath(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("rank.%d.sock", r))
}

// connect builds the full mesh for one rank: listen on the rank's own
// socket, dial every lower rank (retrying until its listener exists),
// then accept one connection from every higher rank. Dialers identify
// themselves with a 4-byte hello. The linear setup is acceptable because
// a process group is spawned once per job, not per measurement.
func connect(dir string, rank, p int, deadline time.Time) (*Proc, error) {
	sock := &sockLink{links: make([]*link, p)}
	abort := backend.NewAbort()
	pr := &Proc{Core: backend.NewCore(rank, p, mailboxCap, sock, abort), sock: sock}
	if p == 1 {
		return pr, nil
	}
	ln, err := net.Listen("unix", sockPath(dir, rank))
	if err != nil {
		return nil, fmt.Errorf("rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	for r := 0; r < rank; r++ {
		conn, err := dialRetry(sockPath(dir, r), deadline)
		if err != nil {
			return nil, fmt.Errorf("rank %d dialing rank %d: %w", rank, r, err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return nil, fmt.Errorf("rank %d hello to rank %d: %w", rank, r, err)
		}
		sock.links[r] = &link{conn: conn, w: bufio.NewWriter(conn)}
	}
	for n := rank + 1; n < p; n++ {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("rank %d accepting peer: %w", rank, err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return nil, fmt.Errorf("rank %d reading hello: %w", rank, err)
		}
		src := int(binary.LittleEndian.Uint32(hello[:]))
		if src <= rank || src >= p || sock.links[src] != nil {
			return nil, fmt.Errorf("rank %d got hello from unexpected rank %d", rank, src)
		}
		sock.links[src] = &link{conn: conn, w: bufio.NewWriter(conn)}
	}
	for r, l := range sock.links {
		if l != nil {
			go read(l.conn, r, pr.Inbox(r), abort)
		}
	}
	return pr, nil
}

// dialRetry dials a peer socket, retrying while the peer's listener may
// not exist yet.
func dialRetry(path string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.Dial("unix", path)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// read is the per-link reader goroutine: it decodes frames from src into
// the core's mailbox until the connection closes. The first failure fires
// the core's abort slot, so blocked receives surface it instead of
// hanging.
func read(conn net.Conn, src int, in chan<- backend.Packet, abort *backend.Abort) {
	for {
		tag, owned, v, err := readFrame(conn)
		if err != nil {
			abort.Fire(fmt.Errorf("link from rank %d: %w", src, err))
			return
		}
		in <- backend.Packet{Value: v, Tag: tag, Owned: owned}
	}
}

// close shuts down every link; blocked peers observe EOF.
func (s *sockLink) close() {
	for _, l := range s.links {
		if l != nil {
			l.w.Flush()
			l.conn.Close()
		}
	}
}

// Outbound encodes the frame while the value is still readable: SendMove
// poisons it right after.
func (s *sockLink) Outbound(dst int, pkt backend.Packet) backend.Packet {
	s.frame = appendFrame(s.frame[:0], pkt.Tag, pkt.Owned, pkt.Value)
	return pkt
}

// Deliver writes the encoded frame to dst's socket. Kernel buffers and
// the peer's always-draining reader mean the link always has room, so a
// TrySend is never refused.
func (s *sockLink) Deliver(c *backend.Core, dst int, _ backend.Packet, _ bool) bool {
	l := s.links[dst]
	if _, err := l.w.Write(s.frame); err != nil {
		panic(fmt.Sprintf("mpbackend: rank %d sending to rank %d: %v", c.Rank(), dst, err))
	}
	if err := l.w.Flush(); err != nil {
		panic(fmt.Sprintf("mpbackend: rank %d sending to rank %d: %v", c.Rank(), dst, err))
	}
	return true
}

// ctrlBase offsets the barrier's control tags far below every application
// tag (NextTag counts up from 1, subgroup tags are offset positive), so a
// control message can never satisfy a collective's receive.
const ctrlBase = -(1 << 40)

// Barrier blocks until every rank of the group has entered it: non-zero
// ranks report to rank 0 and wait for its release. The measurement bodies
// use it to give every repetition a synchronized start, mirroring the
// barrier-released runs of the in-process backends. Control traffic does
// not count toward the message/word counters.
func (p *Proc) Barrier() {
	if p.Size() == 1 {
		return
	}
	p.ctrlseq++
	tag := ctrlBase - p.ctrlseq
	counted := p.Count
	if p.Rank() == 0 {
		for r := 1; r < p.Size(); r++ {
			p.Recv(r, tag)
		}
		for r := 1; r < p.Size(); r++ {
			p.Send(r, algebra.Scalar(0), tag)
		}
	} else {
		p.Send(0, algebra.Scalar(0), tag)
		p.Recv(0, tag)
	}
	p.Count = counted
}
