// Link contracts: the point-to-point outcomes every real backend must
// share. Each contract is one SPMD body run unchanged on the native
// backend (goroutine ranks over channels) and on the multi-process
// backend (OS-process ranks over sockets), so both link drivers are held
// to the same rank-core behaviour.
package backend_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/mpbackend"
)

// TestMain lets the multi-process contracts re-execute this test binary
// as their rank workers.
func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// contractComm is the surface the contract bodies use; both backends'
// Procs implement it.
type contractComm interface {
	coll.Comm
	coll.Mover
}

// linkContract is one body and the outcome it must have on every backend.
type linkContract struct {
	p    int
	body func(c contractComm)
	// fails is text the run's failure must contain; empty means the run
	// must succeed.
	fails string
	// spares, when set, is a rank the failure must not mention.
	spares string
}

var linkContracts = map[string]linkContract{
	"tag-mismatch": {p: 2, fails: "expected tag 2 from rank 0, got 1", body: func(c contractComm) {
		if c.Rank() == 0 {
			c.Send(1, algebra.Scalar(1), 1)
		} else {
			c.Recv(0, 2)
		}
	}},
	"self-send": {p: 2, fails: "rank 0 sending to itself", body: func(c contractComm) {
		if c.Rank() == 0 {
			c.Send(0, algebra.Scalar(1), 1)
		}
	}},
	"send-out-of-range": {p: 2, fails: "rank 2 out of range [0,2)", body: func(c contractComm) {
		if c.Rank() == 0 {
			c.Send(2, algebra.Scalar(1), 1)
		}
	}},
	"recv-out-of-range": {p: 2, fails: "rank -1 out of range [0,2)", body: func(c contractComm) {
		if c.Rank() == 1 {
			c.Recv(-1, 1)
		}
	}},
	// Rank 0 moves a tuple to rank 1 and checks its own poison; rank 2
	// relays "checked" to rank 1, which only then adopts the tuple, so
	// the sender's flag read is ordered before the receiver's clear.
	"move-owned": {p: 3, body: func(c contractComm) {
		const moved, checked = 5, 6
		switch c.Rank() {
		case 0:
			ft := algebra.NewFlatTuple(2, 4)
			for i := range ft.Data {
				ft.Data[i] = float64(i + 1)
			}
			c.SendMove(1, ft, moved)
			if !ft.IsMoved() {
				panic("sender's tuple not poisoned after SendMove")
			}
			c.Send(2, algebra.Scalar(0), checked)
		case 2:
			c.Send(1, c.Recv(0, checked), checked)
		case 1:
			c.Recv(2, checked)
			v, owned := c.RecvOwned(0, moved)
			if !owned {
				panic("RecvOwned after SendMove reported a borrow")
			}
			got, ok := v.(*algebra.FlatTuple)
			if !ok || got.IsMoved() || got.Data[7] != 8 {
				panic(fmt.Sprintf("adopted %v, want an owned, unpoisoned copy of the tuple", v))
			}
			got.Data[0] = 42 // the new owner writes in place
		}
	}},
	// Rank 0 fails right after its send; rank 1 must still get the
	// message. The delay is not synchronization — the outcome must hold
	// either way — it only makes rank 0's failure (and, across processes,
	// the close of its link) usually precede the receive.
	"delivered-before-close": {p: 2, fails: "rank 0 leaves after its send", spares: "rank 1", body: func(c contractComm) {
		if c.Rank() == 0 {
			c.Send(1, algebra.Scalar(42), 3)
			panic("rank 0 leaves after its send")
		}
		time.Sleep(100 * time.Millisecond)
		if v := c.Recv(0, 3); !algebra.Equal(v, algebra.Scalar(42)) {
			panic(fmt.Sprintf("received %v, want 42", v))
		}
	}},
}

func init() {
	for name, lc := range linkContracts {
		body := lc.body
		mpbackend.Register("link-contract/"+name, func(p *mpbackend.Proc, _ json.RawMessage) (any, error) {
			body(p)
			return nil, nil
		})
	}
}

// runContract runs the named contract on both backends and checks its
// outcome on each.
func runContract(t *testing.T, name string) {
	t.Helper()
	lc := linkContracts[name]
	t.Run("native", func(t *testing.T) {
		var failure string
		func() {
			defer func() {
				if e := recover(); e != nil {
					failure = fmt.Sprint(e)
				}
			}()
			backend.New(lc.p).Run(func(p *backend.Proc) { lc.body(p) })
		}()
		checkOutcome(t, lc, failure)
	})
	t.Run("multiproc", func(t *testing.T) {
		var failure string
		if _, err := mpbackend.Run("link-contract/"+name, lc.p, nil, mpbackend.Options{Timeout: 30 * time.Second}); err != nil {
			failure = err.Error()
		}
		checkOutcome(t, lc, failure)
	})
}

func checkOutcome(t *testing.T, lc linkContract, failure string) {
	t.Helper()
	switch {
	case lc.fails == "" && failure != "":
		t.Fatalf("run failed: %s", failure)
	case lc.fails != "" && !strings.Contains(failure, lc.fails):
		t.Fatalf("failure %q does not contain %q", failure, lc.fails)
	case lc.spares != "" && strings.Contains(failure, lc.spares):
		t.Fatalf("failure mentions %s, which should have succeeded:\n%s", lc.spares, failure)
	}
}

func TestTagMismatchPanics(t *testing.T) { runContract(t, "tag-mismatch") }

func TestSelfSendPanics(t *testing.T) { runContract(t, "self-send") }

func TestOutOfRangeRankPanics(t *testing.T) {
	t.Run("send", func(t *testing.T) { runContract(t, "send-out-of-range") })
	t.Run("recv", func(t *testing.T) { runContract(t, "recv-out-of-range") })
}

func TestSendMoveArrivesOwned(t *testing.T) { runContract(t, "move-owned") }

func TestDeliveredBeforeLinkClose(t *testing.T) { runContract(t, "delivered-before-close") }
