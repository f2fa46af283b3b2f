package backend_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
)

// The native Proc must satisfy the communicator interface the collective
// library is written against — that is the whole premise of the backend.
var _ coll.Comm = (*backend.Proc)(nil)

func TestRunTimingAndResultShape(t *testing.T) {
	nm := backend.New(4)
	res := nm.Run(func(p *backend.Proc) {
		coll.AllReduce(p, algebra.Add, algebra.Scalar(float64(p.Rank())))
	})
	if len(res.Ranks) != 4 {
		t.Fatalf("Ranks has %d entries", len(res.Ranks))
	}
	max := time.Duration(0)
	for r, d := range res.Ranks {
		if d <= 0 {
			t.Errorf("rank %d elapsed %v, want > 0", r, d)
		}
		if d > max {
			max = d
		}
	}
	if res.Makespan != max {
		t.Fatalf("Makespan %v != max rank time %v", res.Makespan, max)
	}
}

func TestCounters(t *testing.T) {
	nm := backend.New(2)
	v := make(algebra.Vec, 10)
	res := nm.Run(func(p *backend.Proc) {
		if p.Rank() == 0 {
			p.Send(1, v, 7)
		} else {
			got := p.Recv(0, 7)
			if got.Words() != 10 {
				t.Errorf("received %d words, want 10", got.Words())
			}
		}
		p.Compute(3)
	})
	if res.Messages != 1 || res.Words != 10 {
		t.Fatalf("counted %d messages / %d words, want 1 / 10", res.Messages, res.Words)
	}
	if res.Ops != 6 {
		t.Fatalf("charged %g ops, want 6", res.Ops)
	}
}

func TestDeadlockTimeout(t *testing.T) {
	nm := backend.New(2)
	nm.Timeout = 50 * time.Millisecond
	msg := mustPanic(t, func() {
		nm.Run(func(p *backend.Proc) {
			if p.Rank() == 1 {
				p.Recv(0, 1) // rank 0 never sends
			}
		})
	})
	if !strings.Contains(msg, "waiting for a message") {
		t.Fatalf("panic message %q does not diagnose the deadlock", msg)
	}
}

func TestBodyPanicIdentifiesRank(t *testing.T) {
	msg := mustPanic(t, func() {
		backend.New(4).Run(func(p *backend.Proc) {
			if p.Rank() == 2 {
				panic("kaboom")
			}
		})
	})
	if !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic message %q does not identify the failing rank", msg)
	}
}

func TestSingleRank(t *testing.T) {
	nm := backend.New(1)
	var got algebra.Value
	nm.Run(func(p *backend.Proc) {
		got = coll.Scan(p, algebra.Add, algebra.Scalar(42))
	})
	if !algebra.Equal(got, algebra.Scalar(42)) {
		t.Fatalf("singleton scan = %v", got)
	}
}

func TestNewValidatesSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	backend.New(0)
}
