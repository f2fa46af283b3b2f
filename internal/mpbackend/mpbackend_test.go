// Conformance and protocol tests for the multi-process backend. Every
// test here spawns real OS processes: the test binary re-executes itself
// (TestMain calls MaybeWorker), so results compared against the
// in-process backends crossed a genuine serialization boundary.
package mpbackend_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// confBlocks mirrors the conformance harness's deterministic inputs.
func confBlocks(p, m int) []algebra.Value {
	in := make([]algebra.Value, p)
	for r := range in {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*7+j*3)%5 + 1)
		}
		in[r] = b
	}
	return in
}

// mpResults runs the "program" body and decodes the per-rank values.
func mpResults(t *testing.T, src string, p, m int) []algebra.Value {
	t.Helper()
	res, err := mpbackend.Run("program", p, mpbackend.ProgramParams{Src: src, M: m, Reps: 1}, mpbackend.Options{})
	if err != nil {
		t.Fatalf("mp run of %q: %v", src, err)
	}
	timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]algebra.Value, p)
	for r, tr := range timings {
		if out[r], err = mpbackend.DecodeResult(tr.Result); err != nil {
			t.Fatalf("rank %d result: %v", r, err)
		}
	}
	return out
}

// TestProgramsConform runs rule-grammar programs across process
// boundaries and asserts bitwise equality with the native backend and,
// modulo undetermined positions, with the functional semantics. The
// native reference runs the identical program through the same stage
// executor, so any divergence is a transport bug — serialization must be
// value-exact.
func TestProgramsConform(t *testing.T) {
	progs := []string{
		"bcast",
		"reduce(+)",
		"allreduce(+)",
		"scan(+)",
		"bcast ; scan(+)",
		"scan(*) ; reduce(+) ; bcast",
		"gather ; scatter",
		"map pair ; allreduce(min) ; map pi_1",
	}
	sizes := []int{1, 2, 3, 4, 5, 8}
	if testing.Short() {
		progs = progs[:5]
		sizes = []int{1, 2, 3, 4}
	}
	for _, p := range sizes {
		for _, src := range progs {
			t.Run(fmt.Sprintf("p=%d/%s", p, src), func(t *testing.T) {
				syms := lang.NewSymbols()
				syms.DefineFn(rules.IncFn)
				parsed, err := lang.Parse(src, syms)
				if err != nil {
					t.Fatal(err)
				}
				prog := term.Compose(parsed)
				const m = 16
				in := confBlocks(p, m)
				want, _ := core.ExecNative(prog, backend.New(p), in)
				sem := term.Eval(prog, in)
				got := mpResults(t, src, p, m)
				for r := 0; r < p; r++ {
					if !algebra.Equal(want[r], got[r]) {
						t.Fatalf("rank %d: multiproc %v, native %v", r, got[r], want[r])
					}
					if !algebra.EqualModuloUndef(got[r], sem[r]) {
						t.Fatalf("rank %d: multiproc %v, semantics %v", r, got[r], sem[r])
					}
				}
			})
		}
	}
}

// TestCollectiveAlgosConform runs every row of the portfolio table across
// process boundaries and asserts bitwise equality with the native
// backend running the identical algorithm through sel.Run.
func TestCollectiveAlgosConform(t *testing.T) {
	sizes := []int{4, 7}
	if testing.Short() {
		sizes = []int{4}
	}
	type tc struct {
		collective string
		algo       cost.Algo
	}
	var cases []tc
	for _, collective := range cost.Collectives() {
		for _, a := range cost.Algos(collective) {
			cases = append(cases, tc{collective, a})
		}
	}
	const m, seed, segments = 32, 11, 3
	for _, p := range sizes {
		in := mpbackend.SeededInputs(seed, p, m)
		for _, c := range cases {
			t.Run(fmt.Sprintf("p=%d/%s@%s", p, c.collective, c.algo), func(t *testing.T) {
				want := make([]algebra.Value, p)
				nm := backend.New(p)
				nm.Run(func(pr *backend.Proc) {
					want[pr.Rank()] = sel.Run(pr, c.collective, c.algo, algebra.Add, in[pr.Rank()], segments)
				})
				res, err := mpbackend.Run("collective", p, mpbackend.CollectiveParams{
					Collective: c.collective, Algo: string(c.algo), Op: "add",
					M: m, Segments: segments, Reps: 1, Seed: seed,
				}, mpbackend.Options{})
				if err != nil {
					t.Fatal(err)
				}
				timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
				if err != nil {
					t.Fatal(err)
				}
				for r := range timings {
					got, err := mpbackend.DecodeResult(timings[r].Result)
					if err != nil {
						t.Fatal(err)
					}
					if len(timings[r].RepNs) != 2 {
						t.Fatalf("rank %d reported %d repetitions, want warm-up + 1", r, len(timings[r].RepNs))
					}
					if !algebra.Equal(want[r], got) {
						t.Fatalf("rank %d: multiproc %v, native %v", r, got, want[r])
					}
				}
			})
		}
	}
}

// TestCountersMatchNative cross-checks the traffic accounting: the same
// program must move the same messages and words across process boundaries
// as it does on the in-process backends.
func TestCountersMatchNative(t *testing.T) {
	const src = "bcast ; scan(+) ; allreduce(+)"
	const p, m = 5, 8
	syms := lang.NewSymbols()
	parsed, err := lang.Parse(src, syms)
	if err != nil {
		t.Fatal(err)
	}
	prog := term.Compose(parsed)
	in := confBlocks(p, m)
	nm := backend.New(p)
	nres := nm.Run(func(pr *backend.Proc) {
		core.RunStagesSelected(pr, prog, in[pr.Rank()], nil)
	})
	res, err := mpbackend.Run("program", p, mpbackend.ProgramParams{Src: src, M: m, Reps: 1}, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msgs, words := 0, 0
	for _, r := range res {
		msgs += r.Msgs
		words += r.Words
	}
	// The body runs a warm-up plus one timed repetition: twice the
	// program's traffic.
	if msgs != 2*nres.Messages || words != 2*nres.Words {
		t.Fatalf("multiproc moved %d msgs/%d words over 2 runs, native %d/%d per run",
			msgs, words, nres.Messages, nres.Words)
	}
}

// TestProbeBody smoke-tests the calibration probes across processes: the
// timing vectors have the warm-up-plus-reps shape and every entry is a
// positive wall-clock measurement.
func TestProbeBody(t *testing.T) {
	for _, probe := range []string{"pingpong", "bcast", "reduce", "scan"} {
		p := 2
		if probe != "pingpong" {
			p = 3
		}
		res, err := mpbackend.Run("probe", p, mpbackend.ProbeParams{Probe: probe, M: 64, Rounds: 4, Reps: 2}, mpbackend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
		if err != nil {
			t.Fatal(err)
		}
		for r, tr := range timings {
			if len(tr.RepNs) != 3 {
				t.Fatalf("%s rank %d: %d repetitions, want warm-up + 2", probe, r, len(tr.RepNs))
			}
			for i, ns := range tr.RepNs {
				if ns <= 0 {
					t.Fatalf("%s rank %d rep %d: non-positive time %g", probe, r, i, ns)
				}
			}
		}
	}
	res, err := mpbackend.Run("probe", 1, mpbackend.ProbeParams{Probe: "compute", M: 64, Rounds: 16, Reps: 2}, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("compute probe returned %d ranks", len(res))
	}
}

// echoRegistered exercises the Register extension seam: a custom body
// compiled into this test binary, resolved by name in the re-executed
// workers. It allgathers the ranks and returns the list, so it also
// checks full-mesh connectivity directly.
func init() {
	mpbackend.Register("test-allgather", func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
		got := coll.AllGather(p, algebra.Scalar(float64(p.Rank()*p.Rank())))
		out := make([]float64, len(got))
		for i, v := range got {
			out[i] = float64(v.(algebra.Scalar))
		}
		return out, nil
	})
}

func TestRegisteredBody(t *testing.T) {
	const p = 4
	res, err := mpbackend.Run("test-allgather", p, nil, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := mpbackend.Decode[[]float64](res)
	if err != nil {
		t.Fatal(err)
	}
	for r, list := range lists {
		if len(list) != p {
			t.Fatalf("rank %d gathered %d entries", r, len(list))
		}
		for i, v := range list {
			if v != float64(i*i) {
				t.Fatalf("rank %d entry %d = %g, want %d", r, i, v, i*i)
			}
		}
	}
}

// TestRunErrors pins the coordinator's failure modes: unknown bodies and
// failing ranks surface as errors, not hangs.
func TestRunErrors(t *testing.T) {
	if _, err := mpbackend.Run("no-such-body", 2, nil, mpbackend.Options{}); err == nil {
		t.Fatal("unknown body did not fail")
	}
	if _, err := mpbackend.Run("program", 2, mpbackend.ProgramParams{Src: "scan(", M: 1}, mpbackend.Options{}); err == nil {
		t.Fatal("unparsable program did not fail")
	}
	if _, err := mpbackend.Run("probe", 3, mpbackend.ProbeParams{Probe: "pingpong", M: 1, Rounds: 1, Reps: 1}, mpbackend.Options{}); err == nil {
		t.Fatal("pingpong on 3 ranks did not fail")
	}
}

// recvCycle deadlocks two ranks: each waits for the other on tag 7 and
// nobody sends.
func init() {
	mpbackend.Register("test-recv-cycle", func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
		p.Recv(1-p.Rank(), 7)
		return nil, nil
	})
}

// TestDeadlockNamesBlockedRanks pins the multi-process deadlock report:
// a job that wedges in a receive cycle must fail at its timeout with an
// error naming every blocked rank, the peer it waits for and the tag —
// the same blocked-on line the native watchdog prints. Whichever rank's
// timeout fires first, the other sees its link close while still
// blocked, and its failure names the same edge.
func TestDeadlockNamesBlockedRanks(t *testing.T) {
	_, err := mpbackend.Run("test-recv-cycle", 2, nil, mpbackend.Options{Timeout: time.Second})
	if err == nil {
		t.Fatal("a receive cycle did not fail")
	}
	for r := 0; r < 2; r++ {
		line := regexp.MustCompile(fmt.Sprintf(`rank %d\b[^\n]*blocked receiving from rank %d \(tag 7\)`, r, 1-r))
		if !line.MatchString(err.Error()) {
			t.Errorf("no blocked-on report for rank %d in:\n%v", r, err)
		}
	}
}
