package mpbackend

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// Built-in bodies: the calibration probes ("probe"), the algorithm
// portfolio measurement ("collective"), and the rule-grammar program
// executor ("program"). Together they let calib and exper re-run every
// table and figure across process boundaries without any new measurement
// code of their own — the same probes, the same collectives, the same
// timing discipline (barrier-synchronized repetitions, minimum taken by
// the caller), just on this backend.

func init() {
	Register("probe", probeBody)
	Register("collective", collectiveBody)
	Register("program", programBody)
}

// opByName resolves the operator names jobs may carry.
func opByName(name string) (*algebra.Op, error) {
	switch name {
	case "", "add":
		return algebra.Add, nil
	case "mul":
		return algebra.Mul, nil
	case "matmul":
		return algebra.MatMul, nil
	}
	return nil, fmt.Errorf("mpbackend: unknown operator %q", name)
}

// SeededInputs builds one deterministic m-word block per rank, with small
// integer entries drawn sequentially from one seeded source, so every
// rank — in this process or another — reconstructs the whole input list
// and picks its own. It is the one seeded input generator of the
// measurement packages (calib, exper and the bodies here): the
// multi-process conformance comparisons depend on every side drawing the
// same blocks.
func SeededInputs(seed int64, p, m int) []algebra.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([]algebra.Value, p)
	for i := range out {
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = float64(rng.Intn(9) + 1)
		}
		out[i] = v
	}
	return out
}

// probeSink keeps the compute probe's result alive.
var probeSink algebra.Value

// ProbeKernel builds one rank's operation of a calibration probe —
// "pingpong", "compute", "bcast", "reduce" or "scan" — iterated rounds
// times at block size m, for the rank of a group of size ranks. The seeded
// inputs (seeds 1, 2 and 3) and the compute probe's accumulator are
// built here, so the returned operation runs only the timed work. It is
// the one probe kernel of both substrates: calib runs it on native
// backend ranks, the "probe" body on process ranks.
func ProbeKernel(probe string, rank, ranks, m, rounds int) (func(c coll.Comm), error) {
	switch probe {
	case "pingpong":
		if ranks != 2 {
			return nil, fmt.Errorf("mpbackend: pingpong needs exactly 2 ranks, got %d", ranks)
		}
		v := SeededInputs(1, 1, m)[0]
		return func(c coll.Comm) {
			for i := 0; i < rounds; i++ {
				t1, t2 := c.NextTag(), c.NextTag()
				if c.Rank() == 0 {
					c.Send(1, v, t1)
					c.Recv(1, t2)
				} else {
					w := c.Recv(0, t1)
					c.Send(0, w, t2)
				}
			}
		}, nil
	case "compute":
		in := SeededInputs(2, 2, m)
		v0, w := in[0].(algebra.Vec), in[1]
		acc := make(algebra.Vec, m)
		return func(coll.Comm) {
			copy(acc, v0)
			// The in-place kernel, not the boxed reference: the unit
			// must price the path the collectives actually run.
			v := algebra.Value(acc)
			for i := 0; i < rounds; i++ {
				v = algebra.Add.ApplyInto(v, v, w)
			}
			probeSink = v
		}, nil
	case "bcast", "reduce", "scan":
		v := SeededInputs(3, ranks, m)[rank]
		return func(c coll.Comm) {
			for i := 0; i < rounds; i++ {
				switch probe {
				case "bcast":
					coll.Bcast(c, 0, v)
				case "reduce":
					coll.Reduce(c, 0, algebra.Add, v)
				case "scan":
					coll.Scan(c, algebra.Add, v)
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("mpbackend: unknown probe %q", probe)
}

// encodeResult serializes a value for the JSON result envelope using the
// wire codec.
func encodeResult(v algebra.Value) string {
	return base64.StdEncoding.EncodeToString(appendValue(nil, v))
}

// DecodeResult decodes a value a body encoded with the wire codec — the
// coordinator-side half of result comparison.
func DecodeResult(s string) (algebra.Value, error) {
	data, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	v, rest, err := readValue(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mpbackend: %d trailing bytes after result value", len(rest))
	}
	return v, nil
}

// ProbeParams parameterizes the "probe" body: the calib probe kinds run
// on this backend. Rounds is the in-run iteration count (already scaled
// by the caller), Reps the number of barrier-separated repetitions — one
// extra warm-up repetition is prepended and reported, so callers discard
// RepNs[0].
type ProbeParams struct {
	Probe  string `json:"probe"`
	M      int    `json:"m"`
	Rounds int    `json:"rounds"`
	Reps   int    `json:"reps"`
}

// TimingResult is the per-rank result of the measurement bodies: the
// rank's elapsed wall time per repetition, from the repetition's barrier
// release to its own finish. The coordinator computes each repetition's
// makespan as the maximum over ranks and takes the minimum over the
// non-warm-up repetitions — the same methodology as the in-process
// backends.
type TimingResult struct {
	RepNs []float64 `json:"rep_ns"`
	// Result carries the final value of the last repetition (wire codec,
	// base64) where the body has one — the conformance hook.
	Result string `json:"result,omitempty"`
}

// MinMakespan reduces the measurement bodies' per-rank timings to one
// number the way the in-process backends do: each repetition's makespan
// is the maximum over ranks (the barrier releases everyone together, so
// per-rank deltas share a start), the warm-up repetition RepNs[0] is
// discarded, and the minimum over the rest estimates the undisturbed run.
func MinMakespan(results []RankResult) (float64, error) {
	timings, err := Decode[TimingResult](results)
	if err != nil {
		return 0, err
	}
	if len(timings) == 0 {
		return 0, fmt.Errorf("mpbackend: no rank timings")
	}
	n := len(timings[0].RepNs)
	if n < 2 {
		return 0, fmt.Errorf("mpbackend: need a warm-up plus at least one timed repetition, got %d", n)
	}
	for r, tr := range timings {
		if len(tr.RepNs) != n {
			return 0, fmt.Errorf("mpbackend: rank %d reported %d repetitions, rank 0 reported %d", r, len(tr.RepNs), n)
		}
	}
	best := math.Inf(1)
	for rep := 1; rep < n; rep++ {
		makespan := 0.0
		for _, tr := range timings {
			if tr.RepNs[rep] > makespan {
				makespan = tr.RepNs[rep]
			}
		}
		if makespan < best {
			best = makespan
		}
	}
	return best, nil
}

// repTimed runs op once per repetition (plus one warm-up), each from a
// barrier-synchronized start, resetting the scratch arena before every
// repetition exactly like Machine.Run does on the native backend.
func repTimed(p *Proc, reps int, op func()) []float64 {
	ns := make([]float64, 0, reps+1)
	for rep := 0; rep <= reps; rep++ {
		p.ScratchArena().Reset()
		p.Barrier()
		t0 := time.Now()
		op()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return ns
}

func probeBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps ProbeParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.Reps < 1 || ps.Rounds < 1 || ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: probe needs reps, rounds and m ≥ 1")
	}
	op, err := ProbeKernel(ps.Probe, p.Rank(), p.Size(), ps.M, ps.Rounds)
	if err != nil {
		return nil, err
	}
	return TimingResult{RepNs: repTimed(p, ps.Reps, func() { op(p) })}, nil
}

// CollectiveParams parameterizes the "collective" body: one portfolio
// algorithm of one collective, run on seeded inputs — the measurement
// behind the multi-process algorithm sweep and the crossover validation.
type CollectiveParams struct {
	// Collective is cost.CollReduce or cost.CollAllReduce; Algo a
	// portfolio algorithm name (cost.Algo), "" or "butterfly" for the
	// §4.1 baseline.
	Collective string `json:"collective"`
	Algo       string `json:"algo"`
	Op         string `json:"op"`
	M          int    `json:"m"`
	Segments   int    `json:"segments"`
	Reps       int    `json:"reps"`
	Seed       int64  `json:"seed"`
}

func collectiveBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps CollectiveParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.Reps < 1 || ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: collective needs reps and m ≥ 1")
	}
	if !slices.Contains(cost.Collectives(), ps.Collective) {
		return nil, fmt.Errorf("mpbackend: unknown collective %q", ps.Collective)
	}
	op, err := opByName(ps.Op)
	if err != nil {
		return nil, err
	}
	in := SeededInputs(ps.Seed, p.Size(), ps.M)[p.Rank()]
	var out algebra.Value
	run := func() {
		out = sel.Run(p, ps.Collective, cost.Algo(ps.Algo), op, in, ps.Segments)
	}
	ns := repTimed(p, ps.Reps, run)
	// Re-box before the arena-backed result is encoded: the final
	// repetition's buffers are still live (no Reset ran after it).
	return TimingResult{RepNs: ns, Result: encodeResult(out)}, nil
}

// ProgramParams parameterizes the "program" body: a rule-grammar program
// in surface syntax, run by the backend-generic stage executor on the
// conformance harness's deterministic inputs.
type ProgramParams struct {
	Src  string `json:"src"`
	M    int    `json:"m"`
	Reps int    `json:"reps"`
}

// confBlocks mirrors the conformance harness's deterministic per-rank
// blocks (backend's conformance_test.blocks and collchaos's).
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

// confInputs adapts the blocks to the program: a leading scatter consumes
// a p-component list on rank 0, a leading reduce_scatterv a full
// ΣCounts-word vector per rank, and a leading allgatherv the ragged
// counts[r]-word blocks — as in the chaos harness.
func confInputs(prog term.Seq, p, m int) []algebra.Value {
	if len(prog) > 0 {
		switch st := prog[0].(type) {
		case term.Scatter:
			in := make([]algebra.Value, p)
			list := make(algebra.Tuple, p)
			copy(list, confBlocks(p, m))
			in[0] = list
			for r := 1; r < p; r++ {
				in[r] = algebra.Scalar(float64(-r))
			}
			return in
		case term.ReduceScatterV:
			total := term.SumCounts(st.Counts)
			in := make([]algebra.Value, p)
			for r := range in {
				b := make(algebra.Vec, total)
				for j := range b {
					b[j] = float64((r*7+j*3)%5 + 1)
				}
				in[r] = b
			}
			return in
		case term.AllGatherV:
			in := make([]algebra.Value, p)
			for r := range in {
				cnt := 0
				if r < len(st.Counts) {
					cnt = st.Counts[r]
				}
				b := make(algebra.Vec, cnt)
				for j := range b {
					b[j] = float64((r*7+j*3)%5 + 1)
				}
				in[r] = b
			}
			return in
		}
	}
	return confBlocks(p, m)
}

func programBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps ProgramParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: program needs m ≥ 1")
	}
	if ps.Reps < 1 {
		ps.Reps = 1
	}
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	t, err := lang.Parse(ps.Src, syms)
	if err != nil {
		return nil, fmt.Errorf("mpbackend: bad program: %v", err)
	}
	prog := term.Compose(t)
	in := confInputs(prog, p.Size(), ps.M)[p.Rank()]
	var out algebra.Value
	ns := repTimed(p, ps.Reps, func() {
		out = core.RunStagesSelected(p, prog, in, nil)
	})
	return TimingResult{RepNs: ns, Result: encodeResult(out)}, nil
}
