package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/mpbackend"
)

var clockBase = time.Now()

// nanotime is a monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// phase is one timed pass of the exec loop: a variant of every corpus
// entry, run either for a fixed number of rounds (a round runs each
// entry once) or until Seconds have passed.
type phase struct {
	Variant int     `json:"variant"`
	Staged  bool    `json:"staged"`
	Rounds  int     `json:"rounds,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
}

// phaseResult is what one phase measured. Makespans[i] holds entry i's
// makespans (ns, max over ranks), Stages[i][s] its stage s times (ns,
// max over ranks) when the phase was staged.
type phaseResult struct {
	Makespans [][]float64
	Stages    [][][]float64
	Execs     int64
	Failed    int64
	WallNs    float64
	// AllocBytes is the TotalAlloc growth over the phase, summed over
	// ranks (each multi-process rank reports its own).
	AllocBytes float64
	// Msgs, Words and Ops are the traffic and work counters of the
	// phase, summed over ranks.
	Msgs, Words int64
	Ops         float64
}

// nativeExec runs corpus entries on one reused in-process machine.
type nativeExec struct {
	nm    *backend.Machine
	outs  []algebra.Value
	stage [][]int64
}

func newNativeExec(p int) *nativeExec {
	return &nativeExec{nm: backend.New(p), outs: make([]algebra.Value, p), stage: make([][]int64, p)}
}

// once executes one entry on every rank and checks every rank's output.
func (x *nativeExec) once(e *entry, variant int, staged bool) (backend.Result, []float64, bool) {
	for r := range x.stage {
		if staged {
			x.stage[r] = growInt64(x.stage[r], len(e.Stages))
		} else {
			x.stage[r] = nil
		}
	}
	res := x.nm.Run(func(pr *backend.Proc) {
		x.outs[pr.Rank()] = execEntry(pr, e, variant, x.stage[pr.Rank()])
	})
	ok := true
	for r, out := range x.outs {
		if !outputOK(out, e.Ref[r]) {
			ok = false
		}
	}
	var st []float64
	if staged {
		st = make([]float64, len(e.Stages))
		for _, ns := range x.stage {
			for i, v := range ns {
				st[i] = math.Max(st[i], float64(v))
			}
		}
	}
	return res, st, ok
}

func growInt64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

// run executes one phase in process.
func (x *nativeExec) run(corpus []*entry, ph phase) phaseResult {
	pr := phaseResult{Makespans: make([][]float64, len(corpus))}
	if ph.Staged {
		pr.Stages = make([][][]float64, len(corpus))
		for i, e := range corpus {
			pr.Stages[i] = make([][]float64, len(e.Stages))
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(ph.Seconds * float64(time.Second)))
	for round := 0; ; round++ {
		if ph.Rounds > 0 && round == ph.Rounds || ph.Rounds == 0 && !time.Now().Before(deadline) {
			break
		}
		for i, e := range corpus {
			res, st, ok := x.once(e, ph.Variant, ph.Staged)
			pr.Makespans[i] = append(pr.Makespans[i], float64(res.Makespan))
			for s, v := range st {
				pr.Stages[i][s] = append(pr.Stages[i][s], v)
			}
			pr.Execs++
			if !ok {
				pr.Failed++
			}
			pr.Msgs += int64(res.Messages)
			pr.Words += int64(res.Words)
			pr.Ops += res.Ops
		}
	}
	pr.WallNs = float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	pr.AllocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	return pr
}

// mpExecBody is the benchmark's own multi-process body. Every rank
// rebuilds the corpus with the same deterministic optimizer call, runs
// the requested phases through core.RunStagesSelected with a
// barrier-synchronized start per execution, checks its own outputs, and
// reports its timings, counters, allocation and the plans it ran.
const mpExecBody = "perfbench-exec"

func init() { mpbackend.Register(mpExecBody, runMPExec) }

type mpExecParams struct {
	Seed   int64   `json:"seed"`
	Phases []phase `json:"phases"`
}

type mpPhaseOut struct {
	// Makespans and Stages are flattened round-major (rounds × entries,
	// rounds × Σ stages) and hold maxima over ranks; only rank 0 fills
	// them.
	Makespans  []float64 `json:"makespans,omitempty"`
	Stages     []float64 `json:"stages,omitempty"`
	Rounds     int       `json:"rounds"`
	Failed     int64     `json:"failed"`
	WallNs     float64   `json:"wall_ns"`
	AllocBytes float64   `json:"alloc_bytes"`
}

type mpExecOut struct {
	Canonicals []string     `json:"canonicals"`
	Phases     []mpPhaseOut `json:"phases"`
}

func runMPExec(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
	var ps mpExecParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	corpus, err := buildCorpus(ps.Seed, p.Size())
	if err != nil {
		return nil, err
	}
	out := mpExecOut{}
	for _, e := range corpus {
		out.Canonicals = append(out.Canonicals, e.Canonical)
	}
	stageNs := make([]int64, 0, 64)
	for _, ph := range ps.Phases {
		var po mpPhaseOut
		var makespans, stages []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		deadline := time.Duration(ph.Seconds * float64(time.Second))
		for round := 0; ; round++ {
			if ph.Rounds > 0 {
				if round == ph.Rounds {
					break
				}
			} else {
				// Rank 0 decides for everyone whether another round fits.
				more := 0.0
				if p.Rank() == 0 && time.Since(start) < deadline {
					more = 1
				}
				if coll.Bcast(p, 0, algebra.Scalar(more)).(algebra.Scalar) == 0 {
					break
				}
			}
			po.Rounds++
			for _, e := range corpus {
				var sn []int64
				if ph.Staged {
					sn = growInt64(stageNs, len(e.Stages))
				}
				p.ScratchArena().Reset()
				p.Barrier()
				ts := nanotime()
				v := execEntry(p, e, ph.Variant, sn)
				makespans = append(makespans, float64(nanotime()-ts))
				for _, s := range sn {
					stages = append(stages, float64(s))
				}
				if !outputOK(v, e.Ref[p.Rank()]) {
					po.Failed++
				}
			}
		}
		po.WallNs = float64(time.Since(start))
		runtime.ReadMemStats(&m1)
		po.AllocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
		if ph.Rounds == 0 {
			// Per execution, the slowest rank sets the makespan.
			po.Makespans = maxOverRanks(p, makespans)
			if ph.Staged {
				po.Stages = maxOverRanks(p, stages)
			}
		}
		out.Phases = append(out.Phases, po)
	}
	return out, nil
}

// maxOverRanks reduces a per-rank sample vector elementwise to its
// maximum over ranks; rank 0 returns it, the others nil.
func maxOverRanks(p *mpbackend.Proc, xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	v := coll.Reduce(p, 0, algebra.Max, algebra.Vec(append([]float64(nil), xs...)))
	if p.Rank() != 0 {
		return nil
	}
	// Copy out: the reduction's buffer belongs to the rank's scratch
	// arena, which the next phase resets.
	return append([]float64(nil), algebra.Boxed(v).(algebra.Vec)...)
}

// mpJob is a finished multi-process exec job as the coordinator sees it.
type mpJob struct {
	Phases []phaseResult
	// WallNs is the coordinator's wall time for the whole job, spawn
	// included.
	WallNs      float64
	Msgs, Words int64
	Ops         float64
}

// runMPJob runs the phases as one multi-process job of p ranks and
// reassembles per-entry samples, checking that every rank ran the plans
// the coordinator built.
func runMPJob(corpus []*entry, seed int64, p int, phases []phase, budget time.Duration) (*mpJob, error) {
	t0 := time.Now()
	results, err := mpbackend.Run(mpExecBody, p, mpExecParams{Seed: seed, Phases: phases},
		mpbackend.Options{Timeout: budget + 60*time.Second})
	if err != nil {
		return nil, err
	}
	job := &mpJob{WallNs: float64(time.Since(t0))}
	outs, err := mpbackend.Decode[mpExecOut](results)
	if err != nil {
		return nil, err
	}
	for r, o := range outs {
		if len(o.Canonicals) != len(corpus) {
			return nil, fmt.Errorf("rank %d built %d plans, coordinator %d", r, len(o.Canonicals), len(corpus))
		}
		for i, c := range o.Canonicals {
			if c != corpus[i].Canonical {
				return nil, fmt.Errorf("rank %d ran plan %q for %s, coordinator built %q", r, c, corpus[i].Name, corpus[i].Canonical)
			}
		}
		if len(o.Phases) != len(phases) {
			return nil, fmt.Errorf("rank %d ran %d phases, want %d", r, len(o.Phases), len(phases))
		}
		job.Msgs += int64(results[r].Msgs)
		job.Words += int64(results[r].Words)
		job.Ops += results[r].Ops
	}
	for k, ph := range phases {
		o0 := outs[0].Phases[k]
		pr := phaseResult{Makespans: make([][]float64, len(corpus)), WallNs: o0.WallNs}
		for _, o := range outs {
			pr.Failed += o.Phases[k].Failed
			pr.AllocBytes += o.Phases[k].AllocBytes
		}
		pr.Execs = int64(o0.Rounds * len(corpus))
		if ph.Rounds == 0 {
			if len(o0.Makespans) != o0.Rounds*len(corpus) {
				return nil, fmt.Errorf("rank 0 returned %d makespans for %d rounds", len(o0.Makespans), o0.Rounds)
			}
			if ph.Staged {
				pr.Stages = make([][][]float64, len(corpus))
				for i, e := range corpus {
					pr.Stages[i] = make([][]float64, len(e.Stages))
				}
			}
			mi, si := 0, 0
			for round := 0; round < o0.Rounds; round++ {
				for i, e := range corpus {
					pr.Makespans[i] = append(pr.Makespans[i], o0.Makespans[mi])
					mi++
					if ph.Staged {
						for s := range e.Stages {
							pr.Stages[i][s] = append(pr.Stages[i][s], o0.Stages[si])
							si++
						}
					}
				}
			}
		}
		job.Phases = append(job.Phases, pr)
	}
	return job, nil
}
