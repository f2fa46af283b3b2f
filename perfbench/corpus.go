package main

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// execSizes are the block sizes every corpus program runs at: m=16 is
// start-up bound, m=4096 bandwidth and kernel bound, so the two straddle
// the Table-1 crossovers and both fused and unfused plans run.
var execSizes = []int{16, 4096}

// algoSources are the reductions coll/sel picks a non-butterfly
// algorithm for at m=4096 (rabenseifner at p=8, ring-bi and pipeline at
// p=4).
var algoSources = []string{"scan(*) ; allreduce(+)", "allreduce(+)", "reduce(+)"}

// stageClasses are the stage kinds the per-stage ledger reports, each at
// both sizes. Every class occurs in the corpus at both sizes for p=4 and
// p=8 (the sparse draws include a halo chain, which no rewrite removes).
var stageClasses = []string{"map", "bcast", "scan", "reduce", "allreduce", "comcast", "iter", "sparse"}

// entry is one corpus program at one block size, optimized once in
// set-up, with the inputs and reference outputs its runs are checked
// against.
type entry struct {
	Name string
	M    int
	Orig term.Seq
	Opt  term.Seq
	Sels []sel.Selection
	Apps int
	// Canonical is rules.Canonical of the plan: every rank of a
	// multi-process run must report the same.
	Canonical string
	Inputs    []algebra.Value
	// Ref is term.Eval of the unoptimized program on Inputs; Undef
	// positions are don't-cares.
	Ref []algebra.Value
	// Stages is the plan's flattened stage list, StageSels the
	// selections re-indexed to each single stage, Class each stage's
	// ledger class ("" when it has none).
	Stages    []term.Term
	StageSels [][]sel.Selection
	Class     []string
	// Rewritten reports that the optimizer changed the program (a rule
	// applied or a non-butterfly algorithm was selected).
	Rewritten bool
}

// sparseSeed seeds the corpus's two sparse draws. The draws are part of
// the corpus, like the rule patterns, and do not follow --seed: drawn
// per seed, one seed's halo chain allocated 13 times another's, and
// exec-native throughput spread 35% over five seeds.
const sparseSeed = 1

// corpusPrograms returns the corpus programs and their names: the 11
// rule patterns, the three algorithm-selection programs, and two sparse
// draws at p — one halo chain and one counts program, drawn from the
// generator until each family has appeared once.
func corpusPrograms(p int) ([]string, []term.Seq, error) {
	var names []string
	var progs []term.Seq
	for _, pt := range exper.Patterns() {
		names = append(names, pt.Rule)
		progs = append(progs, term.Compose(pt.LHS.Term()))
	}
	syms := lang.NewSymbols()
	for _, src := range algoSources {
		t, err := lang.Parse(src, syms)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus program %q: %w", src, err)
		}
		names = append(names, src)
		progs = append(progs, term.Compose(t))
	}
	rng := rand.New(rand.NewSource(sparseSeed))
	var halo, counts term.Seq
	for halo == nil || counts == nil {
		prog := rules.RandSparseProgram(rng, p)
		if _, ok := term.CountsStage(prog[0]); ok {
			if counts == nil {
				counts = prog
			}
		} else if isHaloChain(prog) && halo == nil {
			halo = prog
		}
	}
	names = append(names, "sparse-halo", "sparse-counts")
	progs = append(progs, halo, counts)
	return names, progs, nil
}

// isHaloChain reports a program that keeps at least one halo stage under
// every rewrite (the halo-chain and map-then-halo families).
func isHaloChain(prog term.Seq) bool {
	for _, st := range prog {
		if _, ok := st.(term.Halo); ok {
			return true
		}
	}
	return false
}

// buildCorpus optimizes every corpus program at every size for a p-rank
// machine with ts=1000, tw=1 and auto-selection on, and prepares the
// inputs drawn from seed and the reference outputs. It is deterministic
// in (seed, p): the ranks of a multi-process run rebuild it
// independently.
func buildCorpus(seed int64, p int) ([]*entry, error) {
	names, progs, err := corpusPrograms(p)
	if err != nil {
		return nil, err
	}
	var out []*entry
	for _, m := range execSizes {
		for i, prog := range progs {
			mach := core.Machine{Ts: 1000, Tw: 1, P: p, M: m}
			opt, err := core.FromTerm(prog).OptimizeOpts(mach, core.OptimizeOptions{Auto: true})
			if err != nil {
				return nil, fmt.Errorf("optimizing %s: %w", names[i], err)
			}
			e := &entry{
				Name: fmt.Sprintf("%s@m%d", names[i], m),
				M:    m,
				Orig: prog,
				Opt:  term.Compose(opt.Program.Term()),
				Sels: opt.Selection,
				Apps: len(opt.Applications),
			}
			e.Canonical = rules.Canonical(e.Opt)
			e.Rewritten = e.Apps > 0 || nonButterfly(e.Sels) > 0
			rng := rand.New(rand.NewSource(seed*1000 + int64(len(out))))
			if _, ok := progCounts(prog); ok {
				e.Inputs = rules.SparseInputs(prog, rng, p)
			} else {
				e.Inputs = vecInputs(rng, p, m)
			}
			e.Ref = term.Eval(prog, e.Inputs)
			e.Stages = term.Stages(e.Opt)
			e.StageSels = make([][]sel.Selection, len(e.Stages))
			for _, s := range e.Sels {
				one := s
				one.Stage = 0
				e.StageSels[s.Stage] = []sel.Selection{one}
			}
			for _, st := range e.Stages {
				e.Class = append(e.Class, stageClass(st))
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// progCounts returns the counts of the program's first counts-carrying
// stage, which pins its input shape.
func progCounts(prog term.Seq) ([]int, bool) {
	for _, st := range prog {
		if c, ok := term.CountsStage(st); ok {
			return c, true
		}
	}
	return nil, false
}

// vecInputs draws one m-word block of small positive integers per rank.
func vecInputs(rng *rand.Rand, p, m int) []algebra.Value {
	in := make([]algebra.Value, p)
	for r := range in {
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = float64(rng.Intn(9) + 1)
		}
		in[r] = v
	}
	return in
}

// stageClass names the ledger class of one plan stage.
func stageClass(st term.Term) string {
	switch s := st.(type) {
	case term.Map, term.MapIdx:
		return "map"
	case term.Bcast:
		return "bcast"
	case term.Scan, term.ScanBal:
		return "scan"
	case term.Reduce:
		if s.All {
			return "allreduce"
		}
		return "reduce"
	case term.Comcast:
		return "comcast"
	case term.Iter:
		return "iter"
	case term.Halo, term.AllGatherV, term.ReduceScatterV:
		return "sparse"
	}
	return ""
}

// nonButterfly counts the selections that picked a portfolio algorithm
// other than the butterfly.
func nonButterfly(sels []sel.Selection) int {
	n := 0
	for _, s := range sels {
		if s.Algo != cost.AlgoButterfly {
			n++
		}
	}
	return n
}

// Execution variants of one corpus entry.
const (
	variantPlan     = iota // the optimized plan, with its selections
	variantOriginal        // the unoptimized program, every reduction a butterfly
)

// execEntry runs one entry on one rank of an SPMD group and returns the
// rank's output. With stageNs non-nil the plan runs one stage at a time
// through core.RunStagesSelected and each stage's wall time on this rank
// is stored in stageNs.
func execEntry(c coll.Comm, e *entry, variant int, stageNs []int64) algebra.Value {
	in := e.Inputs[c.Rank()]
	if variant == variantOriginal {
		return core.RunStagesSelected(c, e.Orig, in, nil)
	}
	if stageNs == nil {
		return core.RunStagesSelected(c, e.Opt, in, e.Sels)
	}
	v := in
	for i, st := range e.Stages {
		t0 := nanotime()
		v = core.RunStagesSelected(c, st, v, e.StageSels[i])
		stageNs[i] = nanotime() - t0
	}
	return v
}

// outputOK reports whether a rank's output matches the reference. An
// Undef reference position is a don't-care (a non-root reduce result,
// term.Eval's reduce case); an Undef output where the reference is
// determined is a failure. Numbers compare with a 1e-9 relative
// tolerance, because reassociated reductions may round differently.
func outputOK(out, ref algebra.Value) bool {
	if _, undef := ref.(algebra.Undef); undef {
		return true
	}
	if _, undef := algebra.Boxed(out).(algebra.Undef); undef {
		return false
	}
	return algebra.EqualApproxModuloUndef(out, ref, 1e-9)
}
