package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/term"
)

// ExecNative runs a term on the native backend, SPMD-style: one real
// goroutine per rank, every stage realized by the same collectives as on
// the virtual machine but with wall-clock timing — Result.Makespan is the
// host's measured run time from the barrier-synchronized start to the
// last rank's finish.
func ExecNative(t term.Term, nm *backend.Machine, input []algebra.Value) ([]algebra.Value, backend.Result) {
	if len(input) != nm.P {
		panic(fmt.Sprintf("core: input length %d does not match machine size %d", len(input), nm.P))
	}
	out := make([]algebra.Value, nm.P)
	res := nm.Run(func(p *backend.Proc) {
		out[p.Rank()] = RunStagesSelected(p, t, input[p.Rank()], nil)
	})
	return out, res
}

// RunNative executes the program on the native backend with procs ranks
// and returns the output list and the wall-clock result. The outputs are
// bit-identical to Run's — both backends execute the same collective
// algorithms in the same combining order — only the notion of time
// differs.
func (p Program) RunNative(procs int, input []algebra.Value) ([]algebra.Value, backend.Result) {
	return ExecNative(p.stages, backend.New(procs), input)
}
