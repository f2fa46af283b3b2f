package core

import (
	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/machine"
)

// RunSelected executes the program on the virtual machine honoring the
// algorithm selections (typically Optimization.Selection from an
// auto-selecting optimization).
func (p Program) RunSelected(m Machine, input []algebra.Value, sels []sel.Selection) ([]algebra.Value, machine.Result) {
	vm := m.virtual()
	out := make([]algebra.Value, vm.P)
	res := vm.Run(func(pr *machine.Proc) {
		out[pr.Rank()] = RunStagesSelected(coll.World(pr), p.stages, input[pr.Rank()], sels)
	})
	return out, res
}

// RunNativeSelected is RunSelected on the native backend.
func (p Program) RunNativeSelected(procs int, input []algebra.Value, sels []sel.Selection) ([]algebra.Value, backend.Result) {
	nm := backend.New(procs)
	out := make([]algebra.Value, nm.P)
	res := nm.Run(func(pr *backend.Proc) {
		out[pr.Rank()] = RunStagesSelected(pr, p.stages, input[pr.Rank()], sels)
	})
	return out, res
}
