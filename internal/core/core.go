// Package core is the public face of the library: it ties the formal
// framework (package term), the optimization rules (package rules), the
// cost calculus (package cost) and the virtual machine with its collective
// operations (packages machine, coll) together into the workflow the paper
// advocates — write a program as a composition of collective operations,
// ask which rules apply, let the cost estimates decide, rewrite, verify,
// and run.
//
// A minimal session:
//
//	prog := core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
//	opt := prog.Optimize(core.Machine{Ts: 1000, Tw: 1, P: 64, M: 128})
//	out, res := opt.Run(core.Machine{Ts: 1000, Tw: 1, P: 64}, input)
package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/term"
)

// Machine describes the target machine for cost estimation and execution:
// start-up time Ts, per-word time Tw, number of processors P, and — for
// estimates only — the block size M in words.
type Machine struct {
	// Ts is the message start-up time in computation units.
	Ts float64
	// Tw is the per-word transfer time in computation units.
	Tw float64
	// P is the number of processors.
	P int
	// M is the per-processor block size in words (estimation only; at
	// run time the actual value sizes are used).
	M int
}

func (m Machine) costParams() cost.Params {
	return cost.Params{Ts: m.Ts, Tw: m.Tw, M: m.M, P: m.P}
}

func (m Machine) virtual() *machine.Machine {
	return machine.New(m.P, machine.Params{Ts: m.Ts, Tw: m.Tw})
}

// Exec runs a term on the virtual machine, SPMD-style: one goroutine per
// processor, each stage realized by the corresponding collective from
// package coll, with communication and computation charged to the virtual
// clocks. It returns the output list and the run's Result (whose Makespan
// is the program's run time under the §4.1 cost model).
func Exec(t term.Term, vm *machine.Machine, input []algebra.Value) ([]algebra.Value, machine.Result) {
	if len(input) != vm.P {
		panic(fmt.Sprintf("core: input length %d does not match machine size %d", len(input), vm.P))
	}
	out := make([]algebra.Value, vm.P)
	res := vm.Run(func(p *machine.Proc) {
		out[p.Rank()] = RunStagesSelected(coll.World(p), t, input[p.Rank()], nil)
	})
	return out, res
}

// RunStagesSelected executes the stages of t over an arbitrary
// communicator — the backend-generic heart of the executor, and its only
// stage walker. It is called once per group member from inside an SPMD
// body (Exec on the virtual machine, ExecNative on the native backend),
// threading the member's value through every stage and marking stage
// boundaries when the communicator records them. A selectable reduction
// stage whose flattened index carries a selection (from sel.ForTerm,
// typically via Optimization.Selection) runs the chosen algorithm through
// sel.Run, which falls back to the butterfly when the run-time block does
// not fit the algorithm; every other stage, and every stage of a run with
// nil selections, executes its §4.1 collective.
func RunStagesSelected(c coll.Comm, t term.Term, v algebra.Value, sels []sel.Selection) algebra.Value {
	mk, _ := c.(coll.Marker)
	for idx, s := range term.Stages(t) {
		if mk != nil {
			mk.Mark(s.String())
		}
		if r, ok := s.(term.Reduce); ok && cost.SelectableReduce(r) {
			if choice, ok := selectionAt(sels, idx); ok {
				v = sel.Run(c, cost.ReduceCollective(r), choice.Algo, r.Op, v, choice.Segments)
				continue
			}
		}
		v = execStage(s, c, v)
	}
	return v
}

// selectionAt finds the selection addressing stage idx.
func selectionAt(sels []sel.Selection, idx int) (sel.Selection, bool) {
	for _, s := range sels {
		if s.Stage == idx {
			return s, true
		}
	}
	return sel.Selection{}, false
}

func execStage(s term.Term, c coll.Comm, v algebra.Value) algebra.Value {
	switch st := s.(type) {
	case term.Map:
		next := st.F.F(v)
		if st.F.Cost > 0 {
			c.Compute(float64(st.F.Cost) * float64(v.Words()))
		}
		return next
	case term.MapIdx:
		next := st.F.F(c.Rank(), v)
		if st.F.Charge != nil {
			c.Compute(st.F.Charge(c.Rank(), v.Words()))
		}
		return next
	case term.Scan:
		return coll.Scan(c, st.Op, v)
	case term.ScanBal:
		return coll.ScanBalanced(c, st.Op, v)
	case term.Reduce:
		switch {
		case st.Balanced && st.All:
			return coll.AllReduceBalanced(c, st.Op, v)
		case st.Balanced:
			return coll.ReduceBalanced(c, st.Op, v)
		case st.All:
			return coll.AllReduce(c, st.Op, v)
		default:
			return coll.Reduce(c, 0, st.Op, v)
		}
	case term.Bcast:
		return coll.Bcast(c, 0, v)
	case term.Gather:
		gathered := coll.Gather(c, 0, v)
		if gathered == nil {
			return algebra.Undef{}
		}
		return algebra.Tuple(gathered)
	case term.Scatter:
		var parts []algebra.Value
		if c.Rank() == 0 {
			list, ok := v.(algebra.Tuple)
			if !ok {
				panic(fmt.Sprintf("core: scatter needs a list on the first processor, got %v", v))
			}
			parts = []algebra.Value(list)
		}
		return coll.Scatter(c, 0, parts)
	case term.Comcast:
		if st.CostOptimal {
			return coll.Comcast(c, 0, st.Ops, v)
		}
		return coll.BcastRepeat(c, 0, st.Ops, v)
	case term.Iter:
		return coll.Iter(c, st.Op, v)
	case term.Halo:
		if st.H.Isomorphic() {
			return coll.HaloExchange(c, st.H.Offsets, v)
		}
		return coll.HaloExchangeLists(c, st.H.Lists, v)
	case term.AllGatherV:
		return coll.AllGatherV(c, st.Counts, v)
	case term.ReduceScatterV:
		return coll.ReduceScatterV(c, st.Op, st.Counts, v)
	case term.Seq:
		for _, sub := range term.Stages(st) {
			v = execStage(sub, c, v)
		}
		return v
	}
	panic(fmt.Sprintf("core: cannot execute stage %T", s))
}
