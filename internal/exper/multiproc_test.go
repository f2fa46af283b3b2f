package exper

import (
	"os"
	"testing"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// TestMain lets this package's tests spawn multi-process measurement
// jobs: the test binary re-executes itself as the rank workers, and
// MaybeWorker diverts those re-executions before any test runs.
func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// TestMeasureCollectiveMP runs one real multi-process measurement end to
// end: OS-process ranks, warm-up plus timed repetitions, makespan
// reduction. Skipped in -short mode — it spawns processes.
func TestMeasureCollectiveMP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ns, err := MeasureCollectiveMP(cost.CollAllReduce, cost.AlgoButterfly, 3, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Fatalf("measured makespan %g ns, want > 0", ns)
	}
}

// TestAlgosMultiProc runs the portfolio sweep across process boundaries
// at one group and block size: every applicable pairing yields a
// butterfly and an algorithm record with positive times. Skipped in
// -short mode — it spawns processes.
func TestAlgosMultiProc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cfg := NativeAlgoConfig{Ps: []int{3}, Ms: []int{64}, Reps: 1, Ts: 100, Tw: 1}
	recs, err := Algos(cfg, "multiproc", MultiProcAlgoMeasurer(cfg.Reps))
	if err != nil {
		t.Fatal(err)
	}
	// Three allreduce algorithms and the reduce pipeline, two sides each.
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Backend != "multiproc" || r.P != 3 || r.M != 64 || r.NsPerOp <= 0 {
			t.Errorf("%s %s: backend %q p=%d m=%d ns=%g", r.Rule, r.Side, r.Backend, r.P, r.M, r.NsPerOp)
		}
	}
}
