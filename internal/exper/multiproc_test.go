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
