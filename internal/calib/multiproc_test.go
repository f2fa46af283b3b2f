package calib

import (
	"os"
	"testing"

	"repro/internal/mpbackend"
)

// TestMain lets this package's tests spawn multi-process probe jobs: the
// test binary re-executes itself as the rank workers, and MaybeWorker
// diverts those re-executions before any test runs.
func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// TestRunMP runs the multi-process calibration pipeline end to end at a
// tiny size — the probe plan on process ranks, the fit, and the
// portfolio validation at p=3 and one block size. Skipped in -short
// mode — it spawns processes.
func TestRunMP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cfg := Config{
		Ps: []int{2, 3}, Ms: []int{1, 256}, Reps: 1, Rounds: 4,
		ValidateP: 3, ValidateMs: []int{64}, AlgoPs: []int{3},
	}
	sec, err := RunMP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := plan(cfg)
	if len(sec.Samples) != len(want) {
		t.Fatalf("got %d samples, want the plan's %d", len(sec.Samples), len(want))
	}
	for i, s := range sec.Samples {
		if s.Probe != want[i].Probe || s.P != want[i].P || s.M != want[i].M || s.Rounds != want[i].Rounds || s.Ns <= 0 {
			t.Errorf("sample %d: %+v, want %+v with a positive time", i, s, want[i])
		}
	}
	// Three allreduce algorithms and the reduce pipeline at p=3, m=64.
	if len(sec.Algos) != 4 {
		t.Fatalf("got %d algorithm validations, want 4", len(sec.Algos))
	}
	for _, v := range sec.Algos {
		if v.P != 3 || len(v.Ms) != 1 || v.ButterflyNs[0] <= 0 || v.AlgoNs[0] <= 0 {
			t.Errorf("%s/%s: p=%d sweep %v %v %v", v.Collective, v.Algo, v.P, v.Ms, v.ButterflyNs, v.AlgoNs)
		}
	}
}
