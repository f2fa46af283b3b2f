package exper

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
)

// TestSweepCrossover pins the bracket-and-bisect crossover in both
// directions: rising (the first m at which an algorithm beats the
// butterfly) and falling (the last m at which a fused rule still wins).
// wins(m) is m ≥ at when rising and m ≤ at otherwise; won, when given,
// overrides the sweep verdicts to model noisy, non-monotone sweeps.
// probes counts the bisection measurements.
func TestSweepCrossover(t *testing.T) {
	ms := []int{16, 64, 256, 1024}
	cases := []struct {
		name   string
		rising bool
		ms     []int
		won    []bool
		at     int
		want   int
		probes int
	}{
		{"never/rising", true, ms, nil, 1 << 30, 0, 0},
		{"never/falling", false, ms, nil, 0, 0, 0},
		{"first/rising", true, ms, nil, 16, 16, 0},
		{"first/falling", false, ms, nil, 16, 16, 5},
		{"last/rising", true, ms, nil, 1024, 1024, 8},
		{"last/falling", false, ms, nil, 1024, 1024, 0},
		{"middle/rising", true, ms, nil, 100, 100, 8},
		{"middle/falling", false, ms, nil, 100, 100, 7},
		{"noisy/rising", true, ms, []bool{false, true, false, true}, 40, 40, 6},
		{"noisy/falling", false, ms, []bool{true, false, true, false}, 300, 298, 8},
		{"cap/rising", true, []int{1, 100001}, nil, 50000, 50001, 8},
		{"cap/falling", false, []int{1, 100001}, nil, 50000, 49610, 8},
	}
	for _, c := range cases {
		probes := 0
		wins := func(m int) bool {
			probes++
			if c.rising {
				return m >= c.at
			}
			return m <= c.at
		}
		won := c.won
		if won == nil {
			for _, m := range c.ms {
				won = append(won, wins(m))
			}
			probes = 0
		}
		if got := SweepCrossover(c.ms, won, c.rising, wins); got != c.want || probes != c.probes {
			t.Errorf("%s: got %d after %d probes, want %d after %d", c.name, got, probes, c.want, c.probes)
		}
	}
}

// fakeAlgoMeasurer is a deterministic substrate for the portfolio
// sweep: the butterfly costs 1000+m; rabenseifner and pipeline overtake
// it at larger m, ring never does, ring-bi always does, and a pipeline
// measurement fails at every m not divisible by 16 — only bisection
// probes land there, so the failures cost the pipeline group its
// resolution, not the sweep.
func fakeAlgoMeasurer(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
	return func(collective string, a cost.Algo, m, segments int) (float64, float64, error) {
		bf := float64(1000 + m)
		switch a {
		case cost.AlgoRabenseifner:
			return bf, float64(1500 + m/2), nil
		case cost.AlgoRing:
			return bf, 2 * bf, nil
		case cost.AlgoRingBi:
			return bf, 1, nil
		case cost.AlgoPipeline:
			if m%16 != 0 {
				return 0, 0, errors.New("probe failed")
			}
			return bf, float64(1500 + m/4), nil
		}
		return 0, 0, fmt.Errorf("unexpected algorithm %s", a)
	}
}

// TestAlgosRecordSequence pins the records of the portfolio sweep over
// a fake substrate: their order, identity and parameters, and each
// group's predicted and measured crossover.
func TestAlgosRecordSequence(t *testing.T) {
	cfg := NativeAlgoConfig{Ps: []int{4}, Ms: []int{16, 256, 4096}, Reps: 3, Ts: 100, Tw: 0.5}
	recs, err := Algos(cfg, "fake", fakeAlgoMeasurer)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		if r.Params != (cost.Params{Ts: 100, Tw: 0.5, P: r.P, M: r.M}) || r.Reps != 3 {
			t.Errorf("%s %s m=%d: params %+v reps %d", r.Rule, r.Side, r.M, r.Params, r.Reps)
		}
		got = append(got, fmt.Sprintf("%s %s %s %s p=%d m=%d pred=%d meas=%d",
			r.Backend, r.Side, r.Op, r.Rule, r.P, r.M, r.PredCross, r.MeasCross))
	}
	want := []string{
		"fake lhs allreduce(+) Algo-allreduce/rabenseifner p=4 m=16 pred=0 meas=0",
		"fake rhs allreduce(+)@rabenseifner Algo-allreduce/rabenseifner p=4 m=16 pred=134 meas=1006",
		"fake lhs allreduce(+) Algo-allreduce/rabenseifner p=4 m=256 pred=0 meas=0",
		"fake rhs allreduce(+)@rabenseifner Algo-allreduce/rabenseifner p=4 m=256 pred=134 meas=1006",
		"fake lhs allreduce(+) Algo-allreduce/rabenseifner p=4 m=4096 pred=0 meas=0",
		"fake rhs allreduce(+)@rabenseifner Algo-allreduce/rabenseifner p=4 m=4096 pred=134 meas=1006",
		"fake lhs allreduce(+) Algo-allreduce/ring p=4 m=16 pred=0 meas=0",
		"fake rhs allreduce(+)@ring Algo-allreduce/ring p=4 m=16 pred=267 meas=0",
		"fake lhs allreduce(+) Algo-allreduce/ring p=4 m=256 pred=0 meas=0",
		"fake rhs allreduce(+)@ring Algo-allreduce/ring p=4 m=256 pred=267 meas=0",
		"fake lhs allreduce(+) Algo-allreduce/ring p=4 m=4096 pred=0 meas=0",
		"fake rhs allreduce(+)@ring Algo-allreduce/ring p=4 m=4096 pred=267 meas=0",
		"fake lhs allreduce(+) Algo-allreduce/ring-bi p=4 m=16 pred=0 meas=0",
		"fake rhs allreduce(+)@ring-bi Algo-allreduce/ring-bi p=4 m=16 pred=214 meas=16",
		"fake lhs allreduce(+) Algo-allreduce/ring-bi p=4 m=256 pred=0 meas=0",
		"fake rhs allreduce(+)@ring-bi Algo-allreduce/ring-bi p=4 m=256 pred=214 meas=16",
		"fake lhs allreduce(+) Algo-allreduce/ring-bi p=4 m=4096 pred=0 meas=0",
		"fake rhs allreduce(+)@ring-bi Algo-allreduce/ring-bi p=4 m=4096 pred=214 meas=16",
		"fake lhs reduce(+) Algo-reduce/pipeline p=4 m=16 pred=0 meas=0",
		"fake rhs reduce(+)@pipeline Algo-reduce/pipeline p=4 m=16 pred=534 meas=736",
		"fake lhs reduce(+) Algo-reduce/pipeline p=4 m=256 pred=0 meas=0",
		"fake rhs reduce(+)@pipeline Algo-reduce/pipeline p=4 m=256 pred=534 meas=736",
		"fake lhs reduce(+) Algo-reduce/pipeline p=4 m=4096 pred=0 meas=0",
		"fake rhs reduce(+)@pipeline Algo-reduce/pipeline p=4 m=4096 pred=534 meas=736",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestSweepAlgosFailsOnSweepError: a failed measurement at a sweep point
// fails the sweep, unlike a failed bisection probe.
func TestSweepAlgosFailsOnSweepError(t *testing.T) {
	failing := func(p int) func(string, cost.Algo, int, int) (float64, float64, error) {
		return func(string, cost.Algo, int, int) (float64, float64, error) {
			return 0, 0, errors.New("substrate down")
		}
	}
	if _, err := SweepAlgos(NativeAlgoConfig{Ps: []int{4}, Ms: []int{16}}, failing); err == nil {
		t.Fatal("a failed sweep measurement must fail the sweep")
	}
}
