package exper

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/mpbackend"
)

func TestNativeRunnerMeasuresWallClock(t *testing.T) {
	run := NativeRunner(3, backend.TransportZeroCopy)
	prog := core.NewProgram().Bcast().Scan(algebra.Add)
	in := mpbackend.SeededInputs(2, 4, 8)
	ns := run(prog, core.Machine{P: 4}, in)
	if ns <= 0 {
		t.Fatalf("native measurement = %g ns, want > 0", ns)
	}
}

func TestNativeFusionRecordsAndJSON(t *testing.T) {
	cfg := NativeFusionConfig{P: 4, Ms: []int{1, 16}, Reps: 2,
		Rules: []string{"SS2-Scan", "BR-Local"}, Ts: 150, Tw: 0.5}
	recs, err := NativeFusion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two rules × two block sizes × two sides.
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.NsPerOp <= 0 {
			t.Errorf("%s/%s m=%d: ns_per_op = %g, want > 0", r.Rule, r.Side, r.M, r.NsPerOp)
		}
		if r.Side == "lhs" && r.Speedup != 1 {
			t.Errorf("lhs speedup = %g, want 1", r.Speedup)
		}
		if r.Side == "rhs" && r.Speedup <= 0 {
			t.Errorf("rhs speedup = %g, want > 0", r.Speedup)
		}
		// Every record is self-describing: backend, reps, and the
		// cost-model parameters in force.
		if r.Backend != "native" || r.Reps != cfg.Reps {
			t.Errorf("%s/%s: backend=%q reps=%d, want native/%d", r.Rule, r.Side, r.Backend, r.Reps, cfg.Reps)
		}
		if r.Params.Ts != cfg.Ts || r.Params.Tw != cfg.Tw || r.Params.P != cfg.P || r.Params.M != r.M {
			t.Errorf("%s/%s m=%d: params %+v do not describe the run", r.Rule, r.Side, r.M, r.Params)
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchJSON(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []NativeBenchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round-trip lost records: %d != %d", len(back), len(recs))
	}
	for i := range back {
		if back[i] != recs[i] {
			t.Fatalf("record %d did not round-trip:\n got %+v\nwant %+v", i, back[i], recs[i])
		}
	}
}

func TestNativeFusionSkipsLocalRulesOnNonPow2(t *testing.T) {
	recs, err := NativeFusion(NativeFusionConfig{P: 6, Ms: []int{1}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Rule {
		case "BR-Local", "BSR2-Local", "BSR-Local", "CR-AllLocal":
			t.Fatalf("Local rule %s measured on p=6", r.Rule)
		}
	}
	if len(recs) == 0 {
		t.Fatal("non-Local rules should still be measured")
	}
}

func TestTable1OnNative(t *testing.T) {
	mach := core.Machine{Ts: 100, Tw: 1, P: 4, M: 4}
	rows := Table1(mach, true, NativeRunner(2, backend.TransportZeroCopy))
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if r.MeasBefore <= 0 || r.MeasAfter <= 0 {
			t.Fatalf("%s: native measurements %g/%g, want > 0", r.Rule, r.MeasBefore, r.MeasAfter)
		}
	}
}
