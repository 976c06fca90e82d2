package rvpredict_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/internal/workloads"
	"repro/minilang"
	"repro/rvpredict"
	"repro/trace"
)

func TestDetectFigure1AllAlgorithms(t *testing.T) {
	tr := fixtures.Figure1()
	want := map[rvpredict.Algorithm]int{
		rvpredict.MaximalCF:        1,
		rvpredict.SaidEtAl:         0,
		rvpredict.CausallyPrecedes: 0,
		rvpredict.HappensBefore:    0,
		rvpredict.QuickCheck:       1,
	}
	for algo, n := range want {
		rep := rvpredict.Detect(tr, rvpredict.Options{Algorithm: algo})
		if len(rep.Races) != n {
			t.Errorf("%v: races = %d, want %d", algo, len(rep.Races), n)
		}
		if rep.Algorithm != algo {
			t.Errorf("report algorithm = %v, want %v", rep.Algorithm, algo)
		}
	}
}

func TestDetectReportFields(t *testing.T) {
	tr := fixtures.Figure1()
	rep := rvpredict.Detect(tr, rvpredict.Options{Witness: true})
	if rep.Stats.Events != tr.Len() {
		t.Errorf("stats events = %d, want %d", rep.Stats.Events, tr.Len())
	}
	if rep.Windows != 1 {
		t.Errorf("windows = %d, want 1", rep.Windows)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("want the (3,10) race, got %v", rep.Races)
	}
	r := rep.Races[0]
	if r.Locations[0] != "L3" || r.Locations[1] != "L10" {
		t.Errorf("locations = %v", r.Locations)
	}
	if !strings.Contains(r.Description, "write(t1, x1, 1)") {
		t.Errorf("description = %q", r.Description)
	}
	if r.Witness == nil {
		t.Fatal("witness requested but absent")
	}
	if err := rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second); err != nil {
		t.Errorf("witness invalid: %v", err)
	}
}

func TestDetectFromMinilang(t *testing.T) {
	p, err := minilang.Compile(`shared x;
thread a {
  fork b;
  x = 1;
  join b;
}
thread b {
  r = x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Run(minilang.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 1 {
		t.Fatalf("races = %v, want one", rep.Races)
	}
}

func TestOptionDefaults(t *testing.T) {
	// Zero options must behave like the paper's defaults and not hang.
	b := trace.NewBuilder()
	b.Write(1, 5, 1)
	b.ReadV(2, 5, 1)
	rep := rvpredict.Detect(b.Trace(), rvpredict.Options{})
	if len(rep.Races) != 1 {
		t.Fatal("plain race must be found with default options")
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed must be recorded")
	}
}

func TestNegativeOptionsDisableBounds(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1)
	b.ReadV(2, 5, 1)
	rep := rvpredict.Detect(b.Trace(), rvpredict.Options{
		WindowSize:   -1,
		SolveTimeout: -1 * time.Second,
	})
	if len(rep.Races) != 1 {
		t.Fatal("race must be found with unbounded options")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[rvpredict.Algorithm]string{
		rvpredict.MaximalCF:        "RV",
		rvpredict.SaidEtAl:         "Said",
		rvpredict.CausallyPrecedes: "CP",
		rvpredict.HappensBefore:    "HB",
		rvpredict.QuickCheck:       "QC",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a, want)
		}
	}
	if rvpredict.Algorithm(99).String() != "Algorithm(99)" {
		t.Error("unknown algorithm rendering")
	}
}

func TestDetectDeadlocksFacade(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 100)
	b.Acquire(1, 101)
	b.Release(1, 101)
	b.Release(1, 100)
	b.Acquire(2, 101)
	b.Acquire(2, 100)
	b.Release(2, 100)
	b.Release(2, 101)
	rep := rvpredict.DetectDeadlocks(b.Trace(), rvpredict.Options{Witness: true})
	if len(rep.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d, want 1", len(rep.Deadlocks))
	}
	d := rep.Deadlocks[0]
	if d.Witness == nil {
		t.Error("witness requested but missing")
	}
	if d.HeldAcquires[0] != 0 || d.HeldAcquires[1] != 4 {
		t.Errorf("held acquires = %v", d.HeldAcquires)
	}
}

func TestDetectAtomicityFacade(t *testing.T) {
	b := trace.NewBuilder()
	b.AtNamed(1, "acct.go:5").Acquire(1, 100)
	b.AtNamed(2, "acct.go:6").Read(1, 1)
	b.AtNamed(3, "acct.go:7").Write(1, 1, 10)
	b.AtNamed(4, "acct.go:8").Release(1, 100)
	b.AtNamed(5, "audit.go:3").Write(2, 1, 99)
	rep := rvpredict.DetectAtomicityViolations(b.Trace(), rvpredict.Options{})
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (candidates %d)", len(rep.Violations), rep.Candidates)
	}
	if !strings.Contains(rep.Violations[0].Description, "audit.go:3") {
		t.Errorf("description = %q", rep.Violations[0].Description)
	}
}

// TestBaselineProvenance pins the provenance each baseline algorithm
// reports on a windowed trace: the algorithm's fixed tier, the index of
// the window holding the race (First/WindowSize), and the witness
// length.
func TestBaselineProvenance(t *testing.T) {
	const window = 64
	var tr *trace.Trace
	for _, spec := range workloads.Rows() {
		if spec.Name == "bakery" {
			tr, _ = workloads.Build(spec)
		}
	}
	tiers := map[rvpredict.Algorithm]string{
		rvpredict.SaidEtAl:         race.TierSMT,
		rvpredict.CausallyPrecedes: race.TierCP,
		rvpredict.HappensBefore:    race.TierHB,
		rvpredict.QuickCheck:       race.TierQuickCheck,
	}
	for algo, tier := range tiers {
		rep, err := rvpredict.Run(context.Background(), tr, rvpredict.Options{Algorithm: algo, WindowSize: window, Witness: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		later, witnesses := 0, 0
		for _, r := range rep.Races {
			p := r.Provenance
			if p.Tier != tier || p.Window != r.First/window || p.WitnessLen != len(r.Witness) {
				t.Errorf("%v: race (%d,%d) provenance %+v, want tier %q, window %d, witness_len %d",
					algo, r.First, r.Second, p, tier, r.First/window, len(r.Witness))
			}
			if p.Window > 0 {
				later++
			}
			if p.WitnessLen > 0 {
				witnesses++
			}
		}
		t.Logf("%v: %d races, %d past the first window, %d with witnesses", algo, len(rep.Races), later, witnesses)
		if later == 0 {
			t.Errorf("%v: no race past the first window; the check proves little", algo)
		}
		if algo == rvpredict.SaidEtAl && witnesses == 0 {
			t.Errorf("%v: no race carries a witness", algo)
		}
	}
}
