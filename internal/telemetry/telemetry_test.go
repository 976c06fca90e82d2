package telemetry

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sat"
)

// TestNilCollectorIsInert drives every recording method through a nil
// receiver: none may panic, and a nil collector must snapshot to nil.
func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports Enabled")
	}
	span := c.StartPhase(PhaseSolve)
	if d := span.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	c.AddPhase(PhaseEncode, time.Second)
	c.AddSAT(sat.Stats{Decisions: 1})
	c.AddIDL(1, 2, 3)
	c.AddEncoding(1, 2, 3, 4, 5, 6)
	c.CountOutcome(OutcomeSat)
	c.CountEnumerated(10)
	c.CountQuickCheckFiltered()
	c.CountSigDedup()
	c.CountMHBFiltered()
	c.WindowDone(WindowRecord{Events: 1})
	if m := c.Snapshot(); m != nil {
		t.Errorf("nil collector Snapshot = %+v, want nil", m)
	}
}

// TestCollectorAccumulates checks that each recording method lands in the
// expected snapshot field.
func TestCollectorAccumulates(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("fresh collector not Enabled")
	}
	c.AddPhase(PhaseTraceScan, 5*time.Millisecond)
	c.AddPhase(PhaseSolve, 7*time.Millisecond)
	c.AddSAT(sat.Stats{Decisions: 10, Propagations: 20, Conflicts: 3,
		Restarts: 1, Learned: 2, TheoryProps: 30, TheoryConfl: 4})
	c.AddSAT(sat.Stats{Decisions: 1})
	c.AddIDL(100, 5, 50)
	c.AddEncoding(7, 8, 9, 40, 41, 42)
	c.CountOutcome(OutcomeSat)
	c.CountOutcome(OutcomeUnsat)
	c.CountOutcome(OutcomeUnsat)
	c.CountOutcome(OutcomeTimeout)
	c.CountOutcome(OutcomeConflictBudget)
	c.CountEnumerated(6)
	c.CountQuickCheckFiltered()
	c.CountSigDedup()
	c.CountMHBFiltered()
	c.WindowDone(WindowRecord{Offset: 100, Events: 50, Findings: 1})
	c.WindowDone(WindowRecord{Offset: 0, Events: 100, Findings: 2})

	m := c.Snapshot()
	if m.Phases.TraceScan != int64(5*time.Millisecond) || m.Phases.Solve != int64(7*time.Millisecond) {
		t.Errorf("phases = %+v", m.Phases)
	}
	if m.Solver.Decisions != 11 || m.Solver.TheoryConflicts != 4 {
		t.Errorf("solver = %+v", m.Solver)
	}
	if m.Solver.IDLAsserts != 100 || m.Solver.IDLNegativeCycles != 5 || m.Solver.IDLRepairSteps != 50 {
		t.Errorf("idl counters = %+v", m.Solver)
	}
	if m.Solver.InternedAtoms != 7 || m.Solver.TseitinClauses != 9 || m.Solver.Solvers != 1 {
		t.Errorf("encoding counters = %+v", m.Solver)
	}
	o := m.Outcomes
	if o.Sat != 1 || o.Unsat != 2 || o.Timeout != 1 || o.ConflictBudget != 1 || o.Solved != 5 {
		t.Errorf("outcomes = %+v", o)
	}
	if o.Enumerated != 6 || o.QuickCheckFiltered != 1 || o.SigDedupHits != 1 || o.MHBFiltered != 1 {
		t.Errorf("funnel = %+v", o)
	}
	// Windows sorted by offset with indices reassigned.
	if m.WindowCount != 2 || m.Windows[0].Offset != 0 || m.Windows[0].Index != 0 ||
		m.Windows[1].Offset != 100 || m.Windows[1].Index != 1 {
		t.Errorf("windows = %+v", m.Windows)
	}
}

// TestCollectorConcurrent hammers one collector from many goroutines; run
// under -race this is the data-race check, and the totals must balance.
func TestCollectorConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.AddSAT(sat.Stats{Decisions: 1})
				c.AddIDL(1, 0, 2)
				c.CountEnumerated(1)
				c.CountOutcome(OutcomeUnsat)
				c.AddPhase(PhaseSolve, time.Nanosecond)
			}
			c.WindowDone(WindowRecord{Offset: w, Events: perWorker})
		}(w)
	}
	wg.Wait()
	m := c.Snapshot()
	const n = workers * perWorker
	if m.Solver.Decisions != n || m.Solver.IDLAsserts != n || m.Solver.IDLRepairSteps != 2*n {
		t.Errorf("solver totals = %+v, want %d decisions", m.Solver, n)
	}
	if m.Outcomes.Enumerated != n || m.Outcomes.Unsat != n || m.Outcomes.Solved != n {
		t.Errorf("outcome totals = %+v", m.Outcomes)
	}
	if m.Phases.Solve != n {
		t.Errorf("solve phase = %d ns, want %d", m.Phases.Solve, n)
	}
	if m.WindowCount != workers {
		t.Errorf("window count = %d, want %d", m.WindowCount, workers)
	}
	for i, w := range m.Windows {
		if w.Index != i || w.Offset != i {
			t.Errorf("window %d = %+v, want sorted by offset", i, w)
		}
	}
}

// TestSpanMeasures checks a span accumulates real elapsed time.
func TestSpanMeasures(t *testing.T) {
	c := NewCollector()
	span := c.StartPhase(PhaseEncode)
	time.Sleep(2 * time.Millisecond)
	if d := span.End(); d < time.Millisecond {
		t.Errorf("span measured %v, want ≥ 1ms", d)
	}
	if m := c.Snapshot(); m.Phases.Encode < int64(time.Millisecond) {
		t.Errorf("encode phase = %d ns, want ≥ 1ms", m.Phases.Encode)
	}
}

// TestMetricsJSONRoundTrip asserts the snapshot survives encoding/json
// unchanged — the contract behind rvpredict -json.
func TestMetricsJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.AddPhase(PhaseSolve, 123*time.Nanosecond)
	c.AddSAT(sat.Stats{Decisions: 42, Learned: 7})
	c.AddIDL(9, 1, 3)
	c.AddEncoding(4, 5, 6, 7, 8, 9)
	c.CountEnumerated(3)
	c.CountOutcome(OutcomeSat)
	c.CountOutcome(OutcomeTimeout)
	c.WindowDone(WindowRecord{Offset: 0, Events: 10, Candidates: 3, Solved: 2, Findings: 1, ElapsedNS: 555})
	orig := c.Snapshot()

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*orig, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *orig)
	}

	// Spot-check the stable field names.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"phases", "solver", "outcomes", "window_count", "windows"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("JSON missing top-level key %q", key)
		}
	}
	solver := raw["solver"].(map[string]any)
	for _, key := range []string{"decisions", "idl_atom_assertions", "tseitin_clauses"} {
		if _, ok := solver[key]; !ok {
			t.Errorf("JSON solver missing key %q", key)
		}
	}
	outcomes := raw["outcomes"].(map[string]any)
	for _, key := range []string{"candidates_enumerated", "queries_solved", "conflict_budget_exhausted"} {
		if _, ok := outcomes[key]; !ok {
			t.Errorf("JSON outcomes missing key %q", key)
		}
	}
}

// TestNonTimingStripsOnlyTiming checks NonTiming zeroes every timing field
// and nothing else, without sharing window storage with the original.
func TestNonTimingStripsOnlyTiming(t *testing.T) {
	c := NewCollector()
	c.AddPhase(PhaseSolve, time.Second)
	c.AddSAT(sat.Stats{Decisions: 5})
	c.WindowDone(WindowRecord{Offset: 0, Events: 4, ElapsedNS: 999})
	m := c.Snapshot()
	nt := m.NonTiming()
	if nt.Phases != (PhaseNanos{}) {
		t.Errorf("NonTiming phases = %+v, want zero", nt.Phases)
	}
	if nt.Windows[0].ElapsedNS != 0 {
		t.Errorf("NonTiming window elapsed = %d, want 0", nt.Windows[0].ElapsedNS)
	}
	if nt.Solver.Decisions != 5 || nt.Windows[0].Events != 4 {
		t.Errorf("NonTiming lost counters: %+v", nt)
	}
	if m.Windows[0].ElapsedNS != 999 {
		t.Error("NonTiming mutated the original snapshot")
	}
}

// TestStableNames pins the Phase and Outcome string vocabularies.
func TestStableNames(t *testing.T) {
	wantPhases := map[Phase]string{
		PhaseTraceScan:  "trace_scan",
		PhaseEnumerate:  "cop_enumeration",
		PhaseQuickCheck: "quick_check",
		PhaseEncode:     "encode",
		PhaseCheckpoint: "checkpoint",
		PhaseSolve:      "solve",
		PhaseWitness:    "witness",
	}
	for p, want := range wantPhases {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
	wantOutcomes := map[Outcome]string{
		OutcomeSat:            "sat",
		OutcomeUnsat:          "unsat",
		OutcomeTimeout:        "timeout",
		OutcomeConflictBudget: "conflict_budget",
	}
	for o, want := range wantOutcomes {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
	if OutcomeSat.Aborted() || OutcomeUnsat.Aborted() {
		t.Error("verdict outcomes must not be Aborted")
	}
	if !OutcomeTimeout.Aborted() || !OutcomeConflictBudget.Aborted() {
		t.Error("budget outcomes must be Aborted")
	}
}

// TestPhaseTotal checks Total sums every phase bucket.
func TestPhaseTotal(t *testing.T) {
	p := PhaseNanos{TraceScan: 1, Enumerate: 2, QuickCheck: 3, Encode: 4, Solve: 5, Witness: 6, Checkpoint: 7}
	if got := p.Total(); got != 28 {
		t.Errorf("Total = %d, want 28", got)
	}
}
