package core

import (
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/trace"
)

// triageFixture is one trace the triage bit-identity matrix runs over.
type triageFixture struct {
	name   string
	tr     *trace.Trace
	window int
	racy   bool // the fixture must produce at least one race
}

// triageFixtures builds one small workload per planted race motif — every
// row of the paper's Table 1 taxonomy, including the motifs where the
// vector-clock tiers must NOT fire (qc-only has no sound race at all,
// rv-region and rv-incomplete are invisible to HB/CP) — plus the Figure 1
// example and the pair scheduler's own fixture.
func triageFixtures(t *testing.T) []triageFixture {
	t.Helper()
	motifs := []struct {
		name string
		m    workloads.MotifCounts
		racy bool
	}{
		{"plain", workloads.MotifCounts{Plain: 2}, true},
		{"hb-not-said", workloads.MotifCounts{HBNotSaid: 1}, true},
		{"cp", workloads.MotifCounts{CP: 1}, true},
		{"cp-not-said", workloads.MotifCounts{CPNotSaid: 1}, true},
		{"said", workloads.MotifCounts{Said: 1}, true},
		{"rv-region", workloads.MotifCounts{RVRegion: 1}, true},
		{"rv-incomplete", workloads.MotifCounts{RVIncomplete: 1}, true},
		{"qc-only", workloads.MotifCounts{QCOnly: 1}, false},
	}
	var fx []triageFixture
	for i, mt := range motifs {
		tr, _ := workloads.Build(workloads.Spec{
			Name: mt.name, Workers: 3, Events: 240, Window: 10000,
			Seed: int64(900 + i), Motifs: mt.m,
		})
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: fixture trace invalid: %v", mt.name, err)
		}
		fx = append(fx, triageFixture{mt.name, tr, 10000, mt.racy})
	}
	ex, _ := workloads.Example()
	fx = append(fx, triageFixture{"figure1", ex, 10000, true})
	fx = append(fx, triageFixture{"pair-rich", pairRichTrace(), 24, true})
	return fx
}

// triageResult runs detection and zeroes the timing field for bit-for-bit
// comparison.
func triageResult(tr *trace.Trace, window int, opt Options) race.Result {
	opt.WindowSize = window
	res := New(opt).Detect(tr)
	res.Elapsed = 0
	return res
}

// assertProvenance checks the provenance contract on one result: every
// race must carry a confirming tier, the window index its access pair
// actually lies in, a witness length matching the attached witness, no
// replay mark on a clean run, and solver stats only when the SMT tier
// confirmed it. The matrix's DeepEqual then extends the bit-identity
// contract to the whole Provenance struct: provenance must not depend
// on triage mode, Parallelism or PairParallelism.
func assertProvenance(t *testing.T, label string, res race.Result, window int) {
	t.Helper()
	for _, r := range res.Races {
		p := r.Prov
		if p.Tier == "" {
			t.Errorf("%s: race %d,%d has no provenance tier", label, r.A, r.B)
		}
		if want := r.A / window; p.Window != want {
			t.Errorf("%s: race %d,%d provenance window = %d, want %d",
				label, r.A, r.B, p.Window, want)
		}
		if p.WitnessLen != len(r.Witness) {
			t.Errorf("%s: race %d,%d provenance witness_len = %d, want %d",
				label, r.A, r.B, p.WitnessLen, len(r.Witness))
		}
		if p.Replayed {
			t.Errorf("%s: race %d,%d marked replayed on a clean run", label, r.A, r.B)
		}
		if p.Tier != race.TierSMT && (p.Decisions != 0 || p.Propagations != 0 || p.Conflicts != 0) {
			t.Errorf("%s: race %d,%d has solver stats on tier %s: %+v",
				label, r.A, r.B, p.Tier, p)
		}
	}
}

// TestTriageBitIdentityMatrix is the triage ladder's acceptance test:
// the full race.Result — races in order, signatures, witnesses,
// COPsChecked, per-race provenance, flags — must be bit-identical with
// the ladder off and at every rung (shb, wcp, syncp, the default, and
// cp), across every planted race motif, with and without witness
// schedules, under every Parallelism × PairParallelism combination. Run
// under -race in CI it doubles as the data-race check for the shared
// clock slabs.
func TestTriageBitIdentityMatrix(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range triageFixtures(t) {
		for _, witness := range []bool{false, true} {
			base := triageResult(tc.tr, tc.window, Options{NoTriage: true, Witness: witness})
			if tc.racy && len(base.Races) == 0 {
				t.Fatalf("%s: expected races in the fixture", tc.name)
			}
			assertProvenance(t, tc.name+"/baseline", base, tc.window)
			for _, par := range []int{1, 4} {
				for _, pairPar := range []int{1, 4} {
					modes := []struct {
						name string
						opt  Options
					}{
						{"default", Options{Witness: witness, Parallelism: par, PairParallelism: pairPar}},
						{"shb", Options{Witness: witness, TriageLevel: "shb", Parallelism: par, PairParallelism: pairPar}},
						{"wcp", Options{Witness: witness, TriageLevel: "wcp", Parallelism: par, PairParallelism: pairPar}},
						{"syncp", Options{Witness: witness, TriageLevel: "syncp", Parallelism: par, PairParallelism: pairPar}},
						{"cp", Options{Witness: witness, TriageLevel: "cp", Parallelism: par, PairParallelism: pairPar}},
					}
					for _, m := range modes {
						got := triageResult(tc.tr, tc.window, m.opt)
						if !reflect.DeepEqual(got, base) {
							t.Errorf("%s: triage=%s witness=%v par %d × pairPar %d: result differs from triage-off baseline\n got %+v\nwant %+v",
								tc.name, m.name, witness, par, pairPar, got, base)
						}
					}
				}
			}
		}
	}
}

// TestTriageTelemetryCounters checks the triage counter block: on a
// workload whose races are all plain HB races, every reported race must
// come through the fast path (no SAT verdict ever reaches the solver
// outcome tallies), and with the tier disabled the block must stay zero
// while the same races are found by solving.
func TestTriageTelemetryCounters(t *testing.T) {
	tr, ex := workloads.Build(workloads.Spec{
		Name: "triage-counters", Workers: 3, Events: 240, Window: 10000,
		Seed: 950, Motifs: workloads.MotifCounts{Plain: 3},
	})

	col := telemetry.NewCollector()
	res := New(Options{WindowSize: 10000, Telemetry: col}).Detect(tr)
	m := col.Snapshot()
	if len(res.Races) != ex.RV {
		t.Fatalf("races = %d, want %d", len(res.Races), ex.RV)
	}
	if m.Triage.Confirmed == 0 {
		t.Errorf("triage confirmed = 0, want > 0 on plain HB races")
	}
	if m.Outcomes.Sat != 0 {
		t.Errorf("solver sat outcomes = %d, want 0 (all races fast-pathed)", m.Outcomes.Sat)
	}
	if m.Outcomes.Solved >= int64(res.COPsChecked) {
		t.Errorf("solver queries = %d, want fewer than COPsChecked = %d (fast path must skip solves)",
			m.Outcomes.Solved, res.COPsChecked)
	}

	col = telemetry.NewCollector()
	res = New(Options{WindowSize: 10000, NoTriage: true, Telemetry: col}).Detect(tr)
	m = col.Snapshot()
	if tg := m.Triage; tg.Confirmed != 0 || tg.WCPConfirmed != 0 || tg.SyncPConfirmed != 0 ||
		tg.CPConfirmed != 0 || tg.Dispatched != 0 || tg.FastPathNS != 0 {
		t.Errorf("NoTriage run has non-zero triage block: %+v", tg)
	}
	if m.Outcomes.Sat != int64(ex.RV) {
		t.Errorf("NoTriage sat outcomes = %d, want %d", m.Outcomes.Sat, ex.RV)
	}
	if len(res.Races) != ex.RV {
		t.Errorf("NoTriage races = %d, want %d", len(res.Races), ex.RV)
	}
}

// TestTriageWitnessesStillSolve: with Options.Witness set, confirmed
// pairs fall through to the (guaranteed satisfiable) solver query, so
// every reported race still carries a valid witness schedule. Whole-trace
// window: witnesses are only validatable against the full trace.
func TestTriageWitnessesStillSolve(t *testing.T) {
	tr := pairRichTrace()
	res := New(Options{Witness: true}).Detect(tr)
	if len(res.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}
	for _, r := range res.Races {
		if err := race.ValidateWitness(tr, r.Witness, r.A, r.B); err != nil {
			t.Errorf("race %v: invalid witness: %v", r.Sig, err)
		}
	}
}

// TestProvenanceTierAttribution pins the attributor's exact tier per
// motif shape on hand-built filler-free traces (the fuzzed workload
// fixtures add filler lock traffic that legitimately shifts WCP
// attributions — rule (a) edges appear — so exact-tier assertions need
// bare shapes). Each trace plants exactly one race; the expected tier is
// the cheapest rung of the ladder that proves it, derived in the motif
// comments of internal/workloads and verified by hand against the
// witness-check algorithm.
func TestProvenanceTierAttribution(t *testing.T) {
	const (
		l = trace.Addr(200)
		x = trace.Addr(5)
		y = trace.Addr(6)
		u = trace.Addr(7)
		v = trace.Addr(8)
	)
	shapes := []struct {
		name  string
		tier  string
		build func() *trace.Trace
	}{
		{"plain", race.TierSHB, func() *trace.Trace {
			b := trace.NewBuilder()
			b.At(1).Write(1, x, 1)
			b.At(2).Read(2, x)
			return b.Trace()
		}},
		{"hb-not-said", race.TierSHB, func() *trace.Trace {
			// Ordered only by the pair's own reads-from edge → RFRaceable.
			b := trace.NewBuilder()
			b.Volatile(v)
			b.At(1).Write(1, x, 1)
			b.At(2).ReadV(1, v, 0)
			b.At(3).Write(2, v, 1)
			b.At(4).ReadV(2, x, 1)
			return b.Trace()
		}},
		{"cp-race", race.TierWCP, func() *trace.Trace {
			// Non-conflicting sections: no WCP edge, witness via acquire swap.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(2).Write(2, u, 1)
			b.Release(2, l)
			b.At(3).Read(2, x)
			return b.Trace()
		}},
		{"said-race", race.TierSyncP, func() *trace.Trace {
			// Write/write section conflict: WCP-ordered, witness still exists.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, y, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(3).Write(2, y, 2)
			b.Release(2, l)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
		{"rv-region", race.TierSMT, func() *trace.Trace {
			// Witness needs value abstraction (r(y) returning the initial
			// value) — only the solver proves it.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, y, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(3).ReadV(2, y, 1)
			b.Release(2, l)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
		{"rv-incomplete", race.TierSMT, func() *trace.Trace {
			b := trace.NewBuilder()
			b.Volatile(v)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, v, 1)
			b.At(3).ReadV(2, v, 1)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
	}
	for _, sh := range shapes {
		tr := sh.build()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", sh.name, err)
		}
		// NoTriage: attribution must not depend on which fast path fired.
		for _, opt := range []Options{{}, {NoTriage: true}, {TriageLevel: "cp"}} {
			res := New(opt).Detect(tr)
			if len(res.Races) != 1 {
				t.Fatalf("%s (opt %+v): races = %d, want exactly 1", sh.name, opt, len(res.Races))
			}
			if got := res.Races[0].Prov.Tier; got != sh.tier {
				t.Errorf("%s (opt %+v): provenance tier = %q, want %q", sh.name, opt, got, sh.tier)
			}
		}
	}
}
