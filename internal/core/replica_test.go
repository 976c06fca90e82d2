package core

import (
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// guardedReadTrace has one COP whose cf cone is non-empty: t2's read of g
// (event 4) is guarded by a branch on a read of x.
func guardedReadTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder()
	const x, g trace.Addr = 1, 2
	b.At(1).Write(1, g, 5)
	b.At(2).Write(1, x, 1)
	b.At(3).ReadV(2, x, 1)
	b.At(4).Branch(2)
	b.At(5).ReadV(2, g, 5)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestUnwarmedConeTripsGuard checks the dangling-cf guard: preparing a
// pair whose cf cone was not encoded before the checkpoint must panic,
// because the memoised definition would outlive its SAT variable at the
// next rollback. The same pair on a warmed replica prepares cleanly.
func TestUnwarmedConeTripsGuard(t *testing.T) {
	tr := guardedReadTrace(t)
	cop := race.COP{A: 0, B: 4}
	d := New(Options{})

	warm := d.newWindowSolver(tr, vc.ComputeMHB(tr))
	warm.cf.ControlFlow(cop.A)
	warm.cf.ControlFlow(cop.B)
	warm.checkpoint(nil, 0)
	if _, ok := warm.prepare(d, cop); !ok {
		t.Fatal("warmed replica failed to prepare the pair")
	}

	cold := d.newWindowSolver(tr, vc.ComputeMHB(tr))
	cold.checkpoint(nil, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("preparing an unwarmed cone after the checkpoint did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "cf definitions after the window checkpoint") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cold.prepare(d, cop)
}

// TestCheckpointPhaseTimed checks that the window solver's checkpoint and
// rollbacks are charged to the checkpoint phase and appear as timeline
// spans.
func TestCheckpointPhaseTimed(t *testing.T) {
	col := telemetry.NewCollector()
	rec := telemetry.NewSpanRecorder(0)
	col.AttachSpans(rec)
	res := New(Options{NoTriage: true, Telemetry: col}).Detect(pairRichTrace())
	if len(res.Races) == 0 {
		t.Fatal("fixture produced no races")
	}
	m := col.Snapshot()
	if m.PairSched.Rollbacks == 0 {
		t.Fatal("fixture produced no rollbacks")
	}
	if m.Phases.Checkpoint <= 0 {
		t.Errorf("checkpoint phase = %d ns, want > 0", m.Phases.Checkpoint)
	}
	spans := map[string]int{}
	for _, ev := range rec.Events() {
		spans[ev.Name]++
	}
	if spans["checkpoint"] == 0 || int64(spans["rollback"]) != m.PairSched.Rollbacks {
		t.Errorf("spans: %d checkpoint, %d rollback; want ≥ 1 and %d",
			spans["checkpoint"], spans["rollback"], m.PairSched.Rollbacks)
	}
}
