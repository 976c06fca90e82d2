package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/ladder"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/trace"
)

// referenceFunnel is the per-pair definition the bucketed funnel must
// reproduce: enumerate every COP in (A, B) order, drop those whose
// signature skip reports, drop those failing the lockset quick check,
// triage the rest, and group them by signature in order of first
// instance. Every decision is tallied one candidate at a time.
func referenceFunnel(d *Detector, w *trace.Trace, skip func(race.Signature) bool) []*sigGroup {
	col := d.opt.Telemetry
	cops := race.EnumerateCOPs(w)
	col.CountEnumerated(len(cops))
	var sets *lockset.Sets
	if !d.opt.NoQuickCheck {
		sets = lockset.Compute(w)
	}
	var survivors []race.COP
	for _, cop := range cops {
		if skip != nil && skip(race.SigOf(w, cop.A, cop.B)) {
			col.CountSigDedup(1)
			continue
		}
		if sets != nil && !sets.Pass(cop.A, cop.B) {
			col.CountQuickCheckFiltered(1)
			continue
		}
		survivors = append(survivors, cop)
	}
	lad := ladder.New(w)
	defer lad.Release()
	return d.group(w, lad, survivors)
}

// funnelCase is one generated window with the funnel's inputs.
type funnelCase struct {
	w    *trace.Trace
	skip map[race.Signature]bool
	opt  Options
}

// funnelCases derives windows, skip sets and option variants from one
// random trace: windows are cut at arbitrary points, so they start inside
// critical sections and after forks.
func funnelCases(rng *rand.Rand) []funnelCase {
	tr := fixtures.Random(rng, 20+rng.Intn(100))
	size := 0
	if rng.Intn(3) > 0 {
		size = 5 + rng.Intn(tr.Len())
	}
	opts := []Options{
		{},
		{TriageLevel: "shb"},
		{TriageLevel: "cp"},
		{TriageLevel: "off"},
		{NoQuickCheck: true},
	}
	var out []funnelCase
	for _, ws := range race.WindowSlices(tr, size) {
		var skip map[race.Signature]bool
		if rng.Intn(3) > 0 {
			skip = map[race.Signature]bool{}
			for k := rng.Intn(8); k > 0; k-- {
				skip[race.SigOfLocs(trace.Loc(1+rng.Intn(6)), trace.Loc(1+rng.Intn(6)))] = true
			}
		}
		out = append(out, funnelCase{w: ws.Trace, skip: skip, opt: opts[rng.Intn(len(opts))]})
	}
	return out
}

// checkFunnel runs the bucketed funnel and the reference on one case and
// reports any difference in the groups (signature order, instance order,
// triage verdicts) or in the funnel and triage telemetry.
func checkFunnel(c funnelCase) error {
	var skip func(race.Signature) bool
	if c.skip != nil {
		skip = func(sig race.Signature) bool { return c.skip[sig] }
	}
	gotCol, wantCol := telemetry.NewCollector(), telemetry.NewCollector()
	got := New(withTelemetry(c.opt, gotCol))
	want := New(withTelemetry(c.opt, wantCol))
	lad := ladder.New(c.w)
	defer lad.Release()
	gotGroups, mhb, candidates := got.funnel(c.w, lad, skip)
	if mhb != nil {
		mhb.Release()
	}
	wantGroups := referenceFunnel(want, c.w, skip)
	if !reflect.DeepEqual(gotGroups, wantGroups) {
		return fmt.Errorf("groups differ:\n got %s\nwant %s", dumpGroups(gotGroups), dumpGroups(wantGroups))
	}
	g, wm := gotCol.Snapshot().NonTiming(), wantCol.Snapshot().NonTiming()
	if !reflect.DeepEqual(g, wm) {
		return fmt.Errorf("telemetry differs:\n got outcomes %+v triage %+v\nwant outcomes %+v triage %+v",
			g.Outcomes, g.Triage, wm.Outcomes, wm.Triage)
	}
	if int64(candidates) != wm.Outcomes.Enumerated {
		return fmt.Errorf("returned %d candidates, reference enumerated %d", candidates, wm.Outcomes.Enumerated)
	}
	return nil
}

func withTelemetry(opt Options, col *telemetry.Collector) Options {
	opt.Telemetry = col
	return opt
}

func dumpGroups(gs []*sigGroup) string {
	s := ""
	for _, g := range gs {
		s += fmt.Sprintf("%v:%v%v ", g.sig, g.cops, g.confirmed)
	}
	return s
}

func TestCandidateFunnelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	col := telemetry.NewCollector()
	survivors := 0
	for iter := 0; iter < 1000; iter++ {
		for _, c := range funnelCases(rng) {
			if err := checkFunnel(c); err != nil {
				t.Fatalf("iter %d: %v\nwindow:\n%s", iter, err, dumpTrace(c.w))
			}
			lad := ladder.New(c.w)
			groups, mhb, _ := New(Options{Telemetry: col}).funnel(c.w, lad, func(sig race.Signature) bool { return c.skip[sig] })
			lad.Release()
			if mhb != nil {
				mhb.Release()
			}
			for _, g := range groups {
				survivors += len(g.cops)
			}
		}
	}
	// Every bin must be well populated, or the comparison proves little.
	o := col.Snapshot().Outcomes
	if survivors < 1000 || o.SigDedupHits < 1000 || o.QuickCheckFiltered < 1000 {
		t.Fatalf("generator too conservative: %d survivors, %d dedup hits, %d filtered of %d enumerated",
			survivors, o.SigDedupHits, o.QuickCheckFiltered, o.Enumerated)
	}
	t.Logf("%d survivors, %d dedup hits, %d filtered of %d enumerated",
		survivors, o.SigDedupHits, o.QuickCheckFiltered, o.Enumerated)
}

func FuzzCandidateFunnel(f *testing.F) {
	for _, seed := range []int64{1, 2, 15, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, c := range funnelCases(rand.New(rand.NewSource(seed))) {
			if err := checkFunnel(c); err != nil {
				t.Fatalf("%v\nwindow:\n%s", err, dumpTrace(c.w))
			}
		}
	})
}
