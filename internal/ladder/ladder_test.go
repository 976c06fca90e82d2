package ladder

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cp"
	"repro/internal/fixtures"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/internal/wcp"
	"repro/internal/workloads"
	"repro/trace"
)

func TestParseLevel(t *testing.T) {
	for l := Off; l <= CP; l++ {
		if got, err := ParseLevel(l.String()); err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if got, err := ParseLevel(""); err != nil || got != SyncP {
		t.Errorf(`ParseLevel("") = %v, %v; want syncp`, got, err)
	}
	for _, bad := range []string{"on", "hb", "smt", "SHB"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) accepted", bad)
		}
	}
}

// TestDetectorWindowTruncation: the standalone detector over a window
// size that cuts critical sections in half must neither crash nor
// confirm the region-conflict pair, and still reports the plain race in
// the second window.
func TestDetectorWindowTruncation(t *testing.T) {
	const l, x, y, u = trace.Addr(200), trace.Addr(5), trace.Addr(6), trace.Addr(7)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1
	b.At(2).Write(1, y, 1) // 2
	b.Release(1, l)        // 3
	b.Acquire(2, l)        // 4
	b.At(3).ReadV(2, y, 1) // 5
	b.Release(2, l)        // 6
	b.At(4).Read(2, x)     // 7
	b.At(5).Write(1, u, 1) // 8
	b.At(6).Read(2, u)     // 9
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{3, 4, 5, 0} {
		res := Detect(tr, window, SyncP)
		foundU := false
		for _, r := range res.Races {
			if r.A == 8 && r.B == 9 {
				foundU = true
			}
			if r.A == 1 && r.B == 7 {
				t.Errorf("window=%d: rv-region pair (1,7) confirmed", window)
			}
		}
		if window == 0 && !foundU {
			t.Errorf("window=%d: plain pair (8,9) not reported", window)
		}
	}
}

// smallRows builds the workload rows small enough to check pair by pair.
func smallRows(t testing.TB) []*trace.Trace {
	var out []*trace.Trace
	for _, spec := range workloads.Rows() {
		if spec.Events > 1000 {
			continue
		}
		tr, _ := workloads.Build(spec)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: row trace invalid: %v", spec.Name, err)
		}
		out = append(out, tr)
	}
	return out
}

// windowSizes are the sizes the comparisons run at: the whole trace,
// windows that cut critical sections, and the paper's default.
var windowSizes = []int{0, 64, 10000}

// referenceScan is the per-pair loop each vector-clock detector carried
// before race.Scan, kept as the definition Scan must reproduce: per
// window, enumerate the COPs, skip decided signatures, count the rest,
// report the pairs the verdict names a tier for. The window index is
// derived from the pair's position, as the public layer once derived it
// for the baselines.
func referenceScan(tr *trace.Trace, size int, verdict func(w *trace.Trace) func(a, b int) string) race.Result {
	var res race.Result
	seen := make(map[race.Signature]bool)
	res.Windows = race.Windows(tr, size, func(w *trace.Trace, offset int) {
		tier := verdict(w)
		for _, cop := range race.EnumerateCOPs(w) {
			sig := race.SigOf(w, cop.A, cop.B)
			if seen[sig] {
				continue
			}
			res.COPsChecked++
			tr := tier(cop.A, cop.B)
			if tr == "" {
				continue
			}
			seen[sig] = true
			r := race.Race{COP: race.COP{A: cop.A + offset, B: cop.B + offset}, Sig: sig}
			r.Prov.Tier = tr
			if size > 0 {
				r.Prov.Window = r.A / size
			}
			res.Races = append(res.Races, r)
		}
	})
	return res
}

// referenceLadder is the rung order as the standalone SyncP and WCP
// detectors once spelled it inline, with every rung's state built
// eagerly: SHB, then the WCP gate over the witness check, then the
// witness check alone.
func referenceLadder(top Level) func(w *trace.Trace) func(a, b int) string {
	return func(w *trace.Trace) func(a, b int) string {
		sets := lockset.Compute(w)
		shb := hb.SHBClocks(w)
		sr := hb.SRClocks(w)
		idx := syncp.NewIndex(w, sr)
		rel := wcp.ComputeWith(w, sr)
		return func(a, b int) string {
			switch {
			case !sets.Pass(a, b):
				return ""
			case syncp.ConfirmSHB(shb, a, b):
				return race.TierSHB
			case top >= WCP && !rel.Ordered(a, b) && idx.Check(a, b):
				return race.TierWCP
			case top >= SyncP && idx.Check(a, b):
				return race.TierSyncP
			}
			return ""
		}
	}
}

// scanned is one detector built on race.Scan with its reference verdict.
type scanned struct {
	name   string
	detect func(tr *trace.Trace, size int) race.Result
	ref    func(w *trace.Trace) func(a, b int) string
}

func scannedDetectors() []scanned {
	ds := []scanned{
		{"hb", func(tr *trace.Trace, size int) race.Result {
			return hb.New(hb.Options{WindowSize: size}).Detect(tr)
		}, func(w *trace.Trace) func(a, b int) string {
			clocks := hb.Clocks(w)
			return func(a, b int) string {
				if clocks.Concurrent(a, b) {
					return race.TierHB
				}
				return ""
			}
		}},
		{"cp", func(tr *trace.Trace, size int) race.Result {
			return cp.New(cp.Options{WindowSize: size}).Detect(tr)
		}, func(w *trace.Trace) func(a, b int) string {
			rel := cp.Compute(w)
			return func(a, b int) string {
				if !rel.Ordered(a, b) {
					return race.TierCP
				}
				return ""
			}
		}},
		{"qc", func(tr *trace.Trace, size int) race.Result {
			return lockset.New(lockset.Options{WindowSize: size}).Detect(tr)
		}, func(w *trace.Trace) func(a, b int) string {
			sets := lockset.Compute(w)
			return func(a, b int) string {
				if sets.Pass(a, b) {
					return race.TierQuickCheck
				}
				return ""
			}
		}},
	}
	for _, top := range []Level{SHB, WCP, SyncP} {
		ds = append(ds, scanned{"ladder-" + top.String(), func(tr *trace.Trace, size int) race.Result {
			return Detect(tr, size, top)
		}, referenceLadder(top)})
	}
	return ds
}

// checkScan compares every Scan-built detector with the reference loop
// on tr at every window size: same races in order, same provenance,
// same COPsChecked and window count.
func checkScan(tr *trace.Trace) error {
	for _, d := range scannedDetectors() {
		for _, size := range windowSizes {
			got := d.detect(tr, size)
			got.Elapsed = 0
			want := referenceScan(tr, size, d.ref)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s at window %d:\n got %d checked, %+v\nwant %d checked, %+v",
					d.name, size, got.COPsChecked, got.Races, want.COPsChecked, want.Races)
			}
		}
	}
	return nil
}

func TestBaselineScanMatchesReference(t *testing.T) {
	for i, tr := range smallRows(t) {
		if err := checkScan(tr); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 200; iter++ {
		tr := fixtures.Random(rng, 20+rng.Intn(200))
		if err := checkScan(tr); err != nil {
			t.Fatalf("random trace %d: %v", iter, err)
		}
	}
}

func FuzzBaselineScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 16, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if err := checkScan(fixtures.Random(rng, 20+rng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanStampsWindow: every detector built on race.Scan stamps each
// race with the index of the window it was found in, A/size.
func TestScanStampsWindow(t *testing.T) {
	const size = 64
	later := 0
	for _, tr := range smallRows(t) {
		for _, d := range append(scannedDetectors(), scanned{name: "ladder-cp",
			detect: func(tr *trace.Trace, size int) race.Result { return Detect(tr, size, CP) }}) {
			for _, r := range d.detect(tr, size).Races {
				if r.Prov.Window != r.A/size {
					t.Errorf("%s: race (%d,%d) stamped window %d, want %d", d.name, r.A, r.B, r.Prov.Window, r.A/size)
				}
				if r.Prov.Window > 0 {
					later++
				}
			}
		}
	}
	if later == 0 {
		t.Fatal("no race found past the first window; the check proves nothing")
	}
}

// TestTierTruncation: a ladder capped at top reports a pair's tier
// exactly when the full ladder's tier ranks at most top, so the rung
// that fires never depends on the cap.
func TestTierTruncation(t *testing.T) {
	traces := smallRows(t)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		traces = append(traces, fixtures.Random(rng, 20+rng.Intn(200)))
	}
	tally := make(map[string]int)
	for _, tr := range traces {
		for _, size := range windowSizes {
			for _, s := range race.WindowSlices(tr, size) {
				w := s.Trace
				sets := lockset.Compute(w)
				full := New(w)
				var capped [CP + 1]*Ladder
				for top := range capped {
					capped[top] = New(w)
				}
				for _, cop := range race.EnumerateCOPs(w) {
					if !sets.Pass(cop.A, cop.B) {
						continue
					}
					tier := full.Tier(cop.A, cop.B, CP)
					tally[tier]++
					for top := Off; top <= CP; top++ {
						want := ""
						if rank, _ := ParseLevel(tier); tier != "" && rank <= top {
							want = tier
						}
						if got := capped[top].Tier(cop.A, cop.B, top); got != want {
							t.Fatalf("pair (%d,%d): Tier at %v = %q, want %q (full ladder: %q)",
								cop.A, cop.B, top, got, want, tier)
						}
					}
				}
				full.Release()
				for _, l := range capped {
					l.Release()
				}
			}
		}
	}
	for _, tier := range []string{race.TierSHB, race.TierWCP, race.TierSyncP, ""} {
		if tally[tier] == 0 {
			t.Errorf("no pair confirmed at tier %q; the check proves too little (%v)", tier, tally)
		}
	}
	t.Logf("pairs per tier: %v", tally)
}
