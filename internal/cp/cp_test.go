package cp

import (
	"testing"

	"repro/internal/fixtures"
	"repro/internal/hb"
	"repro/internal/race"
	"repro/trace"
)

func TestFigure1CPMisses310(t *testing.T) {
	// The two lock regions conflict on y, so rel(5) CP acq(7) seeds the
	// relation and composition orders 3 before 10: CP finds nothing in
	// Figure 1 — exactly the paper's Section 1 discussion.
	res := New(Options{}).Detect(fixtures.Figure1())
	if len(res.Races) != 0 {
		t.Errorf("CP must find no races in Figure 1, got %v", res.Races)
	}
}

func TestCPFindsRaceWhenRegionsDontConflict(t *testing.T) {
	// Same shape as Figure 1 but the second region does not touch y: the
	// lock edge is dropped and (w x, r x) becomes a CP race though HB
	// still misses it.
	b := trace.NewBuilder()
	b.At(1).Fork(1, 2)
	b.At(2).Acquire(1, fixtures.L)
	b.At(3).Write(1, fixtures.X, 1)
	b.At(5).Release(1, fixtures.L)
	b.At(6).Begin(2)
	b.At(7).Acquire(2, fixtures.L)
	b.At(8).Write(2, 50, 1) // unrelated location
	b.At(9).Release(2, fixtures.L)
	b.At(10).ReadV(2, fixtures.X, 1)
	b.At(13).End(2)
	b.At(14).Join(1, 2)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cpRes := New(Options{}).Detect(tr)
	hbRes := hb.New(hb.Options{}).Detect(tr)
	want := race.Signature{First: 3, Second: 10}
	foundCP := false
	for _, r := range cpRes.Races {
		if r.Sig == want {
			foundCP = true
		}
	}
	if !foundCP {
		t.Errorf("CP must find (3,10) with non-conflicting regions, got %v", cpRes.Races)
	}
	for _, r := range hbRes.Races {
		if r.Sig == want {
			t.Error("HB must still miss (3,10)")
		}
	}
}

func TestRuleTwoPromotesNonConflictingSections(t *testing.T) {
	// Rule (ii): two critical sections on lock m whose contents do NOT
	// conflict are still CP-ordered because they contain CP-ordered events
	// through an inner lock n:
	//
	//	t1: acq(m) acq(n) w(x) rel(n) w(v) rel(m)
	//	t3: acq(n) r(x) rel(n) acq(m) r(v) rel(m)
	//
	// The n-sections conflict on x (rule i core). t1's w(v) lies after
	// rel(n) but inside the m-section, so only the promoted m-core pair
	// orders w(v) before t3's r(v); without rule (ii), (w v, r v) would be
	// (unsoundly, here) reported as a race.
	b := trace.NewBuilder()
	const m, n, x, v = trace.Addr(200), trace.Addr(201), trace.Addr(5), trace.Addr(6)
	b.At(1).Acquire(1, m)  // 0
	b.At(2).Acquire(1, n)  // 1
	b.At(3).Write(1, x, 1) // 2
	b.At(4).Release(1, n)  // 3
	b.At(5).Write(1, v, 1) // 4
	b.At(6).Release(1, m)  // 5
	b.At(7).Acquire(3, n)  // 6
	b.At(8).Read(3, x)     // 7
	b.At(9).Release(3, n)  // 8
	b.At(10).Acquire(3, m) // 9
	b.At(11).Read(3, v)    // 10
	b.At(12).Release(3, m) // 11
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rel := Compute(tr)
	if !rel.CP(2, 7) {
		t.Error("(w x, r x) must be CP-ordered by the rule (i) core on n")
	}
	if !rel.CP(4, 10) {
		t.Error("the m-sections must be CP-ordered (here via rule (i): they conflict on v)")
	}
	res := New(Options{}).Detect(tr)
	for _, r := range res.Races {
		if r.Sig == (race.Signature{First: 5, Second: 11}) {
			t.Errorf("(w v, r v) must be CP-ordered, not a race")
		}
	}
}

func TestRuleTwoOnlyOrdering(t *testing.T) {
	// A pair ordered by CP *only* through rule (ii): the write reaches the
	// m-section of t1 via lock o after t1's inner n-section closed, so the
	// rule (i) n-core cannot span it, and the m-sections themselves do not
	// conflict — only the rule (ii) promotion of (rel m@10, acq m@14)
	// orders w(v)@1 before r(v)@15.
	b := trace.NewBuilder()
	const (
		m, n, o = trace.Addr(200), trace.Addr(201), trace.Addr(202)
		x, v, u = trace.Addr(5), trace.Addr(6), trace.Addr(7)
	)
	b.Acquire(0, o)        // 0   t0
	b.At(1).Write(0, v, 1) // 1
	b.Release(0, o)        // 2
	b.Acquire(1, m)        // 3   t1
	b.Acquire(1, n)        // 4
	b.At(2).Write(1, x, 1) // 5
	b.Release(1, n)        // 6
	b.Acquire(1, o)        // 7
	b.At(3).Read(1, u)     // 8
	b.Release(1, o)        // 9
	b.Release(1, m)        // 10
	b.Acquire(3, n)        // 11  t3
	b.At(4).Read(3, x)     // 12
	b.Release(3, n)        // 13
	b.Acquire(3, m)        // 14
	b.At(5).Read(3, v)     // 15
	b.Release(3, m)        // 16
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rel := Compute(tr)
	if !rel.CP(1, 15) {
		t.Error("rule (ii) must order w(v)@1 before r(v)@15")
	}
	res := New(Options{}).Detect(tr)
	for _, r := range res.Races {
		if r.Sig == (race.Signature{First: 1, Second: 5}) {
			t.Errorf("(w v, r v) must not be a CP race (rule ii)")
		}
	}
}

func TestMHBStillOrders(t *testing.T) {
	// Fork-ordered accesses without any locks: CP relation is empty but
	// the pair must not be reported (hard must-happen-before edge).
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1)
	b.Fork(1, 2)
	b.Begin(2)
	b.At(2).Read(2, 5)
	res := New(Options{}).Detect(b.Trace())
	if len(res.Races) != 0 {
		t.Errorf("fork-ordered pair must not be a CP race, got %v", res.Races)
	}
}

func TestPlainRace(t *testing.T) {
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1)
	b.At(2).ReadV(2, 5, 1)
	res := New(Options{}).Detect(b.Trace())
	if len(res.Races) != 1 {
		t.Errorf("unordered pair must be a CP race, got %v", res.Races)
	}
}

func TestCPSupersetOfHB(t *testing.T) {
	// Property: on assorted traces, every HB race is also a CP race.
	traces := []*trace.Trace{
		fixtures.Figure1(),
		fixtures.Figure1Switched(),
		fixtures.Figure2(false),
		fixtures.Figure2(true),
	}
	for i, tr := range traces {
		hbSigs := make(map[race.Signature]bool)
		for _, r := range hb.New(hb.Options{}).Detect(tr).Races {
			hbSigs[r.Sig] = true
		}
		cpSigs := make(map[race.Signature]bool)
		for _, r := range New(Options{}).Detect(tr).Races {
			cpSigs[r.Sig] = true
		}
		for s := range hbSigs {
			if !cpSigs[s] {
				t.Errorf("trace %d: HB race %v missed by CP", i, s)
			}
		}
	}
}

func TestSameThreadSectionsIgnored(t *testing.T) {
	// Two critical sections by the same thread never seed core pairs.
	b := trace.NewBuilder()
	b.Acquire(1, 9).At(1).Write(1, 5, 1).Release(1, 9)
	b.Acquire(1, 9).At(2).Write(1, 5, 2).Release(1, 9)
	rel := Compute(b.Trace())
	if len(rel.core) != 0 {
		t.Errorf("same-thread sections must not create core pairs, got %v", rel.core)
	}
}

// TestReleaseOwnsOnlyBuiltClocks: Release returns the composition clocks
// Compute built to the slab pool (querying them afterwards fails: their
// storage is gone), while clocks a caller passed to ComputeWith stay the
// caller's and keep answering as before.
func TestReleaseOwnsOnlyBuiltClocks(t *testing.T) {
	tr := fixtures.Figure1()
	a, b := 0, tr.Len()-1
	released := func(ec *hb.EventClocks) (gone bool) {
		defer func() { gone = recover() != nil }()
		ec.Before(a, b)
		return false
	}

	owned := Compute(tr)
	comp := owned.hb
	owned.Release()
	if !released(comp) {
		t.Error("Compute's composition clocks survived Release")
	}

	mine := hb.Clocks(tr)
	want := mine.Before(a, b)
	borrowed := ComputeWith(tr, mine)
	borrowed.Release()
	if released(mine) || mine.Before(a, b) != want {
		t.Error("Release freed caller-owned composition clocks")
	}
	mine.Release()
}
