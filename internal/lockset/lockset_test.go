package lockset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/trace"
)

func TestFigure1QuickCheck(t *testing.T) {
	tr := fixtures.Figure1()
	sets := Compute(tr)
	wX, rX, wY, rY, wZ, rZ := fixtures.Figure1Indices()

	if !sets.Pass(wX, rX) {
		t.Error("(3,10) must pass the quick check (disjoint locksets, MHB-concurrent)")
	}
	if sets.Pass(wY, rY) {
		t.Error("(4,8) must fail: both hold lock l")
	}
	if sets.Pass(wZ, rZ) {
		t.Error("(12,15) must fail: ordered by end→join")
	}

	res := New(Options{}).Detect(tr)
	if len(res.Races) != 1 {
		t.Errorf("QC on Figure 1 = %d signatures, want 1", len(res.Races))
	}
}

func TestSwitchedFalsePositive(t *testing.T) {
	// The unsoundness example of Section 1: after swapping fork and lock,
	// (3,10) is infeasible yet still passes the hybrid quick check.
	tr := fixtures.Figure1Switched()
	res := New(Options{}).Detect(tr)
	found := false
	for _, r := range res.Races {
		if r.Sig == (race.Signature{First: 3, Second: 10}) {
			found = true
		}
	}
	if !found {
		t.Error("quick check is expected to (unsoundly) report (3,10) on the switched program")
	}
}

func TestHeldSets(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 9)
	b.Acquire(1, 8)
	b.Write(1, 5, 1) // holds {8,9}
	b.Release(1, 8)
	b.Write(1, 6, 1) // holds {9}
	b.Release(1, 9)
	b.Write(1, 7, 1) // holds {}
	tr := b.Trace()
	sets := Compute(tr)
	if got := sets.Held(2); len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Errorf("Held(2) = %v, want [8 9]", got)
	}
	if got := sets.Held(4); len(got) != 1 || got[0] != 9 {
		t.Errorf("Held(4) = %v, want [9]", got)
	}
	if got := sets.Held(6); got != nil {
		t.Errorf("Held(6) = %v, want nil", got)
	}
}

func TestDisjoint(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 9).Write(1, 5, 1).Release(1, 9) // event 1: holds {9}
	b.Acquire(2, 9).ReadV(2, 5, 1).Release(2, 9) // event 4: holds {9}
	b.Acquire(2, 8).ReadV(2, 5, 1).Release(2, 8) // event 7: holds {8}
	tr := b.Trace()
	sets := Compute(tr)
	if sets.Disjoint(1, 4) {
		t.Error("common lock 9 must make locksets intersect")
	}
	if !sets.Disjoint(1, 7) {
		t.Error("locks {9} and {8} are disjoint")
	}
}

func TestQCOverapproximatesRV(t *testing.T) {
	// Property: every signature any sound detector could report passes QC.
	// Checked here against the fixtures' known real races.
	tr := fixtures.Figure1()
	res := New(Options{}).Detect(tr)
	found := false
	for _, r := range res.Races {
		if r.Sig == (race.Signature{First: 3, Second: 10}) {
			found = true
		}
	}
	if !found {
		t.Error("the real race (3,10) must pass the quick check")
	}
}

// referenceHeld is the direct definition of the locksets: per thread, the
// set of locks acquired and not yet released, seeded with the locks the
// thread releases before any in-trace acquire of them (the trace is a
// window that began inside those critical sections).
func referenceHeld(tr *trace.Trace) map[int][]trace.Addr {
	cur := make(map[trace.TID]map[trace.Addr]bool)
	acquired := make(map[trace.TID]map[trace.Addr]bool)
	add := func(m map[trace.TID]map[trace.Addr]bool, t trace.TID, l trace.Addr) {
		if m[t] == nil {
			m[t] = make(map[trace.Addr]bool)
		}
		m[t][l] = true
	}
	for _, e := range tr.Events() {
		switch {
		case e.Op == trace.OpAcquire:
			add(acquired, e.Tid, e.Addr)
		case e.Op == trace.OpRelease && !acquired[e.Tid][e.Addr]:
			add(cur, e.Tid, e.Addr)
		}
	}
	held := make(map[int][]trace.Addr)
	for i, e := range tr.Events() {
		switch e.Op {
		case trace.OpAcquire:
			add(cur, e.Tid, e.Addr)
		case trace.OpRelease:
			delete(cur[e.Tid], e.Addr)
		case trace.OpRead, trace.OpWrite:
			for l := range cur[e.Tid] {
				held[i] = append(held[i], l)
			}
			sort.Slice(held[i], func(a, b int) bool { return held[i][a] < held[i][b] })
		}
	}
	return held
}

// TestInternedSetsMatchReference checks the interned locksets against the
// direct definition on random windows with nested critical sections that
// start and end outside the window, and checks that equal locksets share
// one ID and that Disjoint agrees with the sets.
func TestInternedSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		b := trace.NewBuilder()
		held := map[trace.TID][]trace.Addr{}
		owner := map[trace.Addr]trace.TID{}
		for i := 0; i < 60; i++ {
			t := trace.TID(1 + rng.Intn(3))
			switch rng.Intn(4) {
			case 0:
				if l := trace.Addr(10 + rng.Intn(4)); owner[l] == 0 {
					b.Acquire(t, l)
					owner[l] = t
					held[t] = append(held[t], l)
				}
			case 1:
				if n := len(held[t]); n > 0 {
					k := rng.Intn(n)
					b.Release(t, held[t][k])
					delete(owner, held[t][k])
					held[t] = append(held[t][:k], held[t][k+1:]...)
				}
			case 2:
				b.Write(t, trace.Addr(1+rng.Intn(2)), 1)
			default:
				b.Read(t, trace.Addr(1+rng.Intn(2)))
			}
		}
		full := b.Trace()
		lo := rng.Intn(full.Len())
		w := full.Slice(lo, lo+rng.Intn(full.Len()-lo+1))
		want := referenceHeld(w)
		sets := Compute(w)
		byKey := map[string]int32{}
		for i := 0; i < w.Len(); i++ {
			got := sets.Held(i)
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("iter %d: Held(%d) = %v, want %v", iter, i, got, want[i])
			}
			if k := fmt.Sprint(got); w.Event(i).Op.IsAccess() {
				if id, ok := byKey[k]; ok && id != sets.ID(i) {
					t.Fatalf("iter %d: lockset %s has IDs %d and %d", iter, k, id, sets.ID(i))
				}
				byKey[k] = sets.ID(i)
			}
			for j := 0; j < i; j++ {
				disjoint := true
				for _, l := range want[i] {
					for _, m := range want[j] {
						disjoint = disjoint && l != m
					}
				}
				if sets.Disjoint(i, j) != disjoint {
					t.Fatalf("iter %d: Disjoint(%d, %d) = %v, want %v", iter, j, i, !disjoint, disjoint)
				}
			}
		}
	}
}
