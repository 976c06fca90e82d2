package syncp

import (
	"testing"

	"repro/internal/hb"
	"repro/trace"
)

// checkOn builds SR clocks and an index for tr and runs Check on (a, b).
func checkOn(t *testing.T, tr *trace.Trace, a, b int) bool {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("fixture trace invalid: %v", err)
	}
	sr := hb.SRClocks(tr)
	defer sr.Release()
	return NewIndex(tr, sr).Check(a, b)
}

// TestCheckConfirmsSwapShape: the Figure-1 family — the racing write sits
// inside a critical section whose release is program-order-after it, so
// the section cannot be completed; postponing its acquire past the pair
// yields the witness. Non-conflicting sections (the cpRace motif):
//
//	t1: acq(l) w(x,1) rel(l)        t2: acq(l) w(u,1) rel(l); r(x,1)
func TestCheckConfirmsSwapShape(t *testing.T) {
	const l, x, u = trace.Addr(200), trace.Addr(5), trace.Addr(6)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1  ← a
	b.Release(1, l)        // 2
	b.Acquire(2, l)        // 3
	b.At(2).Write(2, u, 1) // 4
	b.Release(2, l)        // 5
	b.At(3).Read(2, x)     // 6  ← b
	if !checkOn(t, b.Trace(), 1, 6) {
		t.Error("Check must confirm the non-conflicting-sections race via an acquire swap")
	}
}

// TestCheckConfirmsConflictingSectionsSwap: the saidRace motif — the
// sections conflict (write/write on y), which orders them under WCP but
// not under SR, and the witness still exists: swap t1's acquire past the
// pair; nothing in t2 is SR-after it.
//
//	t1: acq(l) w(x,1) w(y,1) rel(l)   t2: acq(l) w(y,2) rel(l); r(x,1)
func TestCheckConfirmsConflictingSectionsSwap(t *testing.T) {
	const l, x, y = trace.Addr(200), trace.Addr(5), trace.Addr(6)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1  ← a
	b.At(2).Write(1, y, 1) // 2
	b.Release(1, l)        // 3
	b.Acquire(2, l)        // 4
	b.At(3).Write(2, y, 2) // 5
	b.Release(2, l)        // 6
	b.At(4).Read(2, x)     // 7  ← b
	if !checkOn(t, b.Trace(), 1, 7) {
		t.Error("Check must confirm the write/write-conflicting-sections race")
	}
}

// TestCheckCompletesPulledInSections: a critical section enters the
// closure only through a reads-from edge (t2 reads the counter t3 wrote
// under the lock) and stays open there; it is not the last-starting
// included section of its lock, so the check must complete it — add its
// release to the closure — rather than fail. The enclosing section of
// the racing write still needs the one allowed swap, so this shape
// exercises completion and swap together.
//
//	t3: acq(m) w(c,1) rel(m)
//	t1: acq(l) w(x,1) rel(l)
//	t2: acq(l) acq(m) r(c,1) rel(m) w(u,1) rel(l); r(x,1)
func TestCheckCompletesPulledInSections(t *testing.T) {
	const (
		l, m    = trace.Addr(200), trace.Addr(201)
		x, c, u = trace.Addr(5), trace.Addr(6), trace.Addr(7)
	)
	b := trace.NewBuilder()
	b.Acquire(3, m)        // 0
	b.At(1).Write(3, c, 1) // 1
	b.Release(3, m)        // 2
	b.Acquire(1, l)        // 3
	b.At(2).Write(1, x, 1) // 4  ← a
	b.Release(1, l)        // 5
	b.Acquire(2, l)        // 6
	b.Acquire(2, m)        // 7
	b.At(3).ReadV(2, c, 1) // 8
	b.Release(2, m)        // 9
	b.At(4).Write(2, u, 1) // 10
	b.Release(2, l)        // 11
	b.At(5).Read(2, x)     // 12 ← b
	if !checkOn(t, b.Trace(), 4, 12) {
		t.Error("Check must complete the pulled-in counter section and swap the enclosing one")
	}
}

// TestCheckConfirmsDistinctEnclosingLocks: both accesses sit inside
// critical sections of *different* locks. Each section is the
// last-starting included one of its lock, so both are entitled to stay
// open — no swap, no completion, and the pair races.
func TestCheckConfirmsDistinctEnclosingLocks(t *testing.T) {
	const l, m, x = trace.Addr(200), trace.Addr(201), trace.Addr(5)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1  ← a
	b.Release(1, l)        // 2
	b.Acquire(2, m)        // 3
	b.At(2).Read(2, x)     // 4  ← b
	b.Release(2, m)        // 5
	if !checkOn(t, b.Trace(), 1, 4) {
		t.Error("Check must confirm accesses under distinct locks")
	}
}

// TestCheckRejectsSameLockEnclosure: both accesses inside sections of the
// SAME lock — mutual exclusion forbids adjacency, and the check must say
// so (in the full pipeline the lockset quick check already removes such
// pairs; Check must stay sound on its own).
func TestCheckRejectsSameLockEnclosure(t *testing.T) {
	const l, x = trace.Addr(200), trace.Addr(5)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1
	b.Release(1, l)        // 2
	b.Acquire(2, l)        // 3
	b.At(2).Read(2, x)     // 4
	b.Release(2, l)        // 5
	if checkOn(t, b.Trace(), 1, 4) {
		t.Error("Check must reject a pair enclosed by sections of one lock")
	}
}

// TestCheckRejectsRegionConflictWitness: the paper's Figure 1 / rvRegion
// motif — t2's section READS the y that t1's section wrote, so the
// reads-from edge drags w(y,1), which is program-order-after the racing
// write, into any reads-from-preserving closure: no witness exists (the
// maximal detector still finds the race, by letting r(y) return the
// initial value — a reordering only the solver's value abstraction can
// justify).
//
//	t1: acq(l) w(x,1) w(y,1) rel(l)   t2: acq(l) r(y,1) rel(l); r(x,1)
func TestCheckRejectsRegionConflictWitness(t *testing.T) {
	const l, x, y = trace.Addr(200), trace.Addr(5), trace.Addr(6)
	b := trace.NewBuilder()
	b.Acquire(1, l)        // 0
	b.At(1).Write(1, x, 1) // 1  ← a
	b.At(2).Write(1, y, 1) // 2
	b.Release(1, l)        // 3
	b.Acquire(2, l)        // 4
	b.At(3).ReadV(2, y, 1) // 5
	b.Release(2, l)        // 6
	b.At(4).Read(2, x)     // 7  ← b
	if checkOn(t, b.Trace(), 1, 7) {
		t.Error("Check must not confirm the rv-region race (its witness needs value abstraction)")
	}
}

// TestCheckRejectsVolatileChain: the rvIncomplete motif — the pair is
// ordered through a volatile write→read chain; a reads-from-preserving
// witness would have to include the volatile write, which is
// program-order-after the racing write. Only the solver (dropping the
// volatile read's value) can justify this race; Check must dispatch it.
//
//	t1: w(x,1); w(v,1)   t2: r(v,1); r(x,1)    (v volatile)
func TestCheckRejectsVolatileChain(t *testing.T) {
	const x, v = trace.Addr(5), trace.Addr(6)
	b := trace.NewBuilder()
	b.Volatile(v)
	b.At(1).Write(1, x, 1) // 0  ← a
	b.At(2).Write(1, v, 1) // 1
	b.At(3).ReadV(2, v, 1) // 2
	b.At(4).Read(2, x)     // 3  ← b
	if checkOn(t, b.Trace(), 0, 3) {
		t.Error("Check must not confirm a pair ordered through a volatile chain")
	}
}

// TestCheckRejectsGuardedPair: the qcOnly motif — same volatile chain,
// plus a branch after the volatile read that makes its value
// load-bearing. The pair is NOT a race at all (the SMT query is
// unsatisfiable); a Check confirmation here would be an outright
// soundness bug, the exact hole the reads-from-preserving discipline
// closes.
func TestCheckRejectsGuardedPair(t *testing.T) {
	const x, v = trace.Addr(5), trace.Addr(6)
	b := trace.NewBuilder()
	b.Volatile(v)
	b.At(1).Write(1, x, 1) // 0  ← a
	b.At(2).Write(1, v, 1) // 1
	b.At(3).ReadV(2, v, 1) // 2
	b.At(4).Branch(2)      // 3
	b.At(5).Read(2, x)     // 4  ← b
	if checkOn(t, b.Trace(), 0, 4) {
		t.Error("Check confirmed a guarded non-race — soundness bug")
	}
}

// TestCheckPlainPair: no locks at all — the closure argument degenerates
// to the SR scan and the pair is confirmed.
func TestCheckPlainPair(t *testing.T) {
	const x = trace.Addr(5)
	b := trace.NewBuilder()
	b.At(1).Write(1, x, 1) // 0
	b.At(2).Read(2, x)     // 1
	if !checkOn(t, b.Trace(), 0, 1) {
		t.Error("Check must confirm a plain unsynchronised pair")
	}
}

// TestCheckOrderInsensitive: Check normalises (a, b) internally.
func TestCheckOrderInsensitive(t *testing.T) {
	const x = trace.Addr(5)
	b := trace.NewBuilder()
	b.At(1).Write(1, x, 1) // 0
	b.At(2).Read(2, x)     // 1
	tr := b.Trace()
	sr := hb.SRClocks(tr)
	defer sr.Release()
	idx := NewIndex(tr, sr)
	if idx.Check(0, 1) != idx.Check(1, 0) {
		t.Error("Check(a,b) must equal Check(b,a)")
	}
}

// TestCheckScratchReuse: repeated Check calls on one Index (the triage
// tier classifies every surviving pair of a window through one Index)
// must not let closure state leak between calls.
func TestCheckScratchReuse(t *testing.T) {
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
	sr := hb.SRClocks(tr)
	defer sr.Release()
	idx := NewIndex(tr, sr)
	for i := 0; i < 3; i++ {
		if idx.Check(1, 7) {
			t.Fatalf("round %d: rv-region pair confirmed", i)
		}
		if !idx.Check(8, 9) {
			t.Fatalf("round %d: plain pair rejected after a failing Check", i)
		}
	}
}
