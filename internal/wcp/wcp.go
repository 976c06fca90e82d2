// Package wcp implements a weak-causally-precedes ordering gate in the
// style of Kini, Mathur and Viswanathan ("Dynamic Race Prediction in
// Linear Time", PLDI 2017), used as the third rung of the triage ladder
// between SHB and the full sync-preserving witness tier.
//
// WCP weakens happens-before further than CP: a release orders only the
// *conflicting accesses* of later critical sections of the same lock, not
// their acquires:
//
//	(a)  rel(S1) ≼ e for the earliest event e ∈ S2 conflicting with some
//	     access of S1, when S1 and S2 are critical sections of one lock
//	     (S1 first in the lock's serialization) on different threads;
//	(b)  rel(S1) ≼ rel(S2) when the sections contain WCP-ordered events;
//	(c)  WCP composes with the surrounding order on either side.
//
// This implementation under-approximates the relation: rule (b) is
// omitted and rule (c) composes single-hop with the caller-supplied SR
// order (hb.SRClocks) rather than full HB. Under-approximating is safe
// here because the gate carries no soundness weight at all — a pair is
// only ever confirmed at the WCP tier when the sync-preserving witness
// check (internal/syncp) independently proves the race; the gate merely
// attributes the confirmation to the cheapest plausible rung, so the
// per-tier telemetry and provenance read like the literature's hierarchy.
// The per-pair weak-soundness caveat of the WCP theorem (soundness only
// up to the first race) therefore never reaches a verdict: unlike CP's
// opt-in tier, WCP-concurrency alone never skips a solver query.
//
// Rule (a)'s "earliest conflicting event" is exact under program order:
// scanning S2's own-thread events forward finds it in one pass.
package wcp

import (
	"sort"

	"repro/internal/hb"
	"repro/trace"
)

// edge is one rule (a) ordering: rel ≼ tgt. Sections truncated by the
// analysis window use sentinel endpoints exactly like internal/cp: a
// release beyond the window acts as +∞, an acquire before it as −∞ —
// adding ordering is the conservative direction for a gate whose "ordered"
// verdict only demotes a confirmation to the next tier.
type edge struct {
	rel, tgt int
}

const (
	relInf = -2 // release beyond the window end
	tgtInf = -3 // conflicting access before the window start
)

// Relation answers WCP-ordering queries for one (windowed) trace. The SR
// clocks are borrowed, not owned (the caller keeps them on the vc slab
// pool); the relation itself holds only the rule (a) edge list.
type Relation struct {
	sr    *hb.EventClocks
	edges []edge
}

// section mirrors internal/cp's per-section access summary: the owning
// thread's reads (bit 1) and writes (bit 2) between the endpoints.
type section struct {
	cs     trace.CriticalSection
	acc    map[trace.Addr]uint8
	lo, hi int // own-thread scan range, window-clamped
	relIdx int // release index or relInf
}

// Compute builds the WCP relation of tr over fresh SR clocks. The clocks
// are owned by the relation in this mode and returned to the slab pool by
// Release; pipelines that already hold SR clocks use ComputeWith.
func Compute(tr *trace.Trace) *Relation {
	return ComputeWith(tr, hb.SRClocks(tr))
}

// ComputeWith builds the WCP relation of tr, composing through the
// caller-supplied SR clocks (which the caller continues to own).
func ComputeWith(tr *trace.Trace, sr *hb.EventClocks) *Relation {
	r := &Relation{sr: sr}

	all := tr.CriticalSections()
	byLock := make(map[trace.Addr][]*section)
	for _, cs := range all {
		s := &section{cs: cs, acc: make(map[trace.Addr]uint8)}
		s.lo, s.hi = cs.Acquire, cs.Release
		if s.lo < 0 {
			s.lo = 0
		}
		if s.hi < 0 {
			s.hi = tr.Len() - 1
		}
		s.relIdx = cs.Release
		if s.relIdx < 0 {
			s.relIdx = relInf
		}
		for i := s.lo; i <= s.hi; i++ {
			e := tr.Event(i)
			if e.Tid != cs.Tid || !e.Op.IsAccess() {
				continue
			}
			if e.Op == trace.OpRead {
				s.acc[e.Addr] |= 1
			} else {
				s.acc[e.Addr] |= 2
			}
		}
		byLock[cs.Lock] = append(byLock[cs.Lock], s)
	}
	locks := make([]trace.Addr, 0, len(byLock))
	for l := range byLock {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })

	for _, l := range locks {
		secs := byLock[l]
		for i := 0; i < len(secs); i++ {
			for j := i + 1; j < len(secs); j++ {
				s1, s2 := secs[i], secs[j]
				if s1.cs.Tid == s2.cs.Tid {
					continue
				}
				if tgt, ok := earliestConflict(tr, s1, s2); ok {
					r.edges = append(r.edges, edge{rel: s1.relIdx, tgt: tgt})
				}
			}
		}
	}
	return r
}

// earliestConflict returns the first own-thread event of s2 conflicting
// with an access of s1, if any. A truncated-acquire s2 reports the
// −∞ sentinel when the conflict sits at its window-clamped start.
func earliestConflict(tr *trace.Trace, s1, s2 *section) (int, bool) {
	for i := s2.lo; i <= s2.hi; i++ {
		e := tr.Event(i)
		if e.Tid != s2.cs.Tid || !e.Op.IsAccess() {
			continue
		}
		bits, ok := s1.acc[e.Addr]
		if !ok {
			continue
		}
		if bits&2 != 0 || e.Op != trace.OpRead {
			if s2.cs.Acquire < 0 && i == s2.lo {
				return tgtInf, true
			}
			return i, true
		}
	}
	return 0, false
}

// srLE reports i ⊑SR j with the window sentinels treated as −∞/+∞.
func (r *Relation) srLE(i, j int) bool {
	if i == tgtInf || j == relInf {
		return true
	}
	if i == relInf || j == tgtInf {
		return false
	}
	return i == j || r.sr.Before(i, j)
}

// WCP reports whether event i weak-causally-precedes event j through the
// rule (a) edges composed with SR on both sides.
func (r *Relation) WCP(i, j int) bool {
	for _, e := range r.edges {
		if r.srLE(i, e.rel) && r.srLE(e.tgt, j) {
			return true
		}
	}
	return false
}

// Ordered reports whether the COP (a, b) (a before b in the trace) is
// ordered for gate purposes: SR-ordered — except when the order is the
// pair's own reads-from edge (hb.RFRaceable), which adjacency satisfies —
// or WCP-ordered.
func (r *Relation) Ordered(a, b int) bool {
	if r.sr.Before(a, b) && !r.sr.RFRaceable(a, b) {
		return true
	}
	return r.sr.Before(b, a) || r.WCP(a, b)
}

// Release is a no-op placeholder for relations built with ComputeWith
// (the caller owns the clocks); relations from Compute must instead use
// ReleaseOwned.
func (r *Relation) Release() {}

// ReleaseOwned returns the relation's SR clocks to the shared slab pool
// (Compute mode only). The relation must not be queried afterwards.
func (r *Relation) ReleaseOwned() {
	r.sr.Release()
	r.sr = nil
}
