// Triage ladder: sound fast paths that confirm races before SMT (the
// detection-side counterpart of the paper's Table 1 inclusion chain
// HB ⊆ CP ⊆ RV, refined with the linear-time sound orders of the
// follow-up literature).
//
// Every candidate pair surviving the prefilters used to pay a full
// IDL/SMT solve, yet on real traces the overwhelming majority of reported
// races are decidable by cheap sound passes. The ladder classifies each
// quick-check survivor once, in canonical enumeration order, before the
// pair scheduler dispatches anything; each rung only sees the previous
// rung's survivors:
//
//   - shb: the pair is concurrent under schedulable happens-before (SHB:
//     full HB plus a reads-from edge from every read's justifying write —
//     hb.SHBClocks), or is a write–read pair ordered only by its own
//     reads-from edge (the pre-join check, hb.RFRaceable). Together with
//     the quick check's disjoint locksets this soundly proves the SMT
//     query satisfiable.
//   - wcp: the SHB tier cannot confirm the pair, but it is unordered by
//     the weak-causally-precedes gate (internal/wcp) and the
//     sync-preserving witness check (internal/syncp) constructs an
//     explicit reads-from-preserving witness. The witness carries the
//     soundness; the gate attributes the confirmation to the cheapest
//     plausible rung of the literature's hierarchy.
//   - syncp: the WCP gate orders the pair, but the witness check still
//     proves the race. This is the strongest witness-backed rung and the
//     default ladder top (Options.TriageLevel).
//   - cp (opt-in, Options.TriageLevel "cp"): pairs no
//     witness-backed tier confirms are checked against the
//     causally-precedes relation composed with SHB; concurrent pairs are
//     confirmed. Unlike the rungs above, this tier rests on the CP
//     soundness theorem rather than an explicit witness.
//   - dispatched: everything else goes to the pair scheduler unchanged.
//
// Confirmed pairs skip the solver entirely; when Options.Witness demands
// a schedule the pair instead runs the normal (guaranteed-SAT) solve so
// the witness is bit-identical to the triage-off run.
//
// Why SHB and not bare HB for the first rung: HB concurrency alone is NOT
// sufficient under maximal-causality semantics. A non-volatile
// write→read value flow carries no HB edge, yet the read may guard (via a
// branch) one of the racing accesses, forcing an order HB never sees —
// the pair is HB-concurrent but the SMT query is UNSAT. The reads-from
// edges close exactly that hole; the witness-backed rungs inherit the
// same discipline by building on the SR order (hb.SRClocks), which keeps
// every reads-from edge.
package core

import (
	"time"

	"repro/internal/cp"
	"repro/internal/hb"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/internal/wcp"
	"repro/trace"
)

// triageLevel is the resolved ladder height, ordered by strength.
type triageLevel int

const (
	triageOff triageLevel = iota
	triageSHB
	triageWCP
	triageSyncP
	triageCP
)

// resolveTriageLevel maps the option surface (NoTriage, TriageLevel)
// onto a ladder height. Unrecognised TriageLevel strings fall
// back to the default; validation with typed errors lives in the public
// rvpredict layer.
func (d *Detector) resolveTriageLevel() triageLevel {
	if d.opt.NoTriage || d.opt.NoQuickCheck {
		return triageOff
	}
	switch d.opt.TriageLevel {
	case "shb":
		return triageSHB
	case "wcp":
		return triageWCP
	case "cp":
		return triageCP
	}
	return triageSyncP
}

// triageOn reports whether the triage ladder runs: not disabled, and the
// quick check (whose locksets and MHB pass the ladder shares) is active.
func (d *Detector) triageOn() bool { return d.resolveTriageLevel() != triageOff }

// triage is the per-window classifier. Clock computations are lazy: the
// SHB pass runs once per window with surviving candidates; the SR
// clocks, witness index and WCP gate only when some pair reaches the
// witness-backed rungs; the CP relation only at the cp level when a pair
// reaches the last rung. All clock state lives on the vc slab pool and is
// returned by release.
type triage struct {
	d    *Detector
	w    *trace.Trace
	lv   triageLevel
	shb  *hb.EventClocks
	sr   *hb.EventClocks // lazy, wcp and above
	sidx *syncp.Index    // lazy, borrows sr
	wrel *wcp.Relation   // lazy, borrows sr
	rel  *cp.Relation    // lazy, cp level only
}

// newTriage computes the window's SHB clocks (charged to the triage
// fast-path counter, not to a pipeline phase — the ladder is an addition
// to the pipeline, not a stage of it).
func (d *Detector) newTriage(w *trace.Trace) *triage {
	col := d.opt.Telemetry
	var t0 time.Time
	if col.Enabled() {
		t0 = time.Now()
	}
	t := &triage{d: d, w: w, lv: d.resolveTriageLevel(), shb: hb.SHBClocks(w)}
	if col.Enabled() {
		col.AddTriageFastPath(time.Since(t0))
	}
	return t
}

// witnessState lazily builds the SR clocks, the sync-preserving witness
// index and the WCP gate, charged to the fast-path counter.
func (t *triage) witnessState() {
	if t.sr != nil {
		return
	}
	col := t.d.opt.Telemetry
	var t0 time.Time
	if col.Enabled() {
		t0 = time.Now()
	}
	t.sr = hb.SRClocks(t.w)
	t.sidx = syncp.NewIndex(t.w, t.sr)
	t.wrel = wcp.ComputeWith(t.w, t.sr)
	if col.Enabled() {
		col.AddTriageFastPath(time.Since(t0))
	}
}

// confirm classifies one quick-check survivor and tallies the verdict,
// attributed to the cheapest rung that proves it. Callers guarantee the
// pair already passed the lockset quick check (disjoint locksets,
// MHB-concurrent) — the lockset half of the SHB confirmation condition —
// so only the order checks remain. The SHB rung is O(1) per pair
// (FastTrack-style epochs against full clocks); the witness-backed rungs
// scan the pair's trace span once.
func (t *triage) confirm(cop race.COP) bool {
	col := t.d.opt.Telemetry
	if syncp.ConfirmSHB(t.shb, cop.A, cop.B) {
		col.CountTriageConfirmed(race.TierSHB)
		return true
	}
	if t.lv >= triageWCP {
		t.witnessState()
		if t.sidx.Check(cop.A, cop.B) {
			if !t.wrel.Ordered(cop.A, cop.B) {
				col.CountTriageConfirmed(race.TierWCP)
				return true
			}
			if t.lv >= triageSyncP {
				col.CountTriageConfirmed(race.TierSyncP)
				return true
			}
		}
	}
	if t.lv >= triageCP {
		if t.rel == nil {
			var t0 time.Time
			if col.Enabled() {
				t0 = time.Now()
			}
			t.rel = cp.ComputeWith(t.w, t.shb)
			if col.Enabled() {
				col.AddTriageFastPath(time.Since(t0))
			}
		}
		if !t.rel.Ordered(cop.A, cop.B) {
			col.CountTriageConfirmed(race.TierCP)
			return true
		}
	}
	col.CountTriageDispatched()
	return false
}

// release returns the ladder's clock storage to the shared slab pool once
// classification for the window is complete.
func (t *triage) release() {
	if t.rel != nil {
		t.rel.Release()
	}
	if t.sr != nil {
		t.sr.Release() // the witness index and WCP gate borrow these clocks
	}
	t.shb.Release()
}
