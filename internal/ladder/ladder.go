// Package ladder is the confirmation ladder: the sound rungs that prove a
// conflicting pair races without an SMT query, in their one order (the
// detection-side counterpart of the paper's Table 1 inclusion chain
// HB ⊆ CP ⊆ RV, refined with the linear-time sound orders of the
// follow-up literature). A pair climbs until some rung confirms it:
//
//   - shb: the pair is concurrent under schedulable happens-before (SHB:
//     full HB plus a reads-from edge from every read's justifying write —
//     hb.SHBClocks), or is a write–read pair ordered only by its own
//     reads-from edge (the pre-join check, hb.RFRaceable). Together with
//     disjoint locksets this soundly proves the SMT query satisfiable.
//   - wcp: SHB cannot confirm the pair, but it is unordered by the
//     weak-causally-precedes gate (internal/wcp) and the sync-preserving
//     witness check (internal/syncp) constructs an explicit
//     reads-from-preserving witness. The witness carries the soundness;
//     the gate attributes the confirmation to the cheapest plausible rung
//     of the literature's hierarchy.
//   - syncp: the WCP gate orders the pair, but the witness check still
//     proves the race. This is the strongest witness-backed rung and the
//     default ladder top.
//   - cp (opt-in): pairs no witness-backed rung confirms are checked
//     against the causally-precedes relation composed with SHB;
//     concurrent pairs are confirmed. Unlike the rungs above, this rung
//     rests on the CP soundness theorem rather than an explicit witness.
//
// Why SHB and not bare HB for the first rung: HB concurrency alone is NOT
// sufficient under maximal-causality semantics. A non-volatile
// write→read value flow carries no HB edge, yet the read may guard (via a
// branch) one of the racing accesses, forcing an order HB never sees —
// the pair is HB-concurrent but the SMT query is UNSAT. The reads-from
// edges close exactly that hole; the witness-backed rungs inherit the
// same discipline by building on the SR order (hb.SRClocks), which keeps
// every reads-from edge.
//
// Every caller passes pairs that already have disjoint locksets and are
// MHB-concurrent (the lockset quick check), the lockset half of each
// rung's confirmation condition; the ladder checks only the orders.
package ladder

import (
	"fmt"

	"repro/internal/cp"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/internal/vc"
	"repro/internal/wcp"
	"repro/trace"
)

// Level is a ladder height: the highest rung allowed to confirm a pair.
// Levels are ordered by strength; Off confirms nothing.
type Level int

const (
	Off Level = iota
	SHB
	WCP
	SyncP
	CP
)

// names holds each level's name; a rung's name is also the provenance
// tier (race.Tier*) of the pairs it confirms.
var names = [...]string{"off", race.TierSHB, race.TierWCP, race.TierSyncP, race.TierCP}

// String returns the level's name, as ParseLevel accepts it.
func (l Level) String() string { return names[l] }

// ParseLevel parses a level name: off, shb, wcp, syncp or cp, with the
// empty string meaning the default, syncp. An unknown name yields an
// error together with the default, for callers that fall back to it.
func ParseLevel(s string) (Level, error) {
	if s == "" {
		return SyncP, nil
	}
	for l, n := range names {
		if n == s {
			return Level(l), nil
		}
	}
	return SyncP, fmt.Errorf("%q; want off, shb, wcp, syncp or cp (empty for the default)", s)
}

// Ladder answers Tier queries for one (windowed) trace. Its state is
// built lazily, at most once: the SHB clocks on the first query; the SR
// clocks, witness index and WCP gate when some pair reaches the
// witness-backed rungs; the CP relation when some pair reaches the last
// rung. All clock state lives on the vc slab pool and is returned by
// Release. A Ladder is not safe for concurrent use (the witness index
// reuses scratch space across queries).
type Ladder struct {
	w    *trace.Trace
	shb  *hb.EventClocks
	sr   *hb.EventClocks
	sidx *syncp.Index  // borrows sr
	wrel *wcp.Relation // borrows sr
	rel  *cp.Relation
}

// New returns the ladder of window w; it computes nothing yet.
func New(w *trace.Trace) *Ladder { return &Ladder{w: w} }

// Tier returns the rung that confirms the COP (a, b) — the cheapest one
// that proves it — when that rung's level is at most top, and "" when no
// rung up to top confirms the pair. Tier(a, b, top) therefore equals
// Tier(a, b, CP) whenever that tier ranks at most top, so which rung
// fires never depends on how high a run lets the ladder go. The SHB rung
// is O(1) per pair (FastTrack-style epochs against full clocks); the
// witness-backed rungs scan the pair's trace span once.
func (l *Ladder) Tier(a, b int, top Level) string {
	if top < SHB {
		return ""
	}
	if l.shb == nil {
		l.shb = hb.SHBClocks(l.w)
	}
	if syncp.ConfirmSHB(l.shb, a, b) {
		return race.TierSHB
	}
	if top < WCP {
		return ""
	}
	if l.sr == nil {
		l.sr = hb.SRClocks(l.w)
		l.sidx = syncp.NewIndex(l.w, l.sr)
		l.wrel = wcp.ComputeWith(l.w, l.sr)
	}
	if l.sidx.Check(a, b) {
		if !l.wrel.Ordered(a, b) {
			return race.TierWCP
		}
		if top < SyncP {
			return ""
		}
		return race.TierSyncP
	}
	if top < CP {
		return ""
	}
	if l.rel == nil {
		l.rel = cp.ComputeWith(l.w, l.shb)
	}
	if !l.rel.Ordered(a, b) {
		return race.TierCP
	}
	return ""
}

// Release returns the ladder's clock storage to the shared slab pool.
// The ladder must not be queried afterwards.
func (l *Ladder) Release() {
	if l.rel != nil {
		l.rel.Release()
	}
	if l.sr != nil {
		l.sr.Release() // the witness index and WCP gate borrow these clocks
	}
	if l.shb != nil {
		l.shb.Release()
	}
}

// Detect is the standalone ladder detector: it reports every COP of tr
// that passes the lockset quick check and that some rung up to top
// confirms, one per signature, stamped with the confirming rung. By
// construction its race set grows with top and stays inside the maximal
// detector's — the inclusion chain the oracle tests enforce. windowSize
// splits the trace into fixed-size windows; ≤ 0 analyses the whole trace
// at once.
func Detect(tr *trace.Trace, windowSize int, top Level) race.Result {
	return race.Scan(tr, windowSize, func(w *trace.Trace) (func(a, b int) string, func()) {
		mhb := vc.ComputeMHB(w)
		sets := lockset.ComputeWith(w, mhb)
		l := New(w)
		tier := func(a, b int) string {
			if !sets.Pass(a, b) {
				return ""
			}
			return l.Tier(a, b, top)
		}
		return tier, func() {
			l.Release()
			mhb.Release()
		}
	})
}
