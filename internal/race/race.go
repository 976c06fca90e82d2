// Package race defines the vocabulary shared by all detectors in this
// repository: conflicting operation pairs (COPs, Definition 3 of the
// paper), race signatures (the static location pairs used for
// deduplication, Section 4), detection results, and the windowing driver
// every technique uses on long traces.
package race

import (
	"fmt"
	"sort"
	"time"

	"repro/trace"
)

// COP is a conflicting operation pair: indices A < B of two events in one
// trace that access the same location from different threads, at least one
// writing (Definition 3).
type COP struct {
	A, B int
}

// Signature is the static identity of a race: the unordered pair of program
// locations of its two accesses. The paper prunes all COPs sharing a
// signature once one of them is proven to race.
type Signature struct {
	First, Second trace.Loc // First ≤ Second
}

// SigOf returns the signature of the COP (a, b) in tr.
func SigOf(tr *trace.Trace, a, b int) Signature {
	l1, l2 := tr.Event(a).Loc, tr.Event(b).Loc
	if l2 < l1 {
		l1, l2 = l2, l1
	}
	return Signature{First: l1, Second: l2}
}

// Confirming-tier names used in Provenance.Tier, ordered by the triage
// ladder SHB → WCP → SyncP → CP → SMT (the detection-side refinement of
// the paper's Table 1 inclusion chain HB ⊆ CP ⊆ RV): the named tier is
// the cheapest sound argument that proves the race, independent of which
// execution path happened to fire for it in a given run (that
// independence is what makes provenance bit-identical across triage
// modes).
const (
	// TierSHB: the pair is concurrent under schedulable happens-before
	// (SHB clocks, including the reads-from pre-join check), which —
	// together with disjoint locksets — soundly proves the SMT query
	// satisfiable (see internal/core/triage.go).
	TierSHB = "shb"
	// TierWCP: SHB cannot confirm the pair, but it is unordered by the
	// weak-causally-precedes gate (internal/wcp) and the sync-preserving
	// witness check (internal/syncp) proves the race with an explicit
	// reads-from-preserving reordering.
	TierWCP = "wcp"
	// TierSyncP: the WCP gate orders the pair, but the sync-preserving
	// witness check still proves the race.
	TierSyncP = "syncp"
	// TierCP: no witness-backed tier confirms the pair, but it is
	// unordered by the causally-precedes relation composed with SHB.
	TierCP = "cp"
	// TierSMT: only the full DPLL(T) solve proves the race; solver query
	// stats are recorded alongside.
	TierSMT = "smt"
	// TierHB marks races reported by the happens-before baseline
	// detector (Algorithm HappensBefore).
	TierHB = "hb"
	// TierQuickCheck marks reports of the unsound hybrid prefilter
	// (Algorithm QuickCheck) — potential races, not confirmed ones.
	TierQuickCheck = "quick-check"
)

// Provenance records why one reported race is trusted: the confirming
// tier, the analysis window that produced it, the solver's query stats
// when the SMT tier ran, and whether the race was replayed from a
// durable journal rather than re-derived.
//
// Everything except Replayed is deterministic — bit-identical across
// Parallelism, PairParallelism, triage modes and resume (test-enforced
// by the triage identity matrix). Replayed is operational metadata: a
// resumed run legitimately differs from a clean one there, exactly like
// the telemetry Journal block excluded by Metrics.NonTiming.
type Provenance struct {
	// Tier is the confirming tier (one of the Tier* constants).
	Tier string `json:"tier"`
	// Window is the analysis window (whole-trace index) whose solve — or
	// replay — produced the race.
	Window int `json:"window"`
	// Decisions/Propagations/Conflicts are the CDCL deltas of the solver
	// query that proved the race; set only when Tier is TierSMT (every
	// group is solved from the same checkpointed base state, so the
	// deltas are deterministic across worker assignment).
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	// WitnessLen is the length of the reconstructed witness schedule
	// (0 when no witness was requested).
	WitnessLen int `json:"witness_len,omitempty"`
	// Replayed marks a race merged from a journaled window outcome on
	// resume instead of being re-derived this run.
	Replayed bool `json:"replayed,omitempty"`
	// Degraded marks a race reported by a window analysed in degraded
	// mode (streaming daemon under sustained pressure): the SMT tier was
	// shed and the race rests solely on the sound vector-clock triage
	// confirmation. The verdict is still sound — degradation can only
	// miss races, never invent them — but the window it came from is not
	// maximal. Always false in batch runs.
	Degraded bool `json:"degraded,omitempty"`
}

// Race is one detected race, with an optional witness schedule.
type Race struct {
	COP
	Sig Signature
	// Witness, when non-nil, lists event indices of a consistent reordered
	// prefix ending with the two racing accesses adjacent — the trace τ₁ab
	// of Definition 4. Only the SMT-based detectors produce witnesses.
	Witness []int
	// Prov records why the race is trusted (confirming tier, window,
	// solver stats, replay origin). The core detector stamps it on every
	// race; the public rvpredict layer fills in the baseline detectors'
	// tiers.
	Prov Provenance
}

// Describe renders the race with location names from tr.
func (r Race) Describe(tr *trace.Trace) string {
	a, b := tr.Event(r.A), tr.Event(r.B)
	return DescribePair(tr.LocName(a.Loc), tr.LocName(b.Loc), a, b)
}

// DescribePair renders a race between events a and b, located at locA
// and locB: the one race description format.
func DescribePair(locA, locB string, a, b trace.Event) string {
	return fmt.Sprintf("race(%s, %s) between %v and %v", locA, locB, a, b)
}

// Result is the outcome of running one detector on one trace.
type Result struct {
	// Races holds one entry per distinct signature, in detection order.
	Races []Race
	// COPsChecked counts candidate pairs examined (after any quick-check
	// filtering and signature deduplication).
	COPsChecked int
	// Windows is the number of windows of the trace's layout the run
	// owns — all of them, or a sharded run's share — including any a
	// cancellation or budget cut kept it from reaching.
	Windows int
	// Elapsed is the total detection wall-clock time.
	Elapsed time.Duration
	// SolverAborts counts per-COP solver timeouts/budget exhaustions
	// (SMT-based detectors only); aborted COPs are conservatively treated
	// as non-races, like the paper's one-minute timeout. Pairs rescued by
	// the two-pass retry scheduler are not counted — only finally
	// abandoned ones.
	SolverAborts int
	// PairsRetried counts pairs whose cheap first-pass solver budget
	// expired and that were re-solved with escalated budgets by the
	// two-pass scheduler (core detector only).
	PairsRetried int
	// Cancelled reports the run was interrupted by context cancellation:
	// the results cover only the windows (and pairs) completed before the
	// cancel and are sound but not maximal.
	Cancelled bool
	// BudgetExhausted reports the run's global wall-clock budget expired
	// before every candidate was solved; skipped candidates are counted
	// in telemetry and the results are sound but not maximal.
	BudgetExhausted bool
	// Failures lists windows whose analysis panicked and was isolated;
	// every other window's results are intact. A non-empty list means the
	// run is sound but not maximal (the failed windows' races are
	// unknown).
	Failures []WindowFailure
}

// WindowFailure records one analysis window whose worker panicked. The
// panic was recovered, the window's results were dropped (all-or-nothing,
// so the drop is deterministic even with parallel pair workers), and the
// run continued with every other window intact — the failure is surfaced
// here (and in telemetry) so the coverage gap is never silent.
type WindowFailure struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the input trace; Events its length.
	Window int `json:"window"`
	Offset int `json:"offset"`
	Events int `json:"events"`
	// PanicValue renders the recovered panic value.
	PanicValue string `json:"panic"`
	// Stack is the goroutine stack at the recovery point, truncated.
	Stack string `json:"stack,omitempty"`
}

// WindowOutcome is the complete, replayable record of one analysis
// window's contribution to a Result — the checkpoint unit of the durable
// window journal (internal/journal). Windows are analysed independently
// and merged deterministically, so replaying a journaled outcome into
// the merge reproduces the window's effect without re-entering the
// solver.
//
// Races (including witness indices) and Failures are in whole-trace
// coordinates.
type WindowOutcome struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the whole trace; Events its length.
	Window int
	Offset int
	Events int

	// Candidates is the window's enumerated COP count; Solved its solver
	// query count; the remaining counters are the window's deltas to the
	// corresponding Result fields.
	Candidates   int
	Solved       int
	COPsChecked  int
	SolverAborts int
	PairsRetried int
	// ElapsedNS is the window's original analysis wall-clock time
	// (telemetry only; replay reports it unchanged).
	ElapsedNS int64

	// Races are the window's new races, in detection order.
	Races []Race
	// Failures is non-empty when the window's worker panicked and was
	// isolated: the outcome then records the durable fact that the
	// window contributed nothing, so a resumed run reproduces the
	// faulted run's report exactly instead of silently retrying.
	Failures []WindowFailure

	// Degraded marks a window analysed in degraded mode (SMT tier shed
	// under pressure): every reported race is triage-confirmed and sound,
	// but PairsShed candidate instances were never solved, so the window
	// is not maximal. Replaying a degraded outcome reproduces exactly the
	// degraded verdict — resume never silently upgrades it.
	Degraded bool
	// PairsShed counts the candidate COP instances the degraded window
	// dropped without a verdict.
	PairsShed int

	// Cancelled and BudgetExhausted mark a partial outcome: the window was
	// cut short by cancellation or the global budget. A partial outcome
	// still merges into the (interrupted) Result, but it is not a final
	// verdict and is never journaled, so both are false on every durable
	// record.
	Cancelled       bool
	BudgetExhausted bool
}

// Count returns the number of distinct races found.
func (r Result) Count() int { return len(r.Races) }

// Detector is the common interface of the four techniques (RV, Said, CP,
// HB), used by the evaluation harness.
type Detector interface {
	Name() string
	Detect(tr *trace.Trace) Result
}

// EnumerateCOPs returns all conflicting operation pairs of tr, grouped by
// location and ordered deterministically (by A, then B). Accesses to
// volatile locations are skipped: conflicting volatile accesses are not
// data races (Section 4).
func EnumerateCOPs(tr *trace.Trace) []COP {
	byAddr := make(map[trace.Addr][]int)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		if e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			byAddr[e.Addr] = append(byAddr[e.Addr], i)
		}
	}
	addrs := make([]trace.Addr, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var out []COP
	for _, a := range addrs {
		idxs := byAddr[a]
		for i := 0; i < len(idxs); i++ {
			ei := tr.Event(idxs[i])
			for j := i + 1; j < len(idxs); j++ {
				ej := tr.Event(idxs[j])
				if ei.ConflictsWith(ej) {
					out = append(out, COP{A: idxs[i], B: idxs[j]})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Windows invokes f on consecutive fixed-size windows of tr (the strategy
// of Section 4; the last window may be shorter). offset is the index of the
// window's first event in tr, letting callers report global indices.
// A size ≤ 0 means a single window covering the whole trace.
//
// Each window is analysed as an execution in its own right whose initial
// memory state is the state observed at the window boundary: the last
// written value of every location in the preceding prefix is installed as
// the window's initial value. Without this, any read whose writer fell in
// an earlier window would be unsatisfiable under the read-consistency
// encodings, silently suppressing races near window boundaries.
func Windows(tr *trace.Trace, size int, f func(w *trace.Trace, offset int)) int {
	ws := WindowSlices(tr, size)
	for _, w := range ws {
		f(w.Trace, w.Offset)
	}
	return len(ws)
}

// WindowSlice is one analysis window with its offset in the parent trace.
type WindowSlice struct {
	Trace  *trace.Trace
	Offset int
}

// WindowSlices materialises the windows of tr (see Windows), each with the
// carried-in initial memory state installed. The slices are independent,
// so callers may analyse them concurrently.
func WindowSlices(tr *trace.Trace, size int) []WindowSlice {
	if size <= 0 || tr.Len() <= size {
		return []WindowSlice{{Trace: tr, Offset: 0}}
	}
	carried := make(map[trace.Addr]int64)
	var out []WindowSlice
	for lo := 0; lo < tr.Len(); lo += size {
		hi := lo + size
		if hi > tr.Len() {
			hi = tr.Len()
		}
		w := tr.Slice(lo, hi)
		for a, v := range carried {
			w.SetInitial(a, v)
		}
		out = append(out, WindowSlice{Trace: w, Offset: lo})
		for i := lo; i < hi; i++ {
			if e := tr.Event(i); e.Op == trace.OpWrite {
				carried[e.Addr] = e.Value
			}
		}
	}
	return out
}
