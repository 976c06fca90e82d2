// Package core implements the paper's contribution: maximal sound
// predictive race detection with control flow abstraction (Section 3).
//
// For each conflicting operation pair (a, b) surviving the hybrid quick
// check, the detector builds the formula
//
//	Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race,   Φ_race = (O_a = O_b) ∧ ⟨cf⟩(a) ∧ ⟨cf⟩(b)
//
// over per-event order variables and decides it with the DPLL(T) solver in
// internal/smt. ⟨cf⟩(e) reduces the data-abstract feasibility of a race
// access to the concrete feasibility of the last branch event of every
// thread that must happen before e (the set B_e); cf of a branch or write
// conjoins cf of all earlier reads of its thread (local determinism,
// Section 2.3); and cf of a read is the disjunction over candidate writes
// of the same value, each feasible, ordered before the read, and not
// interfered with — built by internal/encode.
//
// The cf definitions are mutually recursive and may be cyclic across
// threads; the encoder allocates one definition literal per event and ties
// the knot with references (see smt.Ref). Cyclic justifications are
// automatically excluded: any read-from cycle alternates O_w < O_r atoms
// with program-order atoms O_r < O_w' and is therefore contradictory in
// the order theory.
//
// Satisfiable ⇒ the COP is a real race, with the model yielding a witness
// schedule (Theorem 3, soundness); unsatisfiable ⇒ no sound detector can
// report it from this trace (Theorem 3, maximality).
//
// The detector is fully instrumented (see internal/telemetry): with a
// collector and/or tracer in Options it reports phase timings, solver
// counters, candidate-funnel tallies and per-window records. Telemetry
// never influences detection — the reported race set is identical with it
// on or off — and the disabled path performs no per-pair clock reads.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encode"
	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Options configures the detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows (Section 4);
	// ≤ 0 analyses the whole trace at once. The paper's default is 10000.
	WindowSize int
	// SolveTimeout bounds each COP's solver run (the paper defaults to one
	// minute). The convention, unified across core, said, deadlock and
	// atomicity: ≤ 0 means no wall-clock bound. (rvpredict.Options maps
	// its zero value to the paper's 60 s default, and negatives to 0,
	// before reaching this layer.)
	SolveTimeout time.Duration
	// FirstPassTimeout, when > 0, enables the adaptive two-pass
	// scheduler: every pair is first solved under this cheap budget, and
	// pairs that time out are deferred and retried afterwards with
	// budgets escalating geometrically up to SolveTimeout (and bounded by
	// the remaining GlobalBudget). Easy pairs never starve behind hard
	// ones, and a pair the single-pass policy would have abandoned gets a
	// second chance. It has no effect when ≥ SolveTimeout > 0.
	FirstPassTimeout time.Duration
	// GlobalBudget, when > 0, bounds the whole run's wall clock. Once
	// exhausted, remaining candidates are skipped (counted in telemetry
	// as budget_exhausted) and the result is flagged BudgetExhausted;
	// completed windows' results are kept.
	GlobalBudget time.Duration
	// MaxConflicts bounds each COP's CDCL search; 0 means unbounded.
	MaxConflicts int64
	// Witness requests witness schedules on detected races.
	Witness bool
	// NoQuickCheck disables the hybrid lockset/weak-HB prefilter, sending
	// every COP to the solver (ablation knob; the result set is unchanged
	// because quick-check failures are unsatisfiable encodings).
	NoQuickCheck bool
	// NoPruning disables the ≺-based constraint reductions of Section 3.2
	// (ablation knob; results are unchanged, formulas grow).
	NoPruning bool
	// NoTriage disables the sound vector-clock triage tier that runs
	// before the pair scheduler (triage.go): quick-check survivors that
	// are concurrent under schedulable happens-before (HB plus reads-from
	// edges) are confirmed as races without a solver query. The race
	// result is bit-identical with triage on or off — the fast path fires
	// only where the SMT query is guaranteed satisfiable — absent real
	// wall-clock solver timeouts, which are inherently timing-dependent.
	// Triage is also inactive when NoQuickCheck is set (it shares the
	// quick check's locksets and MHB pass).
	NoTriage bool
	// TriageLevel selects how far down the sound triage ladder a
	// quick-check survivor may be confirmed before SMT dispatch:
	//
	//	"shb"   — SHB epoch/clock tier only (PR 4's behaviour)
	//	"wcp"   — plus the weak-causally-precedes gate backed by the
	//	          sync-preserving witness check (internal/wcp)
	//	"syncp" — plus the sync-preserving witness check on its own
	//	          (internal/syncp); the default ("" means "syncp")
	//	"cp"    — plus the opt-in causally-precedes tier: pairs no
	//	          witness-backed tier confirms are checked against the CP
	//	          relation composed with SHB (the paper's CP ⊆ RV
	//	          inclusion chain). Off by default — the witness-backed
	//	          tiers are provably exact per pair, while the CP tier
	//	          inherits the CP soundness theorem's assumptions.
	//
	// Every level yields a bit-identical race.Result — the tiers only
	// decide which pairs skip the solver — so the level is a pure
	// performance knob, excluded from the journal fingerprint.
	// Unrecognised values fall back to the default. Ignored when
	// NoTriage is set.
	TriageLevel string
	// MergeRaceVars uses the paper's variable-merging race encoding
	// (O_a := O_b) instead of the default explicit adjacency
	// |O_a − O_b| = 1 (ablation knob; merging degenerates the atoms
	// between the two racing events, see encode.Encoder).
	MergeRaceVars bool
	// Parallelism > 1 analyses windows concurrently with that many
	// workers. The reported signature set always equals the sequential
	// run's; which COP instance represents a signature (and COPsChecked)
	// may vary between runs, because workers share signature verdicts to
	// skip redundant solving.
	Parallelism int
	// PairParallelism > 1 solves the candidate pairs *inside* each window
	// concurrently with that many workers, each owning a replica of the
	// window encoding fed from a shared queue of signature groups. Unlike
	// Parallelism, pair-level parallelism is fully deterministic: the
	// prefilters and signature dedup run before dispatch, every group is
	// solved from the same checkpointed base encoding, and results merge
	// in canonical order, so the race.Result (races, witnesses, counters)
	// is bit-identical to the PairParallelism ≤ 1 run — absent real
	// wall-clock solver timeouts, which are inherently timing-dependent.
	// The total number of concurrent solving workers across both levels is
	// bounded by max(Parallelism, PairParallelism), and the workers per
	// window are additionally capped at GOMAXPROCS — pair solving is
	// CPU-bound, so a worker beyond the core count could never repay its
	// replica's construction cost.
	PairParallelism int
	// BranchDepWindow, when > 0, assumes each branch and write depends
	// only on the last K reads of its thread instead of its entire read
	// history — the weaker-axiom variant sketched in the paper's
	// Section 2.3 Discussion ("a preceding window of events for each write
	// and branch in which the read values matter"). It is sound only for
	// programs whose branch conditions genuinely use bounded read history;
	// with it the detector may report additional races that the
	// conservative full-history axioms cannot justify. 0 (default) keeps
	// the paper's conservative semantics.
	BranchDepWindow int
	// Telemetry, when non-nil, accumulates phase timings, solver counters,
	// outcome tallies and per-window records. The collector is safe to
	// share across Parallelism workers, and enabling it changes no
	// detection result.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, receives live progress callbacks (window
	// lifecycle, per-COP verdicts). With Parallelism > 1 the callbacks
	// arrive concurrently; implementations must serialise internally.
	Tracer telemetry.Tracer
	// FaultInjector, when non-nil, injects deterministic faults at the
	// pipeline's instrumentation points (window start, per solve
	// attempt). Test-only: it exists to drive the panic-isolation and
	// retry recovery paths reproducibly; production runs leave it nil.
	FaultInjector *faultinject.Injector
	// OnWindowDone, when non-nil, receives the durable outcome of every
	// window whose analysis reached a final verdict: clean completions
	// and isolated panics alike, but not windows cut short by
	// cancellation or the global budget (a partial outcome must never be
	// replayed as the window's final one). Outcomes are in whole-trace
	// coordinates. With Parallelism > 1 the hook is invoked concurrently
	// from window workers; implementations must serialise internally. It
	// is the attachment point of the durable window journal
	// (internal/journal).
	OnWindowDone func(race.WindowOutcome)
	// ResumeWindows maps window index → previously journaled outcome. A
	// window present in the map is not analysed: its outcome is replayed
	// into the canonical merge exactly as if the window had just
	// completed — races (and witnesses), failures, counter deltas,
	// signature verdicts and the telemetry window record — and tallied
	// as windows_replayed. Outcomes must come from a run over the same
	// trace with result-affecting options unchanged (the journal's
	// header fingerprint enforces this).
	ResumeWindows map[int]race.WindowOutcome
}

// Detector is the paper's maximal race detector ("RV" in Table 1).
type Detector struct {
	opt Options

	// budget is the worker budget, capacity
	// max(Parallelism, PairParallelism, 1): window coordinators
	// block-acquire a slot, extra pair workers spawn only when a slot is
	// free (see solveGroups).
	budget chan struct{}
}

// New returns a detector with the given options.
func New(opt Options) *Detector {
	return &Detector{opt: opt, budget: make(chan struct{}, max(opt.Parallelism, opt.PairParallelism, 1))}
}

// Name implements race.Detector.
func (*Detector) Name() string { return "RV" }

// Detect runs maximal race detection over tr.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	return d.DetectContext(context.Background(), tr)
}

// DetectContext runs maximal race detection over tr under ctx: the
// window loop (Analyse) over race.WindowSlices, with signature state
// carried across windows. The context is polled between windows, between
// pairs, and — via the cooperative cancel hook — inside the CDCL
// conflict loop, so a run can be stopped mid-solve. The partial Result
// is always well-formed: it covers every window completed before the
// cancel and is flagged Cancelled. A nil ctx is treated as
// context.Background().
func (d *Detector) DetectContext(ctx context.Context, tr *trace.Trace) race.Result {
	slices := race.WindowSlices(tr, d.opt.WindowSize)
	res, _ := d.Analyse(ctx, func(yield func(w *trace.Trace, widx, offset int) error) error {
		for i, s := range slices {
			if err := yield(s.Trace, i, s.Offset); err != nil {
				return err
			}
		}
		return nil
	}, true)
	res.Windows = len(slices)
	return res
}

// WindowSource calls yield once per analysis window, in window order,
// with the window's trace (window-local indices), its index and the
// whole-trace index of its first event. A non-nil error from yield stops
// the iteration and is returned verbatim.
type WindowSource func(yield func(w *trace.Trace, widx, offset int) error) error

// errStop ends a window iteration once a window has been cut.
var errStop = errors.New("core: window iteration stopped")

// Analyse is the one window loop behind every batch driver: it runs each
// window the source yields through AnalyseWindow and merges the outcomes
// in window order. carry selects the skip hint: with carry, a window
// skips the signatures already reported — the merge's seen set when
// sequential, a best-effort set shared by the workers under Parallelism —
// and without it every window is analysed on its own content alone. The
// first cut window ends the iteration. Under Parallelism > 1 windows run
// concurrently: yield takes a worker slot before it starts a window, so
// at most Parallelism windows are live and the source never reads far
// ahead. The result's Windows is the caller's to fill in; the error is
// the source's.
func (d *Detector) Analyse(ctx context.Context, windows WindowSource, carry bool) (race.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var deadline time.Time
	if d.opt.GlobalBudget > 0 {
		deadline = start.Add(d.opt.GlobalBudget)
	}
	m := d.NewMerge()
	var err error
	if d.opt.Parallelism > 1 {
		err = d.analyseParallel(ctx, deadline, windows, m, carry)
	} else {
		var skip func(race.Signature) bool
		if carry {
			skip = m.Seen
		}
		err = windows(func(w *trace.Trace, widx, offset int) error {
			out, status := d.AnalyseWindow(ctx, deadline, w, widx, offset, skip, false)
			m.Add(out, status)
			if status == WindowCut {
				return errStop
			}
			return nil
		})
	}
	if err == errStop {
		err = nil
	}
	res := m.Result()
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// analyseParallel is Analyse on Parallelism workers. With carry, once
// any worker reports a signature, later-starting windows skip its
// instances: this only suppresses redundant solver calls — the merge
// still deduplicates deterministically — so the race set is unchanged
// while COPsChecked may vary run to run.
func (d *Detector) analyseParallel(ctx context.Context, deadline time.Time, windows WindowSource, m *Merge, carry bool) error {
	type result struct {
		out    race.WindowOutcome
		status WindowStatus
	}
	var (
		results []*result // in window order
		found   sync.Map
		cut     atomic.Bool
		wg      sync.WaitGroup
		skip    func(race.Signature) bool
	)
	if carry {
		skip = func(sig race.Signature) bool {
			_, ok := found.Load(sig)
			return ok
		}
	}
	sem := make(chan struct{}, d.opt.Parallelism)
	err := windows(func(w *trace.Trace, widx, offset int) error {
		sem <- struct{}{}
		if cut.Load() {
			<-sem
			return errStop
		}
		r := new(result)
		results = append(results, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r.out, r.status = d.AnalyseWindow(ctx, deadline, w, widx, offset, skip, false)
			for _, rc := range r.out.Races {
				found.Store(rc.Sig, true)
			}
			if r.status == WindowCut {
				cut.Store(true)
			}
		}()
		return nil
	})
	wg.Wait()
	for _, r := range results {
		m.Add(r.out, r.status)
	}
	return err
}

// Retry-policy constants of the two-pass scheduler: each retry multiplies
// the previous budget by retryEscalation, and a pair is abandoned after
// maxRetryAttempts escalations (a backstop for unbounded SolveTimeout).
const (
	retryEscalation  = 4
	maxRetryAttempts = 6
)

// twoPass reports whether the adaptive two-pass scheduler is active:
// FirstPassTimeout set and actually cheaper than the final budget.
func (d *Detector) twoPass() bool {
	fp := d.opt.FirstPassTimeout
	if fp <= 0 {
		return false
	}
	return d.opt.SolveTimeout <= 0 || fp < d.opt.SolveTimeout
}

// passOneTimeout is the per-pair budget of the first solving pass.
func (d *Detector) passOneTimeout() time.Duration {
	if d.twoPass() {
		return d.opt.FirstPassTimeout
	}
	if d.opt.SolveTimeout > 0 {
		return d.opt.SolveTimeout
	}
	return 0
}

// solveDeadline combines a per-attempt timeout with the run's global
// deadline; the zero time means unbounded.
func solveDeadline(timeout time.Duration, global time.Time) time.Time {
	var dl time.Time
	if timeout > 0 {
		dl = time.Now().Add(timeout)
	}
	if !global.IsZero() && (dl.IsZero() || global.Before(dl)) {
		dl = global
	}
	return dl
}

// fireFault crosses a fault-injection point, scoped and unscoped (see
// faultinject.Scoped): sequential tests script the global hit order,
// parallel tests target one window's deterministic local order.
func (d *Detector) fireFault(p faultinject.Point, widx int) faultinject.Fault {
	in := d.opt.FaultInjector
	if in == nil {
		return faultinject.FaultNone
	}
	if f := in.MaybePanic(p); f != faultinject.FaultNone {
		return f
	}
	return in.MaybePanic(faultinject.Scoped(p, widx))
}

// windowFailure builds the record of one isolated window-worker panic.
func windowFailure(win, offset, events int, r any) race.WindowFailure {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return race.WindowFailure{
		Window:     win,
		Offset:     offset,
		Events:     events,
		PanicValue: fmt.Sprint(r),
		Stack:      string(buf),
	}
}

// WindowStatus classifies how AnalyseWindow disposed of one window.
type WindowStatus int

const (
	// WindowAnalyzed: the window ran to a final verdict (clean completion
	// or an isolated panic failure); its outcome is durable and was
	// delivered to OnWindowDone.
	WindowAnalyzed WindowStatus = iota
	// WindowReplayed: the window's journaled outcome from ResumeWindows
	// is returned without re-analysis (and without re-firing the hook);
	// Merge emits its replay telemetry.
	WindowReplayed
	// WindowCut: the window was cut short by cancellation or the global
	// budget; the partial outcome is not a final verdict and must not be
	// journaled or replayed.
	WindowCut
)

// AnalyseWindow runs one window to a verdict: the single per-window entry
// point every driver loops over. w holds the window's events in
// window-local indices and offset is the whole-trace index of its first
// event; the outcome's races, witnesses and failures are in whole-trace
// coordinates. deadline (the zero time means unbounded) and ctx can cut
// the window short.
//
// skip, when non-nil, reports signatures of races merged from earlier
// windows: their instances are not analysed. Analyse passes Merge.Seen
// or its workers' shared set when it carries signature state, and nil
// otherwise, as does the fleet worker, so a window's verdict depends
// only on its own content and any assignment of windows to processes
// merges to the same report; the stream session passes Merge.Seen. skip
// must be safe for concurrent calls when PairParallelism > 1.
//
// With degraded set, the SMT tier is shed: only pairs the sound triage
// ladder already confirmed are reported (flagged Degraded in provenance
// and in the outcome), unconfirmed pairs are shed and counted in
// PairsShed, and no solver query is issued — the verdict stays sound but
// is no longer maximal.
func (d *Detector) AnalyseWindow(ctx context.Context, deadline time.Time, w *trace.Trace, widx, offset int,
	skip func(race.Signature) bool, degraded bool) (out race.WindowOutcome, status WindowStatus) {
	// Resume: a journaled window's outcome is returned without
	// re-analysis, before the cancellation and budget gates — replay is
	// free and its results are already durable, so even a run
	// interrupted immediately still reflects them.
	if prev, ok := d.opt.ResumeWindows[widx]; ok {
		return prev, WindowReplayed
	}
	out = race.WindowOutcome{Window: widx, Offset: offset, Events: w.Len(), Degraded: degraded}
	if ctx.Err() != nil {
		out.Cancelled = true
		return out, WindowCut
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		out.BudgetExhausted = true
		return out, WindowCut
	}
	col := d.opt.Telemetry
	tracer := d.opt.Tracer
	hook := d.opt.OnWindowDone
	// Panic isolation: an encoder or solver bug in this window — on the
	// coordinator or on any pair worker — is recovered here and recorded
	// as a WindowFailure; the run continues with every other window's
	// results intact. The failed window contributes no results: its
	// races join the outcome only after the scheduler completes, so the
	// drop is all-or-nothing and deterministic. The failure is itself a
	// final, durable verdict — the completion hook records it so a
	// resumed run reproduces this run's report exactly instead of
	// silently retrying the window.
	defer func() {
		if r := recover(); r != nil {
			col.CountWindowFailure()
			out = race.WindowOutcome{
				Window:   widx,
				Offset:   offset,
				Events:   w.Len(),
				Failures: []race.WindowFailure{windowFailure(widx, offset, w.Len(), r)},
			}
			status = WindowAnalyzed
			if hook != nil {
				hook(out)
			}
		}
	}()
	d.fireFault(faultinject.PointWindow, widx)
	// Live gauge + timeline span for the window. The deferred closes run
	// before the panic-isolation recover above (LIFO), so a failed window
	// still leaves the gauge balanced and its span on the timeline.
	col.CountWindowStarted()
	defer col.CountWindowFinished()
	lane := telemetry.WindowLane(widx)
	wspan := col.BeginSpan("window", lane, col.SpanRoot())
	defer wspan.End()
	if tracer != nil {
		tracer.WindowStart(widx, w.Len())
	}
	wstart := time.Now()

	span := col.StartPhase(telemetry.PhaseEnumerate)
	esp := col.BeginSpan("enumerate", lane, wspan.ID())
	cops := race.EnumerateCOPs(w)
	esp.End()
	span.End()
	col.CountEnumerated(len(cops))
	out.Candidates = len(cops)

	// Prefilters and signature grouping run up front; the pair scheduler
	// then solves the groups (in parallel when PairParallelism > 1) and
	// the results join the outcome below in canonical group order, so the
	// window's contribution is deterministic.
	psp := col.BeginSpan("mhb+triage", lane, wspan.ID())
	groups, mhb := d.partition(w, cops, skip)
	psp.End()
	col.CountPairGroups(len(groups))
	// Provenance attribution is lazy: only windows that report a race
	// pay for the attributor's clock passes.
	var att *attributor
	report := func(r race.Race) {
		if att == nil {
			att = newAttributor(w)
		}
		att.stamp(&r, widx, offset)
		out.Races = append(out.Races, r)
	}
	switch {
	case len(groups) > 0 && ctx.Err() == nil && degraded:
		// Graceful degradation: no solver is constructed and no query
		// issued. Each group's first triage-confirmed instance is reported
		// exactly as the fast path would have (same COP, same canonical
		// order, no witness), the rest of the group is shed. Confirmations
		// are sound, so a degraded window never reports a false race — it
		// may only miss SMT-only ones.
		for _, g := range groups {
			reported := false
			for k, cop := range g.cops {
				if reported || g.confirmed == nil || !g.confirmed[k] || (skip != nil && skip(g.sig)) {
					out.PairsShed++
					continue
				}
				reported = true
				out.COPsChecked++
				out.Solved++
				r := race.Race{COP: race.COP{A: cop.A + offset, B: cop.B + offset}, Sig: g.sig}
				r.Prov.Degraded = true
				report(r)
			}
		}
	case len(groups) > 0 && ctx.Err() == nil:
		if mhb == nil {
			// NoQuickCheck runs: partition computed no clocks, but the
			// window encoders still need the MHB pass.
			span = col.StartPhase(telemetry.PhaseMHB)
			msp := col.BeginSpan("mhb", lane, wspan.ID())
			mhb = vc.ComputeMHB(w)
			msp.End()
			span.End()
		}
		wc := &windowCtx{
			ctx: ctx, w: w, mhb: mhb, widx: widx, offset: offset,
			deadline: deadline, cancel: func() bool { return ctx.Err() != nil },
			skip: skip, spanParent: wspan.ID(),
		}
		for _, gr := range d.solveGroups(wc, groups) {
			if gr == nil {
				continue
			}
			out.COPsChecked += gr.solved
			out.Solved += gr.solved
			out.SolverAborts += gr.aborts
			out.PairsRetried += gr.retried
			out.Cancelled = out.Cancelled || gr.cancelled
			out.BudgetExhausted = out.BudgetExhausted || gr.budgetGone
			if gr.isRace {
				report(gr.race)
			}
		}
	}
	if att != nil {
		att.release()
	}
	if mhb != nil {
		// Clean window completion: return the clock slab to the shared
		// pool. The panic path above skips this deliberately — a worker
		// could still alias the slab — and lets the GC reclaim it.
		mhb.Release()
	}
	if ctx.Err() != nil {
		out.Cancelled = true
	}
	status = WindowAnalyzed
	if out.Cancelled || out.BudgetExhausted {
		status = WindowCut
	} else if degraded {
		// Counted per completed degraded window — candidates or not — so
		// the gauge always agrees with Report.DegradedWindows.
		col.CountDegradedWindow()
	}
	elapsed := time.Since(wstart)
	out.ElapsedNS = int64(elapsed)
	col.WindowDone(telemetry.WindowRecord{
		Offset:     offset,
		Events:     w.Len(),
		Candidates: len(cops),
		Solved:     out.Solved,
		Findings:   len(out.Races),
		ElapsedNS:  out.ElapsedNS,
	})
	if tracer != nil {
		tracer.WindowDone(widx, len(out.Races), elapsed)
	}
	if status == WindowAnalyzed && hook != nil {
		hook(out)
	}
	return out, status
}

// Merge folds window outcomes, in window order, into one race.Result —
// the single merge behind every driver: the batch loops, the out-of-core
// reader, shard journals, the streaming session and (through
// MergeShards) the fleet. It sums the counters, deduplicates races by
// signature, earliest window first, and for journal replays emits the
// telemetry and Tracer callbacks a live analysis would have. Windows and
// Elapsed are the driver's to fill in. Not safe for concurrent use.
type Merge struct {
	col    *telemetry.Collector
	tracer telemetry.Tracer
	res    race.Result
	seen   map[race.Signature]bool
}

// NewMerge returns an empty merge reporting to the detector's telemetry
// and tracer.
func (d *Detector) NewMerge() *Merge {
	return &Merge{col: d.opt.Telemetry, tracer: d.opt.Tracer, seen: make(map[race.Signature]bool)}
}

// Seen reports whether a race of signature sig has been merged: the skip
// hint of the sequential drivers.
func (m *Merge) Seen(sig race.Signature) bool { return m.seen[sig] }

// Add merges the next window's outcome and returns the races it
// contributed, Replayed set on those of a journal replay. A WindowCut
// outcome merges its partial races and flags the result interrupted.
func (m *Merge) Add(out race.WindowOutcome, status WindowStatus) []race.Race {
	replayed := status == WindowReplayed
	if replayed && m.tracer != nil {
		m.tracer.WindowStart(out.Window, out.Events)
	}
	res := &m.res
	res.COPsChecked += out.COPsChecked
	res.SolverAborts += out.SolverAborts
	res.PairsRetried += out.PairsRetried
	res.Cancelled = res.Cancelled || out.Cancelled
	res.BudgetExhausted = res.BudgetExhausted || out.BudgetExhausted
	first := len(res.Races)
	for _, r := range out.Races {
		if m.seen[r.Sig] {
			continue
		}
		m.seen[r.Sig] = true
		if replayed {
			// Provenance travels with the journaled race; only the replay
			// origin is this run's own fact.
			r.Prov.Replayed = true
		}
		res.Races = append(res.Races, r)
	}
	res.Failures = append(res.Failures, out.Failures...)
	if replayed {
		for range out.Failures {
			m.col.CountWindowFailure()
		}
		m.col.CountWindowReplayed()
		m.col.WindowDone(telemetry.WindowRecord{
			Offset:     out.Offset,
			Events:     out.Events,
			Candidates: out.Candidates,
			Solved:     out.Solved,
			Findings:   len(out.Races),
			ElapsedNS:  out.ElapsedNS,
		})
		if m.tracer != nil {
			m.tracer.WindowDone(out.Window, len(out.Races), time.Duration(out.ElapsedNS))
		}
	}
	return res.Races[first:]
}

// Result returns the result merged so far.
func (m *Merge) Result() race.Result { return m.res }

// windowSolver is the long-lived solver of one analysis window: Φ_mhb and
// Φ_lock are asserted once, cf(e) definitions are memoised across queries,
// and each COP adds only a guard-conditional race constraint, decided with
// the guard assumed (sat.SolveAssuming). The pair scheduler checkpoints the
// solver after the base encoding (buildReplica) and rolls back between
// signature groups, so every group — on any worker — is solved from the
// identical canonical state.
type windowSolver struct {
	s   *smt.Solver
	enc *encode.Encoder
	cf  *encode.CF
	bad bool // window constraints themselves unsatisfiable

	// ck is the canonical base state (base constraints + warmed cf
	// definitions); dirty tracks whether the solver has diverged from it
	// since the last rollback. cfDefs is the number of cf definitions the
	// checkpoint holds: cf keeps its memo across rollbacks, so a
	// definition created after the checkpoint would name a discarded SAT
	// variable after the next one (see prepare).
	ck     *smt.Checkpoint
	dirty  bool
	cfDefs int
	// lane is the owning pair worker's timeline lane, for the checkpoint
	// and rollback spans.
	lane int32
}

// checkpoint records the replica's canonical base state, timed as the
// checkpoint phase; parent is the span it nests in.
func (ws *windowSolver) checkpoint(col *telemetry.Collector, parent uint64) {
	span := col.StartPhase(telemetry.PhaseCheckpoint)
	sp := col.BeginSpan("checkpoint", ws.lane, parent)
	ws.ck = ws.s.Checkpoint()
	sp.End()
	span.End()
	ws.cfDefs = ws.cf.Defined()
}

// rollback returns the replica to its checkpoint if a query has touched
// it since, timed as the checkpoint phase; parent is the span it nests in.
func (ws *windowSolver) rollback(col *telemetry.Collector, parent uint64) {
	if !ws.dirty {
		return
	}
	span := col.StartPhase(telemetry.PhaseCheckpoint)
	sp := col.BeginSpan("rollback", ws.lane, parent)
	ws.s.Rollback(ws.ck)
	sp.End()
	span.End()
	ws.dirty = false
	col.CountPairRollback()
}

func (d *Detector) newWindowSolver(w *trace.Trace, mhb *vc.MHB) *windowSolver {
	span := d.opt.Telemetry.StartPhase(telemetry.PhaseEncode)
	defer span.End()
	s := smt.NewSolver()
	enc := encode.New(w, s, mhb, -1, -1)
	enc.Pruning = !d.opt.NoPruning
	ws := &windowSolver{s: s, enc: enc, cf: encode.NewCF(enc, s, d.opt.BranchDepWindow)}
	if err := enc.AssertMHB(); err != nil {
		ws.bad = true
	}
	if err := enc.AssertLocks(); err != nil {
		ws.bad = true
	}
	return ws
}

// prepare encodes one COP's guarded race constraint on the checkpointed
// window solver and returns the guard literal to assume. The guard
// persists, so a pair deferred by the two-pass scheduler is re-solved
// later by assuming the same guard with a bigger budget — no re-encoding.
// ok is false when the encoding itself proves the pair impossible
// (treated as unsat).
//
// The pair's cf cone must already be in the checkpoint (buildReplica
// warms every instance's cone): a cf definition created here would be
// memoised past the next rollback while its SAT variable is discarded.
// prepare panics if that happens; like any solver panic it drops only
// this window.
func (ws *windowSolver) prepare(d *Detector, cop race.COP) (g sat.Lit, ok bool) {
	if ws.bad {
		return 0, false
	}
	col := d.opt.Telemetry
	span := col.StartPhase(telemetry.PhaseEncode)
	defer span.End()
	g = ws.s.NewBoolLit()
	ok = ws.s.Implies(g, ws.enc.Adjacent(cop.A, cop.B)) == nil &&
		ws.s.Implies(g, ws.cf.ControlFlow(cop.A)) == nil &&
		ws.s.Implies(g, ws.cf.ControlFlow(cop.B)) == nil
	if n := ws.cf.Defined(); n != ws.cfDefs {
		panic(fmt.Sprintf("core: COP (%d,%d) added %d cf definitions after the window checkpoint",
			cop.A, cop.B, n-ws.cfDefs))
	}
	if !ok {
		return 0, false
	}
	return g, true
}

// queryStats is the CDCL work of one solver query, captured for race
// provenance. On the shared window solver the values are deltas around
// the query; every group is solved from the identical checkpointed base
// state, so the deltas are deterministic across worker assignment.
type queryStats struct {
	decisions    int64
	propagations int64
	conflicts    int64
}

// solve decides one prepared COP under the given per-attempt budget,
// clipped against the run's global deadline. The deadline is always
// (re)installed — the solver is shared across queries and retries, so a
// stale deadline from a previous attempt must never leak into this one.
func (ws *windowSolver) solve(d *Detector, widx int, cop race.COP, g sat.Lit,
	timeout time.Duration, globalDeadline time.Time) (isRace bool, witness []int, outcome telemetry.Outcome, qs queryStats) {
	if f := d.fireFault(faultinject.PointSolve, widx); f == faultinject.FaultTimeout {
		return false, nil, telemetry.OutcomeTimeout, qs
	}
	col := d.opt.Telemetry
	ws.s.SetDeadline(solveDeadline(timeout, globalDeadline))
	if d.opt.MaxConflicts > 0 {
		ws.s.SetMaxConflicts(d.opt.MaxConflicts)
	}
	st0 := ws.s.Stats()
	span := col.StartPhase(telemetry.PhaseSolve)
	verdict := ws.s.SolveAssuming(g)
	span.End()
	switch verdict {
	case sat.Sat:
		st1 := ws.s.Stats()
		qs = queryStats{
			decisions:    st1.Decisions - st0.Decisions,
			propagations: st1.Propagations - st0.Propagations,
			conflicts:    st1.Conflicts - st0.Conflicts,
		}
		if d.opt.Witness {
			span = col.StartPhase(telemetry.PhaseWitness)
			witness = ws.enc.Witness(cop.A, cop.B)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat, qs
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(ws.s, false, true), qs
	}
	return false, nil, telemetry.OutcomeUnsat, qs
}

// checkMerged decides one COP with the paper's variable-merging encoding
// (ablation path; one solver per COP, rolled into telemetry individually).
// Retries on this path rebuild the solver from scratch — the encoding is
// deterministic, so only the budget differs between attempts.
func (d *Detector) checkMerged(w *trace.Trace, mhb *vc.MHB, cop race.COP, widx int,
	timeout time.Duration, globalDeadline time.Time, cancel func() bool) (isRace bool, witness []int, outcome telemetry.Outcome, qs queryStats) {
	if f := d.fireFault(faultinject.PointSolve, widx); f == faultinject.FaultTimeout {
		return false, nil, telemetry.OutcomeTimeout, qs
	}
	col := d.opt.Telemetry
	s := smt.NewSolver()
	defer col.AddSolver(s)
	s.SetDeadline(solveDeadline(timeout, globalDeadline))
	s.SetCancel(cancel)
	if d.opt.MaxConflicts > 0 {
		s.SetMaxConflicts(d.opt.MaxConflicts)
	}
	span := col.StartPhase(telemetry.PhaseEncode)
	enc := encode.New(w, s, mhb, cop.A, cop.B)
	enc.Pruning = !d.opt.NoPruning
	if err := enc.AssertMHB(); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	if err := enc.AssertLocks(); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	cf := encode.NewCF(enc, s, d.opt.BranchDepWindow)
	if err := cf.AssertControlFlow(cop.A); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	if err := cf.AssertControlFlow(cop.B); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	span.End()
	span = col.StartPhase(telemetry.PhaseSolve)
	verdict := s.Solve()
	span.End()
	switch verdict {
	case sat.Sat:
		// A fresh solver per query on this path: the stats are absolute.
		st := s.Stats()
		qs = queryStats{
			decisions:    st.Decisions,
			propagations: st.Propagations,
			conflicts:    st.Conflicts,
		}
		if d.opt.Witness {
			span = col.StartPhase(telemetry.PhaseWitness)
			witness = enc.Witness(cop.A, cop.B)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat, qs
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(s, false, true), qs
	}
	return false, nil, telemetry.OutcomeUnsat, qs
}

func rebase(idxs []int, offset int) []int {
	out := make([]int, len(idxs))
	for i, v := range idxs {
		out[i] = v + offset
	}
	return out
}
