// Pair scheduler: intra-window parallel COP solving with replicated
// window solvers and deterministic merging.
//
// The window analysis (AnalyseWindow) used to solve every candidate pair
// sequentially on one shared windowSolver, so a trace producing one big
// window got zero speedup from extra cores. This file fans the pairs of a
// window out over Options.PairParallelism workers while keeping the result
// bit-identical to the sequential path:
//
//   - The unit of work is a signature group: every COP instance of one
//     signature surviving the prefilters, in enumeration order. Signature
//     dedup is thereby resolved *before* dispatch — two workers can never
//     race to decide the same signature — and a group's verdict (which
//     instance proves the race, its witness, its outcome tallies) depends
//     only on the group's own solving sequence.
//   - Every worker owns a replica of the window encoding: Φ_mhb + Φ_lock +
//     the control-flow definitions of every instance it could ever be
//     asked to solve, built once per worker by the same deterministic
//     construction sequence and then checkpointed (smt.Checkpoint). Before
//     each group the worker rolls back to the checkpoint, so a group is
//     always solved from the canonical base state no matter which worker
//     picks it up or what it solved before.
//   - Groups are dispatched from a shared queue (an atomic cursor over the
//     canonical group order) and merged back in canonical order, so races,
//     witnesses, counters and window records are deterministic.
//   - Deferred pairs (first-pass timeouts under the two-pass scheduler)
//     stay with the worker that owns their group; after the queue drains,
//     each worker replays the pair's preparation from the checkpoint —
//     recreating the identical guard literal — and re-solves with the
//     escalating budget, exactly like the sequential second pass.
//
// Real wall-clock solver timeouts are inherently timing-dependent; the
// determinism guarantee is: absent solver aborts, the full race.Result is
// identical for every (Parallelism, PairParallelism) combination.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// sigGroup is the pair scheduler's unit of work: every COP instance of one
// signature in one window that survived the skip hint and the lockset
// quick-check prefilters, in enumeration order.
type sigGroup struct {
	sig  race.Signature
	cops []race.COP
	// confirmed holds the triage tier's verdict per instance, parallel to
	// cops: true means the instance is a sound vector-clock-confirmed race
	// whose solve may be skipped (triage.go). Nil when the tier is off.
	confirmed []bool
}

// groupResult is one signature group's contribution to the window result,
// merged into race.Result in canonical group order.
type groupResult struct {
	solved     int // pass-1 solve attempts (COPsChecked, WindowRecord.Solved)
	aborts     int // solver aborts that were not retried
	retried    int // pairs deferred to the second pass
	cancelled  bool
	budgetGone bool
	isRace     bool
	race       race.Race  // whole-trace coordinates, set when isRace
	deferred   []race.COP // pass-1 timeouts awaiting the escalating pass
}

// windowCtx bundles the per-window invariants threaded through the
// scheduler.
type windowCtx struct {
	ctx        context.Context
	w          *trace.Trace
	mhb        *vc.MHB
	widx       int // window index (tracer, fault injection)
	offset     int // whole-trace index of the window's first event
	deadline   time.Time
	cancel     func() bool
	skip       func(race.Signature) bool // AnalyseWindow's skip hint
	spanParent uint64                    // window span ID, parent of worker/group spans
}

// partition runs the prefilters over the enumerated COPs and groups the
// survivors by signature, in order of each signature's first surviving
// instance. The sequential drivers' skip hint is stable for the whole
// window (Merge updates it between windows), so the partition is
// deterministic. The window MHB clocks and the lockset quick check are
// computed lazily, on the first instance that survives the cheap skip
// lookups — so a window whose candidates are all already decided costs
// no clock pass — and the single MHB pass is shared by the
// quick check, the triage tier and (via the returned value) the window
// encoders, where the old driver paid for it twice. Survivors are
// classified by the triage tier (triage.go) at partition time, in
// canonical enumeration order, so the tier's telemetry tallies are
// deterministic under any worker count.
func (d *Detector) partition(w *trace.Trace, cops []race.COP, skip func(race.Signature) bool) ([]*sigGroup, *vc.MHB) {
	col := d.opt.Telemetry
	var (
		groups []*sigGroup
		index  map[race.Signature]int
		mhb    *vc.MHB
		sets   *lockset.Sets
		setsOK bool
		tri    *triage
	)
	for _, cop := range cops {
		sig := race.SigOf(w, cop.A, cop.B)
		if skip != nil && skip(sig) {
			col.CountSigDedup()
			continue
		}
		if !setsOK {
			setsOK = true
			if !d.opt.NoQuickCheck {
				span := col.StartPhase(telemetry.PhaseMHB)
				mhb = vc.ComputeMHB(w)
				span.End()
				span = col.StartPhase(telemetry.PhaseQuickCheck)
				sets = lockset.ComputeWith(w, mhb)
				span.End()
			}
		}
		if sets != nil {
			span := col.StartPhase(telemetry.PhaseQuickCheck)
			pass := sets.Pass(cop.A, cop.B)
			span.End()
			if !pass {
				col.CountQuickCheckFiltered()
				continue
			}
		}
		confirmed := false
		if sets != nil && d.triageOn() {
			if tri == nil {
				tri = d.newTriage(w)
			}
			confirmed = tri.confirm(cop)
		}
		gi, ok := index[sig]
		if !ok {
			if index == nil {
				index = make(map[race.Signature]int)
			}
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, &sigGroup{sig: sig})
		}
		groups[gi].cops = append(groups[gi].cops, cop)
		if tri != nil {
			groups[gi].confirmed = append(groups[gi].confirmed, confirmed)
		}
	}
	if tri != nil {
		tri.release()
	}
	return groups, mhb
}

// buildReplica constructs one worker's window encoding: base constraints,
// then the control-flow definitions of every instance any group could
// prepare, in canonical order, then the checkpoint. Every replica runs the
// identical construction sequence, so all replicas are bit-identical and a
// group solved after Rollback sees the same state on any worker. lane is
// the worker's timeline lane and parent the span the checkpoint nests in.
func (d *Detector) buildReplica(wc *windowCtx, groups []*sigGroup, lane int32, parent uint64) *windowSolver {
	ws := d.newWindowSolver(wc.w, wc.mhb)
	ws.s.SetCancel(wc.cancel)
	if !ws.bad {
		span := d.opt.Telemetry.StartPhase(telemetry.PhaseEncode)
		for _, g := range groups {
			for _, cop := range g.cops {
				ws.cf.ControlFlow(cop.A)
				ws.cf.ControlFlow(cop.B)
			}
		}
		span.End()
	}
	ws.lane = lane
	ws.checkpoint(d.opt.Telemetry, parent)
	return ws
}

// acquireBudget blocks until a global worker-budget slot is free and
// returns its release. The budget (max of window and pair parallelism) is
// shared by window coordinators and extra pair workers; coordinators
// block-acquire (the cap is ≥ Parallelism, so they always progress), extra
// pair workers only spawn on tryAcquireBudget.
func (d *Detector) acquireBudget() func() {
	d.budget <- struct{}{}
	return func() { <-d.budget }
}

func (d *Detector) tryAcquireBudget() bool {
	select {
	case d.budget <- struct{}{}:
		return true
	default:
		return false
	}
}

// solveGroups runs the window's groups to completion and returns their
// results in canonical group order. With PairParallelism ≤ 1 (or a single
// group) everything runs inline on the caller; otherwise up to PP−1 extra
// workers are spawned, gated on the global worker budget. A panic on any
// worker stops the pool, is re-raised on the caller and handled by the
// window-level isolation in AnalyseWindow; the window then contributes no
// results (deterministic drop — see race.WindowFailure).
func (d *Detector) solveGroups(wc *windowCtx, groups []*sigGroup) []*groupResult {
	col := d.opt.Telemetry
	release := d.acquireBudget()
	defer release()

	results := make([]*groupResult, len(groups))
	var (
		cursor    atomic.Int64
		stop      atomic.Bool
		panicMu   sync.Mutex
		panicVal  any
		hasPanic  bool
		queueOpen time.Time
	)
	if col.Enabled() {
		queueOpen = time.Now()
	}

	// runWorker drains the shared queue on one replica, then runs the
	// escalating second pass for the deferred pairs of the groups it owns.
	// lane is the worker's timeline lane: one group span per dequeue makes
	// worker occupancy read directly off the trace.
	runWorker := func(ws *windowSolver, lane int32) {
		col.CountPairWorker()
		// Queue wait: how long after the queue opened this worker made its
		// first claim — its replica construction plus any budget wait.
		if col.Enabled() {
			col.AddQueueWait(time.Since(queueOpen))
		}
		var owned []int
		for !stop.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(groups) {
				break
			}
			gsp := col.BeginSpan(groupSpanName(col, "group", groups[i]), lane, wc.spanParent)
			if ws != nil {
				ws.rollback(col, gsp.ID())
			}
			results[i] = d.solveGroup(wc, ws, groups[i])
			gsp.End()
			col.CountGroupDone()
			if len(results[i].deferred) > 0 {
				owned = append(owned, i)
			}
		}
		for _, i := range owned {
			if stop.Load() {
				break
			}
			rsp := col.BeginSpan(groupSpanName(col, "retry", groups[i]), lane, wc.spanParent)
			d.retryDeferred(wc, ws, groups[i], results[i], rsp.ID())
			rsp.End()
		}
		if ws != nil {
			col.AddSolver(ws.s)
		}
	}

	// guarded wraps one worker (replica construction included) in panic
	// capture: the first panic stops the pool and is re-raised below.
	// k is the worker's index (0 = the coordinator solving inline).
	guarded := func(k int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !hasPanic {
					hasPanic, panicVal = true, r
				}
				panicMu.Unlock()
				stop.Store(true)
			}
		}()
		lane := telemetry.WorkerLane(wc.widx, k)
		var ws *windowSolver
		if !d.opt.MergeRaceVars {
			if k > 0 {
				col.CountPairReplica()
			}
			rsp := col.BeginSpan("encode replica", lane, wc.spanParent)
			ws = d.buildReplica(wc, groups, lane, rsp.ID())
			rsp.End()
		}
		runWorker(ws, lane)
	}

	pp := d.opt.PairParallelism
	// Pair solving is CPU-bound and every extra worker must pay for a full
	// replica encoding before it contributes, so workers beyond the
	// schedulable core count can never win that investment back: cap the
	// pool at GOMAXPROCS. Results are identical for any worker count — the
	// cap only trims overhead.
	if procs := runtime.GOMAXPROCS(0); pp > procs {
		pp = procs
	}
	var wg sync.WaitGroup
	for k := 1; k < pp && k < len(groups); k++ {
		if !d.tryAcquireBudget() {
			break
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-d.budget }()
			guarded(k)
		}(k)
	}
	guarded(0)
	wg.Wait()
	if hasPanic {
		panic(panicVal)
	}
	return results
}

// groupSpanName renders one signature group's timeline-span name. The
// formatting allocates, so it is skipped (the span is inert anyway)
// unless a recorder is attached.
func groupSpanName(col *telemetry.Collector, kind string, g *sigGroup) string {
	if col.Spans() == nil {
		return ""
	}
	return fmt.Sprintf("%s %d:%d ×%d", kind, g.sig.First, g.sig.Second, len(g.cops))
}

// solveGroup decides one signature group from the canonical base state
// (the caller rolls ws back first): instances are attempted in
// enumeration order until one is satisfiable (a race) or the run is
// cancelled. The group's result depends only on the checkpointed base and
// the group itself, never on the worker or on other groups.
func (d *Detector) solveGroup(wc *windowCtx, ws *windowSolver, g *sigGroup) *groupResult {
	col := d.opt.Telemetry
	tracer := d.opt.Tracer
	gr := &groupResult{}
	passTimeout := d.passOneTimeout()
	for k, cop := range g.cops {
		if wc.ctx.Err() != nil {
			gr.cancelled = true
			break
		}
		// Instances decided after dispatch (the signature's race already
		// found, or reported meanwhile by a parallel window) are
		// pair-scheduler skips, not signature-dedup hits: partition
		// already classified them, so counting them as dedup again would
		// break the candidate-funnel identity the /metrics endpoint checks.
		if gr.isRace {
			col.CountPairSkip()
			continue
		}
		if wc.skip != nil && wc.skip(g.sig) {
			col.CountPairSkip()
			continue
		}
		if gr.budgetGone || (!wc.deadline.IsZero() && time.Now().After(wc.deadline)) {
			gr.budgetGone = true
			col.CountBudgetExhausted()
			continue
		}
		gr.solved++
		var qstart time.Time
		if tracer != nil {
			qstart = time.Now()
		}
		if g.confirmed != nil && g.confirmed[k] && !d.opt.Witness {
			// Triage fast path: the vector-clock tier proved this instance's
			// query satisfiable (triage.go), so the SAT verdict is recorded
			// without touching the solver. The attempt still counts exactly
			// like a solved query — COPsChecked and the reported race are
			// bit-identical to the triage-off run — and the tracer still
			// sees the finding, but the solver outcome tallies deliberately
			// exclude it: they count solver queries, and the triage
			// telemetry block accounts for the confirmed pairs. When a
			// witness schedule is requested the pair falls through to the
			// normal (guaranteed-SAT) solve instead, so witnesses match too.
			gr.isRace = true
			gr.race = race.Race{
				COP: race.COP{A: cop.A + wc.offset, B: cop.B + wc.offset},
				Sig: g.sig,
			}
			if tracer != nil {
				tracer.QuerySolved(wc.widx, cop.A+wc.offset, cop.B+wc.offset, telemetry.OutcomeSat, time.Since(qstart))
			}
			continue
		}
		var (
			isRace  bool
			witness []int
			outcome telemetry.Outcome
			qs      queryStats
		)
		if d.opt.MergeRaceVars {
			// Merging fuses the pair onto one order variable, so the
			// encoding is rebuilt per COP (the ablation path): no shared
			// replica, but the scheduler structure is identical.
			isRace, witness, outcome, qs = d.checkMerged(wc.w, wc.mhb, cop, wc.widx,
				passTimeout, wc.deadline, wc.cancel)
		} else {
			ws.dirty = true
			guard, hasG := ws.prepare(d, cop)
			if !hasG {
				isRace, witness, outcome = false, nil, telemetry.OutcomeUnsat
			} else {
				isRace, witness, outcome, qs = ws.solve(d, wc.widx, cop, guard,
					passTimeout, wc.deadline)
			}
		}
		col.CountOutcome(outcome)
		if tracer != nil {
			tracer.QuerySolved(wc.widx, cop.A+wc.offset, cop.B+wc.offset, outcome, time.Since(qstart))
		}
		if outcome == telemetry.OutcomeTimeout && d.twoPass() {
			// Deferred, not abandoned: the second pass below re-solves it
			// with escalating budgets, on this same worker.
			gr.retried++
			col.CountRetryScheduled()
			gr.deferred = append(gr.deferred, cop)
			continue
		}
		if outcome.Aborted() {
			gr.aborts++
			if outcome == telemetry.OutcomeCancelled {
				gr.cancelled = true
			}
		}
		if isRace {
			gr.isRace = true
			gr.race = race.Race{
				COP: race.COP{A: cop.A + wc.offset, B: cop.B + wc.offset},
				Sig: g.sig,
			}
			// Query stats for provenance; kept only if the merge-time
			// attribution decides the SMT tier was necessary
			// (attributor.stamp zeroes them otherwise).
			gr.race.Prov.Decisions = qs.decisions
			gr.race.Prov.Propagations = qs.propagations
			gr.race.Prov.Conflicts = qs.conflicts
			if witness != nil {
				gr.race.Witness = rebase(witness, wc.offset)
			}
		}
	}
	return gr
}

// retryDeferred is the escalating second pass for one group's deferred
// pairs, run by the worker that owns the group after the shared queue has
// drained. Each pair's preparation is replayed from the checkpoint — the
// replay allocates the identical guard literal the first pass used — and
// re-solved with budgets growing geometrically up to SolveTimeout, clipped
// by the remaining global budget. parent is the retry span the rollbacks
// nest in.
func (d *Detector) retryDeferred(wc *windowCtx, ws *windowSolver, g *sigGroup, gr *groupResult, parent uint64) {
	col := d.opt.Telemetry
	tracer := d.opt.Tracer
	for _, cop := range gr.deferred {
		if wc.ctx.Err() != nil {
			gr.cancelled = true
			break
		}
		if gr.isRace {
			// Another instance of the signature was proven racy in the
			// meantime; this deferred instance is redundant.
			col.CountPairSkip()
			continue
		}
		var guard sat.Lit
		if !d.opt.MergeRaceVars {
			ws.rollback(col, parent)
			ws.dirty = true
			var hasG bool
			guard, hasG = ws.prepare(d, cop)
			if !hasG {
				// The first pass prepared this pair successfully, so the
				// deterministic replay cannot fail; handle it as unsat for
				// defence in depth.
				col.CountOutcome(telemetry.OutcomeUnsat)
				col.CountRetrySolved(false)
				continue
			}
		}
		var (
			isRace  bool
			witness []int
			final   = telemetry.OutcomeTimeout
			qs      queryStats
		)
		budget := d.opt.FirstPassTimeout * retryEscalation
		for attempt := 0; attempt < maxRetryAttempts; attempt++ {
			capped := false
			if d.opt.SolveTimeout > 0 && budget >= d.opt.SolveTimeout {
				budget = d.opt.SolveTimeout
				capped = true
			}
			if !wc.deadline.IsZero() {
				rem := time.Until(wc.deadline)
				if rem <= 0 {
					gr.budgetGone = true
					col.CountBudgetExhausted()
					break
				}
				if budget > rem {
					budget = rem
					capped = true
				}
			}
			var qstart time.Time
			if tracer != nil {
				qstart = time.Now()
			}
			if d.opt.MergeRaceVars {
				isRace, witness, final, qs = d.checkMerged(wc.w, wc.mhb, cop, wc.widx,
					budget, wc.deadline, wc.cancel)
			} else {
				isRace, witness, final, qs = ws.solve(d, wc.widx, cop, guard,
					budget, wc.deadline)
			}
			col.CountOutcome(final)
			if tracer != nil {
				tracer.QuerySolved(wc.widx, cop.A+wc.offset, cop.B+wc.offset, final, time.Since(qstart))
			}
			if final != telemetry.OutcomeTimeout || capped {
				break
			}
			budget *= retryEscalation
		}
		if final.Aborted() {
			gr.aborts++
			if final == telemetry.OutcomeCancelled {
				gr.cancelled = true
			}
		} else {
			col.CountRetrySolved(isRace)
		}
		if isRace {
			gr.isRace = true
			gr.race = race.Race{
				COP: race.COP{A: cop.A + wc.offset, B: cop.B + wc.offset},
				Sig: g.sig,
			}
			gr.race.Prov.Decisions = qs.decisions
			gr.race.Prov.Propagations = qs.propagations
			gr.race.Prov.Conflicts = qs.conflicts
			if witness != nil {
				gr.race.Witness = rebase(witness, wc.offset)
			}
		}
	}
}
