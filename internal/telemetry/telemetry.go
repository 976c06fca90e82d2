// Package telemetry instruments the detection pipeline: where the time
// goes (per phase), what the solvers did (CDCL, theory and encoding
// counters), how each conflicting-pair query ended (SAT / UNSAT / timeout /
// conflict-budget), and how the work distributed over trace windows.
//
// The literature is unambiguous that SMT solving dominates predictive
// race-detection cost — the linear-time lines of work (Kini et al.,
// Pavlogiannis) exist precisely because of this bottleneck — so every
// future performance change to this repository (sharding, incremental
// solving, window-parallelism tuning) needs numbers to regress against.
// This package provides them without perturbing what it measures:
//
//   - Collector is a set of atomic counters and timers safe under
//     core.Options.Parallelism > 1. All methods are nil-receiver safe: a
//     nil *Collector is the disabled state, and every record call returns
//     immediately without reading the clock, so the instrumented code path
//     costs nothing measurable when telemetry is off.
//   - Tracer is a callback interface for live progress (window lifecycle,
//     per-query verdicts). A nil Tracer is never invoked; implementations
//     must be safe for concurrent use when windows are analysed in
//     parallel.
//   - Metrics is the machine-readable snapshot (stable JSON field names)
//     exposed on rvpredict.Report and by cmd/rvpredict -json and
//     cmd/table1 -json.
//
// Only timing fields vary between runs; every count in Metrics is
// deterministic for a sequential run, and enabling telemetry never changes
// a detector's reported result set (asserted by the determinism tests in
// internal/core).
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sat"
)

// Phase identifies one stage of the detection pipeline.
type Phase uint8

// Pipeline phases, in pipeline order.
const (
	// PhaseTraceScan is the initial trace statistics/metadata scan.
	PhaseTraceScan Phase = iota
	// PhaseEnumerate is conflicting-pair (or candidate) enumeration.
	PhaseEnumerate
	// PhaseMHB is must-happen-before computation (vector clocks over the
	// window), the input to both the quick-check prefilter and Φ_mhb.
	PhaseMHB
	// PhaseQuickCheck is the hybrid lockset/weak-HB prefilter.
	PhaseQuickCheck
	// PhaseEncode is constraint generation (Φ_mhb, Φ_lock, cf, queries).
	PhaseEncode
	// PhaseCheckpoint is window-solver checkpointing and the rollback to
	// the checkpoint before each signature group.
	PhaseCheckpoint
	// PhaseSolve is DPLL(T) solving.
	PhaseSolve
	// PhaseWitness is witness-schedule reconstruction from models.
	PhaseWitness

	numPhases
)

// String returns the phase's stable lower-case name (the JSON vocabulary).
func (p Phase) String() string {
	switch p {
	case PhaseTraceScan:
		return "trace_scan"
	case PhaseEnumerate:
		return "cop_enumeration"
	case PhaseMHB:
		return "mhb"
	case PhaseQuickCheck:
		return "quick_check"
	case PhaseEncode:
		return "encode"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseSolve:
		return "solve"
	case PhaseWitness:
		return "witness"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Outcome classifies how one solver query (one COP, deadlock candidate or
// atomicity candidate) ended.
type Outcome uint8

// Query outcomes.
const (
	// OutcomeSat: the query is satisfiable — a real race/deadlock/violation.
	OutcomeSat Outcome = iota
	// OutcomeUnsat: proven infeasible.
	OutcomeUnsat
	// OutcomeTimeout: the wall-clock solve deadline expired.
	OutcomeTimeout
	// OutcomeConflictBudget: the CDCL conflict budget was exhausted.
	OutcomeConflictBudget
	// OutcomeCancelled: the run's context was cancelled mid-solve.
	OutcomeCancelled
)

// String returns the outcome's stable lower-case name.
func (o Outcome) String() string {
	switch o {
	case OutcomeSat:
		return "sat"
	case OutcomeUnsat:
		return "unsat"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeConflictBudget:
		return "conflict_budget"
	case OutcomeCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Aborted reports whether the outcome is an abort (timeout, conflict
// budget or cancellation) rather than a verdict.
func (o Outcome) Aborted() bool {
	return o == OutcomeTimeout || o == OutcomeConflictBudget || o == OutcomeCancelled
}

// Tracer receives live progress callbacks from the detectors. All methods
// may be called concurrently when windows are analysed in parallel; a
// tracer that prints should serialise internally. Implementations must be
// cheap — they run on the detection hot path.
//
// The zero number of guaranteed callbacks is deliberate: detectors only
// call a non-nil tracer, so passing no tracer costs one nil check per
// site.
type Tracer interface {
	// WindowStart fires when a window's analysis begins. index is the
	// window's position in the trace (0-based, in trace order even when
	// windows run in parallel); events is the window length.
	WindowStart(index, events int)
	// WindowDone fires when a window's analysis completes, with the number
	// of findings attributed to the window and its wall-clock time.
	WindowDone(index, findings int, elapsed time.Duration)
	// QuerySolved fires after each solver query: the window index, the
	// defining event indices (in whole-trace coordinates; a and b are the
	// COP for races, the two blocked acquires for deadlocks, the two local
	// accesses for atomicity), the outcome and the query wall-clock time.
	QuerySolved(index, a, b int, outcome Outcome, elapsed time.Duration)
}

// Collector accumulates pipeline metrics. A nil *Collector is the disabled
// state: every method returns immediately. Construct with NewCollector;
// the zero value is also usable. All methods are safe for concurrent use.
type Collector struct {
	phases [numPhases]atomic.Int64 // nanoseconds per phase

	// CDCL core counters (rolled up from sat.Stats per solver).
	decisions    atomic.Int64
	propagations atomic.Int64
	conflicts    atomic.Int64
	restarts     atomic.Int64
	learned      atomic.Int64
	theoryProps  atomic.Int64
	theoryConfl  atomic.Int64

	// IDL theory counters (mirrored by idl.Stats).
	idlAsserts   atomic.Int64
	idlNegCycles atomic.Int64
	idlRepairs   atomic.Int64

	// Encoding counters (mirrored by smt.EncodeStats) and sizes.
	internedAtoms  atomic.Int64
	tseitinVars    atomic.Int64
	tseitinClauses atomic.Int64
	boolVars       atomic.Int64
	clauses        atomic.Int64
	intVars        atomic.Int64
	solvers        atomic.Int64

	// Query outcome tallies.
	outSat       atomic.Int64
	outUnsat     atomic.Int64
	outTime      atomic.Int64
	outBudget    atomic.Int64
	outCancelled atomic.Int64

	// Resilience tallies: the two-pass retry scheduler, global-budget
	// exhaustion and recovered window-worker panics.
	retriesScheduled atomic.Int64
	retriesSolved    atomic.Int64
	retrySat         atomic.Int64
	budgetExhausted  atomic.Int64
	windowFailures   atomic.Int64

	// Pipeline funnel tallies.
	enumerated    atomic.Int64
	quickFiltered atomic.Int64
	sigDedups     atomic.Int64
	mhbFiltered   atomic.Int64

	// Pair-scheduler tallies (intra-window parallel COP solving).
	pairGroups    atomic.Int64
	pairWorkers   atomic.Int64
	pairReplicas  atomic.Int64
	pairRollbacks atomic.Int64
	pairSkips     atomic.Int64
	queueWait     atomic.Int64

	// Live gauges (never part of the Metrics snapshot: they describe the
	// instant, not the run, and are read by the introspection server).
	windowsStarted  atomic.Int64
	windowsFinished atomic.Int64
	groupsDone      atomic.Int64

	// Streaming-daemon tallies (internal/stream): session lifecycle,
	// admission rejects, ingest time lost to solver backpressure, and
	// windows that shed the SMT tier under sustained pressure. Like the
	// live gauges above they feed the introspection server only.
	sessionsStarted  atomic.Int64
	sessionsFinished atomic.Int64
	sessionsRejected atomic.Int64
	backpressureNS   atomic.Int64
	degradedWindows  atomic.Int64

	// Triage-tier tallies (sound fast paths before SMT, per ladder rung).
	triConfirmed    atomic.Int64
	triWCPConfirmed atomic.Int64
	triSPConfirmed  atomic.Int64
	triCPConfirmed  atomic.Int64
	triDispatched   atomic.Int64
	triFastPath     atomic.Int64

	// Durable-journal tallies (internal/journal).
	journalRecords  atomic.Int64
	journalBytes    atomic.Int64
	journalFsyncNS  atomic.Int64
	journalReplayed atomic.Int64
	journalTorn     atomic.Int64

	// Out-of-core reader tallies (internal/tracev2) and shard-run
	// accounting (rvpredict sharded window analysis).
	chunkCacheHits      atomic.Int64
	chunkCacheMisses    atomic.Int64
	mmapBytes           atomic.Int64
	shardWindowsOwned   atomic.Int64
	shardWindowsSkipped atomic.Int64
	shardOutcomesMerged atomic.Int64
	shardConflicts      atomic.Int64

	// Fleet tallies (internal/fleet): lease lifecycle and worker-fault
	// accounting of the distributed shard coordinator. Introspection
	// only, like the daemon tallies above — fault timing is
	// non-deterministic, so none of these may reach the Metrics
	// snapshot the identity tests compare.
	leasesGranted     atomic.Int64
	leasesExpired     atomic.Int64
	leasesReassigned  atomic.Int64
	speculativeWins   atomic.Int64
	workerDisconnects atomic.Int64

	// spans is the optionally attached span recorder (spans.go).
	spans atomic.Pointer[SpanRecorder]

	mu      sync.Mutex
	windows []WindowRecord
}

// NewCollector returns an empty, enabled collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether the collector records anything (i.e. is
// non-nil). Detectors use it to skip work that only feeds telemetry.
func (c *Collector) Enabled() bool { return c != nil }

// Span is an in-flight phase measurement returned by StartPhase. The zero
// Span (from a nil collector) is inert.
type Span struct {
	c     *Collector
	phase Phase
	t0    time.Time
}

// StartPhase begins timing one occurrence of phase p. On a nil collector
// it returns an inert span without reading the clock.
func (c *Collector) StartPhase(p Phase) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, phase: p, t0: time.Now()}
}

// End stops the span and accumulates its duration, returning it.
func (s Span) End() time.Duration {
	if s.c == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.c.phases[s.phase].Add(int64(d))
	return d
}

// AddPhase accumulates an externally measured duration for phase p.
func (c *Collector) AddPhase(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	c.phases[p].Add(int64(d))
}

// AddSAT rolls the CDCL core counters of one solver into the collector.
// Call it once per solver lifetime (the per-window shared solver, or each
// per-query solver on the ablation paths) — sat.Stats counters are
// cumulative, so adding a live solver twice double-counts.
func (c *Collector) AddSAT(st sat.Stats) {
	if c == nil {
		return
	}
	c.decisions.Add(st.Decisions)
	c.propagations.Add(st.Propagations)
	c.conflicts.Add(st.Conflicts)
	c.restarts.Add(st.Restarts)
	c.learned.Add(st.Learned)
	c.theoryProps.Add(st.TheoryProps)
	c.theoryConfl.Add(st.TheoryConfl)
}

// AddIDL rolls up the IDL theory counters of one solver (see idl.Stats;
// the parameters mirror its fields to keep this package free of an idl
// import cycle risk — idl must stay importable by sat-level code).
func (c *Collector) AddIDL(asserts, negCycles, repairSteps int64) {
	if c == nil {
		return
	}
	c.idlAsserts.Add(asserts)
	c.idlNegCycles.Add(negCycles)
	c.idlRepairs.Add(repairSteps)
}

// AddEncoding rolls up one solver's encoding counters: interned IDL atoms,
// Tseitin auxiliary variables and clauses (see smt.EncodeStats), and the
// final encoding sizes (boolean variables, problem clauses, integer
// variables).
func (c *Collector) AddEncoding(atoms, tvars, tclauses, boolVars, clauses, intVars int64) {
	if c == nil {
		return
	}
	c.internedAtoms.Add(atoms)
	c.tseitinVars.Add(tvars)
	c.tseitinClauses.Add(tclauses)
	c.boolVars.Add(boolVars)
	c.clauses.Add(clauses)
	c.intVars.Add(intVars)
	c.solvers.Add(1)
}

// CountOutcome tallies one solver-query outcome.
func (c *Collector) CountOutcome(o Outcome) {
	if c == nil {
		return
	}
	switch o {
	case OutcomeSat:
		c.outSat.Add(1)
	case OutcomeUnsat:
		c.outUnsat.Add(1)
	case OutcomeTimeout:
		c.outTime.Add(1)
	case OutcomeConflictBudget:
		c.outBudget.Add(1)
	case OutcomeCancelled:
		c.outCancelled.Add(1)
	}
}

// CountRetryScheduled tallies one pair deferred to the second pass of the
// adaptive scheduler after its cheap first-pass budget expired.
func (c *Collector) CountRetryScheduled() {
	if c == nil {
		return
	}
	c.retriesScheduled.Add(1)
}

// CountRetrySolved tallies one retried pair that reached a verdict on the
// escalated budget; sat marks a race the first pass would have abandoned.
func (c *Collector) CountRetrySolved(sat bool) {
	if c == nil {
		return
	}
	c.retriesSolved.Add(1)
	if sat {
		c.retrySat.Add(1)
	}
}

// CountBudgetExhausted tallies one candidate skipped (not solved, not
// retried) because the run's global wall-clock budget was exhausted.
func (c *Collector) CountBudgetExhausted() {
	if c == nil {
		return
	}
	c.budgetExhausted.Add(1)
}

// CountWindowFailure tallies one window worker that panicked and was
// isolated (its window's results are lost, the run continued).
func (c *Collector) CountWindowFailure() {
	if c == nil {
		return
	}
	c.windowFailures.Add(1)
}

// CountEnumerated tallies n enumerated candidates (COPs, inversions,
// triples).
func (c *Collector) CountEnumerated(n int) {
	if c == nil {
		return
	}
	c.enumerated.Add(int64(n))
}

// CountQuickCheckFiltered tallies one candidate removed by the hybrid
// quick-check prefilter.
func (c *Collector) CountQuickCheckFiltered() {
	if c == nil {
		return
	}
	c.quickFiltered.Add(1)
}

// CountSigDedup tallies one candidate skipped because its signature was
// already decided (seen-set hit or shared parallel verdict).
func (c *Collector) CountSigDedup() {
	if c == nil {
		return
	}
	c.sigDedups.Add(1)
}

// CountMHBFiltered tallies one candidate discarded by a must-happen-before
// pre-check without reaching the solver.
func (c *Collector) CountMHBFiltered() {
	if c == nil {
		return
	}
	c.mhbFiltered.Add(1)
}

// CountPairGroups tallies n signature groups dispatched by the pair
// scheduler (one group per distinct signature surviving the prefilters in
// one window). Groups is deterministic — it depends only on the trace and
// the options, never on worker timing.
func (c *Collector) CountPairGroups(n int) {
	if c == nil {
		return
	}
	c.pairGroups.Add(int64(n))
}

// CountPairWorker tallies one pair worker that actually ran for a window
// (including the coordinator when it solves inline). The count depends on
// the global worker budget at window start, so it varies between runs.
func (c *Collector) CountPairWorker() {
	if c == nil {
		return
	}
	c.pairWorkers.Add(1)
}

// CountPairReplica tallies one replica window encoding built for an extra
// pair worker (base Φ_mhb + Φ_lock + CF definitions, rebuilt per worker).
func (c *Collector) CountPairReplica() {
	if c == nil {
		return
	}
	c.pairReplicas.Add(1)
}

// CountPairRollback tallies one solver rollback to the window's
// checkpointed base encoding (between signature groups, and before the
// escalating retry pass).
func (c *Collector) CountPairRollback() {
	if c == nil {
		return
	}
	c.pairRollbacks.Add(1)
}

// CountPairSkip tallies one dispatched signature-group instance skipped at
// solve time because the group's verdict was already decided (an earlier
// instance raced, or a parallel window reported the signature between
// dispatch and dequeue). Distinct from
// CountSigDedup, which counts candidates deduplicated at partition time:
// keeping the two apart is what makes the candidate funnel identity exact
// (enumerated = filtered + deduped + confirmed + dispatched).
func (c *Collector) CountPairSkip() {
	if c == nil {
		return
	}
	c.pairSkips.Add(1)
}

// CountWindowStarted / CountWindowFinished move the windows-in-flight
// gauge; they feed the introspection server only and never appear in the
// Metrics snapshot.
func (c *Collector) CountWindowStarted() {
	if c == nil {
		return
	}
	c.windowsStarted.Add(1)
}

// CountWindowFinished marks one window's analysis complete (including
// failed or replayed windows).
func (c *Collector) CountWindowFinished() {
	if c == nil {
		return
	}
	c.windowsFinished.Add(1)
}

// WindowsInFlight returns the number of windows currently being analysed.
func (c *Collector) WindowsInFlight() int64 {
	if c == nil {
		return 0
	}
	return c.windowsStarted.Load() - c.windowsFinished.Load()
}

// CountGroupDone marks one dispatched signature group fully handled
// (solved, skipped, or abandoned); GroupsQueued derives the live queue
// depth from it.
func (c *Collector) CountGroupDone() {
	if c == nil {
		return
	}
	c.groupsDone.Add(1)
}

// GroupsQueued returns the number of dispatched signature groups not yet
// fully handled — the live depth of the pair-scheduler queues.
func (c *Collector) GroupsQueued() int64 {
	if c == nil {
		return 0
	}
	n := c.pairGroups.Load() - c.groupsDone.Load()
	if n < 0 {
		return 0
	}
	return n
}

// CountSessionStarted / CountSessionFinished move the sessions-active
// gauge of the streaming daemon; a session counts as finished whether it
// completed, failed or was suspended for later resume.
func (c *Collector) CountSessionStarted() {
	if c == nil {
		return
	}
	c.sessionsStarted.Add(1)
}

// CountSessionFinished marks one streaming session no longer active.
func (c *Collector) CountSessionFinished() {
	if c == nil {
		return
	}
	c.sessionsFinished.Add(1)
}

// SessionsActive returns the number of streaming sessions currently open.
func (c *Collector) SessionsActive() int64 {
	if c == nil {
		return 0
	}
	n := c.sessionsStarted.Load() - c.sessionsFinished.Load()
	if n < 0 {
		return 0
	}
	return n
}

// CountSessionRejected tallies one client turned away by admission
// control (session limit reached, bad handshake, or drain in progress).
func (c *Collector) CountSessionRejected() {
	if c == nil {
		return
	}
	c.sessionsRejected.Add(1)
}

// SessionsRejected returns the admission-reject tally.
func (c *Collector) SessionsRejected() int64 {
	if c == nil {
		return 0
	}
	return c.sessionsRejected.Load()
}

// AddIngestBackpressure accumulates wall-clock time a session's ingest
// loop spent blocked because the solver queue was full — the time TCP
// backpressure was being exerted on the client.
func (c *Collector) AddIngestBackpressure(d time.Duration) {
	if c == nil {
		return
	}
	c.backpressureNS.Add(int64(d))
}

// IngestBackpressureNS returns the accumulated ingest backpressure time.
func (c *Collector) IngestBackpressureNS() int64 {
	if c == nil {
		return 0
	}
	return c.backpressureNS.Load()
}

// CountDegradedWindow tallies one window analysed in degraded mode (SMT
// tier shed under sustained pressure; sound-tier verdicts only).
func (c *Collector) CountDegradedWindow() {
	if c == nil {
		return
	}
	c.degradedWindows.Add(1)
}

// DegradedWindows returns the degraded-window tally.
func (c *Collector) DegradedWindows() int64 {
	if c == nil {
		return 0
	}
	return c.degradedWindows.Load()
}

// AddQueueWait accumulates one signature group's dispatch latency: the
// wall-clock time from the window's queue opening until a worker dequeued
// the group.
func (c *Collector) AddQueueWait(d time.Duration) {
	if c == nil {
		return
	}
	c.queueWait.Add(int64(d))
}

// CountTriageConfirmed tallies one COP soundly confirmed as a race by the
// triage ladder without a solver query, attributed to the cheapest rung
// that proves it: "shb" (epoch/clock fast path), "wcp"
// (weak-causally-precedes gate plus sync-preserving witness), "syncp"
// (sync-preserving witness alone) or "cp" (the opt-in causally-precedes
// tier). Unknown tiers count as "shb" defensively.
func (c *Collector) CountTriageConfirmed(tier string) {
	if c == nil {
		return
	}
	switch tier {
	case "wcp":
		c.triWCPConfirmed.Add(1)
	case "syncp":
		c.triSPConfirmed.Add(1)
	case "cp":
		c.triCPConfirmed.Add(1)
	default:
		c.triConfirmed.Add(1)
	}
}

// CountTriageDispatched tallies one COP the triage tier could not decide,
// dispatched to the SMT pair scheduler unchanged.
func (c *Collector) CountTriageDispatched() {
	if c == nil {
		return
	}
	c.triDispatched.Add(1)
}

// AddTriageFastPath accumulates wall-clock time spent in the triage tier's
// clock computations and per-pair checks.
func (c *Collector) AddTriageFastPath(d time.Duration) {
	if c == nil {
		return
	}
	c.triFastPath.Add(int64(d))
}

// CountJournalWrite tallies one write to the durable window journal:
// records is 1 for a window record, 0 for the header, and bytes the
// framed size written.
func (c *Collector) CountJournalWrite(records int, bytes int) {
	if c == nil {
		return
	}
	c.journalRecords.Add(int64(records))
	c.journalBytes.Add(int64(bytes))
}

// AddJournalFsync accumulates the wall-clock cost of one journal fsync
// (group commit makes these less frequent than appends).
func (c *Collector) AddJournalFsync(d time.Duration) {
	if c == nil {
		return
	}
	c.journalFsyncNS.Add(int64(d))
}

// CountWindowReplayed tallies one window whose journaled outcome was
// replayed on resume instead of being re-analysed — the window issued no
// solver queries this run.
func (c *Collector) CountWindowReplayed() {
	if c == nil {
		return
	}
	c.journalReplayed.Add(1)
}

// CountChunkCacheHit tallies one random-access event lookup served from
// an already-decoded chunk (internal/tracev2's report-rendering path).
func (c *Collector) CountChunkCacheHit() {
	if c == nil {
		return
	}
	c.chunkCacheHits.Add(1)
}

// CountChunkCacheMiss tallies one random-access lookup that had to
// decode its chunk from the mapped file.
func (c *Collector) CountChunkCacheMiss() {
	if c == nil {
		return
	}
	c.chunkCacheMisses.Add(1)
}

// ChunkCacheHits returns the chunk-cache hit tally.
func (c *Collector) ChunkCacheHits() int64 {
	if c == nil {
		return 0
	}
	return c.chunkCacheHits.Load()
}

// ChunkCacheMisses returns the chunk-cache miss tally.
func (c *Collector) ChunkCacheMisses() int64 {
	if c == nil {
		return 0
	}
	return c.chunkCacheMisses.Load()
}

// SetMmapBytes records the bytes of trace file currently mapped into
// the address space (0 when the reader fell back to an in-memory read).
func (c *Collector) SetMmapBytes(n int64) {
	if c == nil {
		return
	}
	c.mmapBytes.Store(n)
}

// MmapBytes returns the mapped trace bytes gauge.
func (c *Collector) MmapBytes() int64 {
	if c == nil {
		return 0
	}
	return c.mmapBytes.Load()
}

// CountShardWindow tallies one window considered by a sharded run:
// owned windows are analysed by this shard, skipped ones belong to
// other shards under the deterministic widx-mod-N partition.
func (c *Collector) CountShardWindow(owned bool) {
	if c == nil {
		return
	}
	if owned {
		c.shardWindowsOwned.Add(1)
	} else {
		c.shardWindowsSkipped.Add(1)
	}
}

// ShardWindowsOwned returns the owned-window tally of a sharded run.
func (c *Collector) ShardWindowsOwned() int64 {
	if c == nil {
		return 0
	}
	return c.shardWindowsOwned.Load()
}

// ShardWindowsSkipped returns the skipped-window tally of a sharded run.
func (c *Collector) ShardWindowsSkipped() int64 {
	if c == nil {
		return 0
	}
	return c.shardWindowsSkipped.Load()
}

// CountShardOutcomeMerged tallies one journaled window outcome adopted
// from a shard journal during a merge run.
func (c *Collector) CountShardOutcomeMerged() {
	if c == nil {
		return
	}
	c.shardOutcomesMerged.Add(1)
}

// ShardOutcomesMerged returns the merged-outcome tally.
func (c *Collector) ShardOutcomesMerged() int64 {
	if c == nil {
		return 0
	}
	return c.shardOutcomesMerged.Load()
}

// CountShardConflict tallies one duplicate window outcome discarded
// during a shard-journal merge: two journals both held the window and
// the first-listed one won (journal.RecoverShards' deterministic rule).
func (c *Collector) CountShardConflict() {
	if c == nil {
		return
	}
	c.shardConflicts.Add(1)
}

// ShardConflicts returns the discarded-duplicate tally of shard merges.
func (c *Collector) ShardConflicts() int64 {
	if c == nil {
		return 0
	}
	return c.shardConflicts.Load()
}

// CountLeaseGranted tallies one window-shard lease handed to a fleet
// worker (speculative re-executions included).
func (c *Collector) CountLeaseGranted() {
	if c == nil {
		return
	}
	c.leasesGranted.Add(1)
}

// LeasesGranted returns the granted-lease tally.
func (c *Collector) LeasesGranted() int64 {
	if c == nil {
		return 0
	}
	return c.leasesGranted.Load()
}

// CountLeaseExpired tallies one lease whose deadline lapsed without a
// renewing heartbeat (worker stalled, crashed or disconnected).
func (c *Collector) CountLeaseExpired() {
	if c == nil {
		return
	}
	c.leasesExpired.Add(1)
}

// LeasesExpired returns the expired-lease tally.
func (c *Collector) LeasesExpired() int64 {
	if c == nil {
		return 0
	}
	return c.leasesExpired.Load()
}

// CountLeaseReassigned tallies one shard put back on the pending queue
// for another worker after its lease expired or its worker vanished.
func (c *Collector) CountLeaseReassigned() {
	if c == nil {
		return
	}
	c.leasesReassigned.Add(1)
}

// LeasesReassigned returns the reassigned-lease tally.
func (c *Collector) LeasesReassigned() int64 {
	if c == nil {
		return 0
	}
	return c.leasesReassigned.Load()
}

// CountSpeculativeWin tallies one window whose first valid result came
// from a speculative re-execution lease rather than the original one.
func (c *Collector) CountSpeculativeWin() {
	if c == nil {
		return
	}
	c.speculativeWins.Add(1)
}

// SpeculativeWins returns the speculative-win tally.
func (c *Collector) SpeculativeWins() int64 {
	if c == nil {
		return 0
	}
	return c.speculativeWins.Load()
}

// CountWorkerDisconnect tallies one fleet worker connection lost before
// the coordinator released it.
func (c *Collector) CountWorkerDisconnect() {
	if c == nil {
		return
	}
	c.workerDisconnects.Add(1)
}

// WorkerDisconnects returns the lost-worker tally.
func (c *Collector) WorkerDisconnects() int64 {
	if c == nil {
		return 0
	}
	return c.workerDisconnects.Load()
}

// CountTornTailTruncated tallies one torn journal tail (truncated or
// corrupt final region) detected and truncated away during recovery.
func (c *Collector) CountTornTailTruncated() {
	if c == nil {
		return
	}
	c.journalTorn.Add(1)
}

// WindowDone appends one window's record. Records may arrive in any order
// (parallel mode); Snapshot sorts them by offset.
func (c *Collector) WindowDone(rec WindowRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.windows = append(c.windows, rec)
	c.mu.Unlock()
}

// Snapshot returns the collector's current totals as a Metrics value. The
// collector may keep accumulating afterwards; the snapshot is detached.
func (c *Collector) Snapshot() *Metrics {
	if c == nil {
		return nil
	}
	m := &Metrics{
		Phases: PhaseNanos{
			TraceScan:  c.phases[PhaseTraceScan].Load(),
			Enumerate:  c.phases[PhaseEnumerate].Load(),
			MHB:        c.phases[PhaseMHB].Load(),
			QuickCheck: c.phases[PhaseQuickCheck].Load(),
			Encode:     c.phases[PhaseEncode].Load(),
			Checkpoint: c.phases[PhaseCheckpoint].Load(),
			Solve:      c.phases[PhaseSolve].Load(),
			Witness:    c.phases[PhaseWitness].Load(),
		},
		Solver: SolverCounters{
			Decisions:         c.decisions.Load(),
			Propagations:      c.propagations.Load(),
			Conflicts:         c.conflicts.Load(),
			Restarts:          c.restarts.Load(),
			Learned:           c.learned.Load(),
			TheoryProps:       c.theoryProps.Load(),
			TheoryConflicts:   c.theoryConfl.Load(),
			IDLAsserts:        c.idlAsserts.Load(),
			IDLNegativeCycles: c.idlNegCycles.Load(),
			IDLRepairSteps:    c.idlRepairs.Load(),
			InternedAtoms:     c.internedAtoms.Load(),
			TseitinVars:       c.tseitinVars.Load(),
			TseitinClauses:    c.tseitinClauses.Load(),
			BoolVars:          c.boolVars.Load(),
			Clauses:           c.clauses.Load(),
			IntVars:           c.intVars.Load(),
			Solvers:           c.solvers.Load(),
		},
		Outcomes: OutcomeTally{
			Sat:                c.outSat.Load(),
			Unsat:              c.outUnsat.Load(),
			Timeout:            c.outTime.Load(),
			ConflictBudget:     c.outBudget.Load(),
			Cancelled:          c.outCancelled.Load(),
			Enumerated:         c.enumerated.Load(),
			QuickCheckFiltered: c.quickFiltered.Load(),
			SigDedupHits:       c.sigDedups.Load(),
			MHBFiltered:        c.mhbFiltered.Load(),
			RetriesScheduled:   c.retriesScheduled.Load(),
			RetriesSolved:      c.retriesSolved.Load(),
			RetrySat:           c.retrySat.Load(),
			BudgetExhausted:    c.budgetExhausted.Load(),
			WindowFailures:     c.windowFailures.Load(),
		},
		PairSched: PairSchedCounters{
			Groups:      c.pairGroups.Load(),
			Workers:     c.pairWorkers.Load(),
			Replicas:    c.pairReplicas.Load(),
			Rollbacks:   c.pairRollbacks.Load(),
			SigSkips:    c.pairSkips.Load(),
			QueueWaitNS: c.queueWait.Load(),
		},
		Triage: TriageCounters{
			Confirmed:      c.triConfirmed.Load(),
			WCPConfirmed:   c.triWCPConfirmed.Load(),
			SyncPConfirmed: c.triSPConfirmed.Load(),
			CPConfirmed:    c.triCPConfirmed.Load(),
			Dispatched:     c.triDispatched.Load(),
			FastPathNS:     c.triFastPath.Load(),
		},
		Journal: JournalCounters{
			RecordsWritten:    c.journalRecords.Load(),
			WindowsReplayed:   c.journalReplayed.Load(),
			Bytes:             c.journalBytes.Load(),
			FsyncNS:           c.journalFsyncNS.Load(),
			TornTailTruncated: c.journalTorn.Load(),
		},
	}
	m.Outcomes.Solved = m.Outcomes.Sat + m.Outcomes.Unsat +
		m.Outcomes.Timeout + m.Outcomes.ConflictBudget + m.Outcomes.Cancelled

	c.mu.Lock()
	m.Windows = append([]WindowRecord(nil), c.windows...)
	c.mu.Unlock()
	sort.Slice(m.Windows, func(i, j int) bool {
		return m.Windows[i].Offset < m.Windows[j].Offset
	})
	for i := range m.Windows {
		m.Windows[i].Index = i
	}
	m.WindowCount = len(m.Windows)
	return m
}

// Metrics is the machine-readable telemetry snapshot. Field names are
// stable: they are the contract of cmd/rvpredict -json and cmd/table1
// -json, tracked across PRs to follow the performance trajectory.
//
// All durations are integer nanoseconds so the structure round-trips
// losslessly through encoding/json. Only the *_ns fields and WindowRecord
// elapsed times vary between runs; every other field is deterministic for
// a sequential run.
type Metrics struct {
	Phases      PhaseNanos        `json:"phases"`
	Solver      SolverCounters    `json:"solver"`
	Outcomes    OutcomeTally      `json:"outcomes"`
	PairSched   PairSchedCounters `json:"pair_scheduler"`
	Triage      TriageCounters    `json:"triage"`
	Journal     JournalCounters   `json:"journal"`
	WindowCount int               `json:"window_count"`
	Windows     []WindowRecord    `json:"windows,omitempty"`
}

// NonTiming returns a copy of m with every timing field zeroed — the
// deterministic remainder used by regression and determinism tests.
func (m *Metrics) NonTiming() Metrics {
	out := *m
	out.Phases = PhaseNanos{}
	// Groups is deterministic, but worker/replica/rollback counts depend on
	// the global worker budget and queue timing, so they are zeroed along
	// with the queue-wait clock.
	out.PairSched.Workers = 0
	out.PairSched.Replicas = 0
	out.PairSched.Rollbacks = 0
	out.PairSched.QueueWaitNS = 0
	out.Triage.FastPathNS = 0
	// The journal block describes this run's persistence activity, not the
	// detection result: a resumed run legitimately differs from a clean one
	// (that is the point), and bytes/fsync time vary with group commit.
	out.Journal = JournalCounters{}
	out.Windows = append([]WindowRecord(nil), m.Windows...)
	for i := range out.Windows {
		out.Windows[i].ElapsedNS = 0
	}
	return out
}

// PhaseNanos is cumulative wall-clock time per pipeline phase, in
// nanoseconds. Parallel windows accumulate concurrently, so the phase sum
// can exceed the report's elapsed wall-clock time.
type PhaseNanos struct {
	TraceScan  int64 `json:"trace_scan_ns"`
	Enumerate  int64 `json:"cop_enumeration_ns"`
	MHB        int64 `json:"mhb_ns"`
	QuickCheck int64 `json:"quick_check_ns"`
	Encode     int64 `json:"encode_ns"`
	Checkpoint int64 `json:"checkpoint_ns"`
	Solve      int64 `json:"solve_ns"`
	Witness    int64 `json:"witness_ns"`
}

// Total returns the summed phase time.
func (p PhaseNanos) Total() time.Duration {
	return time.Duration(p.TraceScan + p.Enumerate + p.MHB + p.QuickCheck +
		p.Encode + p.Checkpoint + p.Solve + p.Witness)
}

// PairSchedCounters describes the intra-window pair scheduler: how many
// signature groups were dispatched, how many workers and replica encodings
// served them, and the aggregate queue-wait. Groups is deterministic; the
// other fields vary with scheduling and are excluded from NonTiming.
type PairSchedCounters struct {
	Groups    int64 `json:"groups"`
	Workers   int64 `json:"workers"`
	Replicas  int64 `json:"replicas"`
	Rollbacks int64 `json:"rollbacks"`
	// SigSkips counts dispatched group instances skipped at solve time
	// because their signature's verdict was already decided. Deterministic
	// for sequential and pair-parallel runs; under window parallelism the
	// cross-slice verdict share makes it timing-dependent.
	SigSkips    int64 `json:"sig_skips"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
}

// TriageCounters describes the sound triage ladder that runs before the
// pair scheduler, one counter per rung: Confirmed COPs were proven races
// by the SHB epoch/clock fast path alone (no solver query unless a
// witness was requested), WCPConfirmed by the weak-causally-precedes gate
// plus the sync-preserving witness check, SyncPConfirmed by the witness
// check alone, CPConfirmed by the opt-in causally-precedes tier, and
// Dispatched COPs went to the SMT scheduler unchanged. The counts are
// deterministic (classification happens in canonical order before
// dispatch, attributed to the cheapest rung that proves the pair);
// FastPathNS is the ladder's wall-clock cost and is excluded from
// NonTiming.
type TriageCounters struct {
	Confirmed      int64 `json:"confirmed"`
	WCPConfirmed   int64 `json:"wcp_confirmed"`
	SyncPConfirmed int64 `json:"syncp_confirmed"`
	CPConfirmed    int64 `json:"cp_confirmed"`
	Dispatched     int64 `json:"dispatched"`
	FastPathNS     int64 `json:"fast_path_ns"`
}

// JournalCounters describes the durable window journal's activity:
// records written (window records only — the header is counted in Bytes
// but not RecordsWritten), windows replayed from the journal on resume,
// total framed bytes written, cumulative fsync wall-clock, and torn tails
// truncated during recovery. Excluded from NonTiming wholesale: a resumed
// run's journal block is expected to differ from a clean run's.
type JournalCounters struct {
	RecordsWritten    int64 `json:"records_written"`
	WindowsReplayed   int64 `json:"windows_replayed"`
	Bytes             int64 `json:"bytes"`
	FsyncNS           int64 `json:"fsync_ns"`
	TornTailTruncated int64 `json:"torn_tail_truncated"`
}

// SolverCounters aggregates the solver-stack counters over every solver
// the run constructed: the CDCL core (sat.Stats), the IDL theory
// (idl.Stats) and the formula encoder (smt.EncodeStats), plus final
// encoding sizes.
type SolverCounters struct {
	// CDCL core (sat.Stats).
	Decisions       int64 `json:"decisions"`
	Propagations    int64 `json:"propagations"`
	Conflicts       int64 `json:"conflicts"`
	Restarts        int64 `json:"restarts"`
	Learned         int64 `json:"learned_clauses"`
	TheoryProps     int64 `json:"theory_propagations"`
	TheoryConflicts int64 `json:"theory_conflicts"`
	// IDL theory (idl.Stats).
	IDLAsserts        int64 `json:"idl_atom_assertions"`
	IDLNegativeCycles int64 `json:"idl_negative_cycles"`
	IDLRepairSteps    int64 `json:"idl_repair_steps"`
	// Encoder (smt.EncodeStats) and encoding sizes.
	InternedAtoms  int64 `json:"interned_atoms"`
	TseitinVars    int64 `json:"tseitin_vars"`
	TseitinClauses int64 `json:"tseitin_clauses"`
	BoolVars       int64 `json:"bool_vars"`
	Clauses        int64 `json:"clauses"`
	IntVars        int64 `json:"int_vars"`
	// Solvers is how many solver instances contributed to the sizes above.
	Solvers int64 `json:"solvers"`
}

// OutcomeTally is the candidate funnel: how many candidates were
// enumerated, how many each prefilter removed, how every solver query
// ended, and how the run degraded (retries, budget exhaustion, cancelled
// queries, isolated window panics). Solved counts solve attempts, so a
// run with retries reports Solved greater than the pairs checked; the
// degraded-outcome fields make every soundness-relevant gap — a pair not
// decided sat/unsat, a window lost to a panic — visible in the JSON
// output rather than silent.
type OutcomeTally struct {
	Enumerated         int64 `json:"candidates_enumerated"`
	QuickCheckFiltered int64 `json:"quick_check_filtered"`
	SigDedupHits       int64 `json:"signature_dedup_hits"`
	MHBFiltered        int64 `json:"mhb_filtered"`
	Solved             int64 `json:"queries_solved"`
	Sat                int64 `json:"sat"`
	Unsat              int64 `json:"unsat"`
	Timeout            int64 `json:"timeout"`
	ConflictBudget     int64 `json:"conflict_budget_exhausted"`
	// Cancelled counts queries aborted by context cancellation.
	Cancelled int64 `json:"cancelled"`
	// RetriesScheduled counts pairs whose cheap first-pass budget expired
	// and that were deferred to the escalating second pass;
	// RetriesSolved of those reached a verdict on retry, RetrySat of
	// those were races the first pass would have abandoned.
	RetriesScheduled int64 `json:"retries_scheduled"`
	RetriesSolved    int64 `json:"retries_solved"`
	RetrySat         int64 `json:"retry_sat"`
	// BudgetExhausted counts candidates skipped outright because the
	// run's global wall-clock budget was exhausted.
	BudgetExhausted int64 `json:"budget_exhausted"`
	// WindowFailures counts window workers that panicked and were
	// isolated (see the report's window_failures list for coordinates).
	WindowFailures int64 `json:"window_failures"`
}

// WindowRecord summarises one analysis window.
type WindowRecord struct {
	// Index is the window's position in trace order (assigned by
	// Snapshot); Offset is the index of its first event in the input
	// trace.
	Index  int `json:"index"`
	Offset int `json:"offset"`
	// Events is the window length; Candidates the enumerated candidate
	// count; Solved the solver queries issued; Findings the
	// races/deadlocks/violations attributed to the window.
	Events     int `json:"events"`
	Candidates int `json:"candidates"`
	Solved     int `json:"solved"`
	Findings   int `json:"findings"`
	// ElapsedNS is the window's wall-clock analysis time.
	ElapsedNS int64 `json:"elapsed_ns"`
}
