// Package rvpredict is the public face of this repository: maximal sound
// predictive data-race detection with control flow abstraction, after
// Huang, Meredith and Roșu (PLDI 2014).
//
// Given one observed, sequentially consistent execution trace (built with
// repro/trace, produced by the repro/minilang interpreter, or decoded from
// a trace file), Run explores every reordering permitted by the paper's
// maximal causal model and reports each conflicting pair of accesses that
// some feasible reordering schedules back to back. Every reported race is
// real (soundness, Theorem 1/3) and no sound detector working from the
// same trace can report more (maximality, Theorem 2/3).
//
// The three sound baselines the paper compares against — happens-before,
// causally-precedes and the whole-trace SMT encoding of Said et al. — and
// the unsound hybrid quick check are available through
// Options.Algorithm, making side-by-side comparisons (the paper's Table 1)
// one loop.
//
//	tr := trace.NewBuilder(). … .Trace()
//	report, err := rvpredict.Run(ctx, tr, rvpredict.Options{Witness: true})
//	if err != nil {
//		return err
//	}
//	for _, r := range report.Races {
//		fmt.Println(r.Description)
//	}
//
// Run is the one validated entry point; Detect is Run for callers whose
// options are fixed and valid.
package rvpredict

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/deadlock"
	"repro/internal/faultinject"
	"repro/internal/hb"
	"repro/internal/journal"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/said"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/trace"
)

// Algorithm selects a detection technique.
type Algorithm int

// Available techniques.
const (
	// MaximalCF is the paper's contribution: SMT-based maximal detection
	// with control-flow (branch) feasibility constraints.
	MaximalCF Algorithm = iota
	// SaidEtAl is the SMT baseline with whole-trace read–write consistency
	// (NFM 2011).
	SaidEtAl
	// CausallyPrecedes is the CP relation of Smaragdakis et al. (POPL 2012).
	CausallyPrecedes
	// HappensBefore is the classical vector-clock detector.
	HappensBefore
	// QuickCheck is the unsound hybrid lockset/weak-HB filter (reports
	// potential races; Table 1's QC column).
	QuickCheck
)

// String returns the Table 1 column name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MaximalCF:
		return "RV"
	case SaidEtAl:
		return "Said"
	case CausallyPrecedes:
		return "CP"
	case HappensBefore:
		return "HB"
	case QuickCheck:
		return "QC"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MarshalJSON encodes the algorithm as its Table 1 column name.
func (a Algorithm) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// UnmarshalJSON decodes a Table 1 column name (or a legacy integer).
func (a *Algorithm) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		var n int
		if err2 := json.Unmarshal(data, &n); err2 != nil {
			return err
		}
		*a = Algorithm(n)
		return nil
	}
	for _, cand := range []Algorithm{MaximalCF, SaidEtAl, CausallyPrecedes, HappensBefore, QuickCheck} {
		if cand.String() == name {
			*a = cand
			return nil
		}
	}
	return fmt.Errorf("rvpredict: unknown algorithm %q", name)
}

// Telemetry is the machine-readable metrics snapshot attached to reports
// when Options.Telemetry is set: phase timings, solver-stack counters
// (CDCL, IDL theory, encoder), candidate-funnel outcome tallies, and
// per-window records. See internal/telemetry for field documentation and
// doc/observability.md for the counter glossary.
type Telemetry = telemetry.Metrics

// Tracer receives live progress callbacks during detection (window
// lifecycle and per-query verdicts). Implementations must be safe for
// concurrent use when Options.Parallelism > 1.
type Tracer = telemetry.Tracer

// Outcome classifies how one solver query ended (see Tracer.QuerySolved).
type Outcome = telemetry.Outcome

// Query outcomes reported to tracers.
const (
	OutcomeSat            = telemetry.OutcomeSat
	OutcomeUnsat          = telemetry.OutcomeUnsat
	OutcomeTimeout        = telemetry.OutcomeTimeout
	OutcomeConflictBudget = telemetry.OutcomeConflictBudget
	OutcomeCancelled      = telemetry.OutcomeCancelled
)

// Options configures Run. The zero value runs the paper's algorithm
// with its defaults: 10K-event windows and a 60-second per-pair solver
// timeout.
type Options struct {
	// Algorithm selects the technique (default MaximalCF).
	Algorithm Algorithm
	// WindowSize is the trace window length (default 10000; negative
	// analyses the whole trace in one window).
	WindowSize int
	// SolveTimeout bounds each conflicting pair's solver run for the
	// SMT-based techniques. The zero value maps to 60s, the paper's
	// setting; a negative value disables the bound. (The internal
	// detectors uniformly treat ≤ 0 as unbounded; this layer owns the
	// zero-means-default mapping.)
	SolveTimeout time.Duration
	// FirstPassTimeout, when positive and smaller than the effective
	// SolveTimeout, enables the two-pass adaptive scheduler of the
	// MaximalCF detector: every pair is first solved under this cheap
	// budget, and pairs that time out are re-solved afterwards with
	// geometrically escalating budgets (up to SolveTimeout and the
	// remaining GlobalBudget). Retries are visible in Report.Telemetry
	// and Report.PairsRetried.
	FirstPassTimeout time.Duration
	// GlobalBudget, when positive, bounds the whole detection run's
	// wall clock. When it expires, remaining solver work is skipped, the
	// report is flagged BudgetExhausted, and results produced so far are
	// returned (sound but not maximal). MaximalCF only.
	GlobalBudget time.Duration
	// MaxConflicts optionally bounds each pair's CDCL search (0 = off).
	MaxConflicts int64
	// Witness requests a witness schedule per race (SMT techniques only).
	Witness bool
	// Parallelism > 1 analyses trace windows concurrently with that many
	// workers (MaximalCF only); reports stay deterministic.
	Parallelism int
	// PairParallelism > 1 solves the candidate pairs inside each window
	// concurrently with that many workers (MaximalCF only). It is the
	// knob for traces that produce one large window, where Parallelism
	// alone cannot help; the report is bit-identical to the sequential
	// run (see core.Options.PairParallelism). The two knobs compose under
	// one worker budget of max(Parallelism, PairParallelism).
	PairParallelism int
	// NoTriage disables the sound triage ladder of the MaximalCF
	// detector, which confirms candidate pairs as races without a solver
	// query. The report is bit-identical with triage on or off (absent
	// real wall-clock solver timeouts); the knob exists for measurement
	// and as an escape hatch. See doc/performance.md.
	NoTriage bool
	// TriageLevel caps the triage ladder at a named rung (MaximalCF
	// only): "shb" (vector clocks only), "wcp" (adds the
	// weak-causally-precedes gate over the sync-preserving witness
	// check), "syncp" (adds the witness check alone — the default, also
	// spelled ""), or "cp" (adds the opt-in causally-precedes tier for
	// lock-heavy traces). Every level produces a bit-identical report;
	// the knob trades per-window analysis time against solver queries.
	// Unknown values fail Validate. See core.Options.TriageLevel and
	// doc/performance.md.
	TriageLevel string
	// Telemetry attaches a Telemetry metrics snapshot to the report:
	// phase timings, solver counters and outcome tallies. Collection is
	// allocation-light but not free; leave it off on hot paths. Enabling
	// it never changes what is detected.
	Telemetry bool
	// Tracer, when non-nil, receives live progress callbacks (window
	// lifecycle, per-query verdicts) during SMT-based detection. It is
	// independent of Telemetry.
	Tracer Tracer
	// FaultInjector, when non-nil, wires a deterministic fault-injection
	// script into the MaximalCF pipeline. It exists for resilience tests
	// only — injected faults make the detector deliberately under-report
	// — and must stay nil in production use.
	FaultInjector *faultinject.Injector
	// Journal, when non-empty, is the path of a durable window journal
	// (MaximalCF via Run only): every window that reaches a final
	// verdict is appended as a CRC-framed record, so a run killed by a
	// crash can be resumed without repeating completed solver work. See
	// internal/journal and doc/robustness.md.
	Journal string
	// Resume replays the windows recorded in Journal instead of
	// re-analysing them, then continues journaling the rest. The
	// journal's header fingerprint must match this run (same trace, same
	// result-affecting options) or Run refuses with journal.ErrFingerprint.
	// Requires Journal.
	Resume bool
	// JournalGroupCommit is the journal's batched-fsync interval: an
	// append only fsyncs when this much time has passed since the last
	// sync, bounding a crash's data loss to one interval's records
	// (which a resume simply re-analyses — exactness is unaffected).
	// 0 means DefaultJournalGroupCommit; negative is invalid. Use a
	// tiny positive value (1ns) to force a sync on every append.
	JournalGroupCommit time.Duration
	// DebugAddr, when non-empty, serves the live introspection
	// endpoints — /metrics (Prometheus text exposition), /progress
	// (server-sent candidate-funnel events), /races (the races found so
	// far with their provenance) and /debug/pprof — on this TCP address
	// for the duration of the run. ":0" binds an ephemeral port;
	// OnDebugAddr reports what was bound. Purely observational: excluded from the journal fingerprint, never
	// changes what is detected. The /races feed follows the MaximalCF
	// window-completion hook; baseline algorithms expose metrics only.
	DebugAddr string
	// OnDebugAddr, when non-nil, is called once with the introspection
	// server's bound address ("host:port") before detection begins —
	// the rendezvous for DebugAddr ":0". Requires DebugAddr.
	OnDebugAddr func(addr string)
	// TraceReader, when non-nil, supplies the trace out-of-core instead
	// of the tr argument (which must then be nil): Run analyses windows
	// streamed from the reader — O(window + chunk) events live per
	// window worker, never the whole trace — and renders the report
	// through the reader's random-access path. Implemented by
	// internal/tracev2's chunked-file Reader and its in-memory adapter.
	// MaximalCF analyses out-of-core; baseline algorithms materialise the
	// trace via ReadAll first. Every window is analysed with fresh
	// per-window signature state (no skip hint, see Run's skip rule), so
	// the report carries the same races as the in-memory path but counts
	// solver work per window.
	TraceReader TraceReader
	// Shards, when > 0, enables deterministic window sharding (MaximalCF
	// only): this process analyses only
	// the windows whose index ≡ ShardID (mod Shards) and journals their
	// outcomes, so N cooperating processes — each with its own Journal —
	// cover the trace. MergeShards combines the shard journals into one
	// report identical to a single-process reader run. Shards > 1
	// requires Journal (an unjournaled shard's work cannot be merged);
	// Shards == 1 is the degenerate single-shard run. Excluded from the
	// journal fingerprint, like Parallelism: any shard layout yields the
	// same per-window outcomes.
	Shards int
	// ShardID is this process's shard index in [0, Shards). Requires
	// Shards.
	ShardID int
	// Spans, when non-nil, records the run's span timeline — run,
	// window, MHB/encode/triage/solve phases, pair-scheduler worker
	// occupancy, journal fsync stalls — into the given bounded ring
	// recorder (MaximalCF detail; other algorithms record the run span
	// only). Export with SpanRecorder.WriteChromeTrace for
	// chrome://tracing or Perfetto. Observational only, like DebugAddr.
	Spans *SpanRecorder
	// Collector, when non-nil, is the telemetry collector the run
	// accumulates its counters into, instead of an internal one. It lets
	// a supervising process — the fleet coordinator, a test harness —
	// observe counters that never reach the report snapshot (shard and
	// fleet counters) and aggregate several runs (e.g. repeated merges)
	// into one set of gauges. Observational only, like DebugAddr: it is
	// excluded from the journal fingerprint and never changes what is
	// detected. Telemetry still controls whether the report carries a
	// snapshot.
	Collector *telemetry.Collector

	// onWindowDone and resumeWindows are the journal plumbing installed
	// by Run and MergeShards; col carries the run's collector so the
	// journal writer and the detector share one.
	onWindowDone  func(race.WindowOutcome)
	resumeWindows map[int]race.WindowOutcome
	col           *telemetry.Collector
}

// DefaultJournalGroupCommit is the journal fsync batching interval used
// when Options.JournalGroupCommit is zero.
const DefaultJournalGroupCommit = 100 * time.Millisecond

// OptionsError reports one invalid Options field (or field combination)
// rejected by Validate. It is the single typed error for every rejected
// configuration, so callers can errors.As on it and print Field/Reason.
type OptionsError struct {
	// Field names the offending option (the first one found, in a fixed
	// check order); Reason says what is wrong with it.
	Field  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("rvpredict: invalid Options.%s: %s", e.Field, e.Reason)
}

// Validate checks the options for combinations with no defined meaning
// and returns an *OptionsError naming the first offending field, or nil.
// Run (and so Detect) validates up front, so misconfigurations fail
// loudly instead of producing undefined downstream behaviour.
func (o Options) Validate() error {
	if o.WindowSize < -1 {
		return &OptionsError{Field: "WindowSize", Reason: fmt.Sprintf("%d; use -1 for a single whole-trace window", o.WindowSize)}
	}
	if o.Parallelism < 0 {
		return &OptionsError{Field: "Parallelism", Reason: fmt.Sprintf("%d; worker counts cannot be negative", o.Parallelism)}
	}
	if o.PairParallelism < 0 {
		return &OptionsError{Field: "PairParallelism", Reason: fmt.Sprintf("%d; worker counts cannot be negative", o.PairParallelism)}
	}
	if o.FirstPassTimeout < 0 {
		return &OptionsError{Field: "FirstPassTimeout", Reason: "negative; use 0 to disable the two-pass scheduler"}
	}
	if o.GlobalBudget < 0 {
		return &OptionsError{Field: "GlobalBudget", Reason: "negative; use 0 for an unbounded run"}
	}
	if o.MaxConflicts < 0 {
		return &OptionsError{Field: "MaxConflicts", Reason: "negative; use 0 for an unbounded search"}
	}
	switch o.TriageLevel {
	case "", "shb", "wcp", "syncp", "cp":
	default:
		return &OptionsError{Field: "TriageLevel", Reason: fmt.Sprintf("%q; want shb, wcp, syncp or cp (empty for the default)", o.TriageLevel)}
	}
	if o.NoTriage && o.TriageLevel != "" {
		return &OptionsError{Field: "TriageLevel", Reason: "selects a triage ladder rung while NoTriage disables triage entirely"}
	}
	if o.Resume && o.Journal == "" {
		return &OptionsError{Field: "Resume", Reason: "requires Journal: there is nothing to resume from"}
	}
	if o.Journal != "" && o.Algorithm != MaximalCF {
		return &OptionsError{Field: "Journal", Reason: fmt.Sprintf("journaling supports the %s algorithm only, not %s", MaximalCF, o.Algorithm)}
	}
	if o.JournalGroupCommit < 0 {
		return &OptionsError{Field: "JournalGroupCommit", Reason: "negative; use 0 for the default interval or a tiny positive value to sync every append"}
	}
	if o.OnDebugAddr != nil && o.DebugAddr == "" {
		return &OptionsError{Field: "OnDebugAddr", Reason: "requires DebugAddr: there is no server whose address could be reported"}
	}
	if o.Shards < 0 {
		return &OptionsError{Field: "Shards", Reason: fmt.Sprintf("%d; shard counts cannot be negative", o.Shards)}
	}
	if o.Shards > 0 {
		if o.Algorithm != MaximalCF {
			return &OptionsError{Field: "Shards", Reason: fmt.Sprintf("window sharding supports the %s algorithm only, not %s", MaximalCF, o.Algorithm)}
		}
		if o.ShardID < 0 || o.ShardID >= o.Shards {
			return &OptionsError{Field: "ShardID", Reason: fmt.Sprintf("%d; want a shard index in [0, %d)", o.ShardID, o.Shards)}
		}
		if o.Shards > 1 && o.Journal == "" {
			return &OptionsError{Field: "Shards", Reason: "a multi-shard run requires Journal: an unjournaled shard's outcomes cannot be merged"}
		}
	} else if o.ShardID != 0 {
		return &OptionsError{Field: "ShardID", Reason: fmt.Sprintf("%d; requires Shards", o.ShardID)}
	}
	return nil
}

// fingerprintString is the canonical encoding of the result-affecting
// options, hashed into the journal's header fingerprint. It covers
// exactly the options that change what a window's outcome contains —
// algorithm, windowing, solver budgets and witness production — and
// deliberately excludes the options guaranteed result-identical
// (Parallelism, PairParallelism, triage mode) plus everything
// observational (telemetry, tracing, the journal knobs themselves), so a
// journal written under one parallelism/triage setting resumes under any
// other. Options are normalised first: equivalent spellings (zero vs the
// explicit default) hash equal.
func (o Options) fingerprintString() string {
	n := o.normalise()
	return fmt.Sprintf("rvpredict-options-v1 algo=%s window=%d solve=%d first=%d budget=%d conflicts=%d witness=%t",
		n.Algorithm, n.WindowSize, int64(n.SolveTimeout), int64(n.FirstPassTimeout),
		int64(n.GlobalBudget), n.MaxConflicts, n.Witness)
}

func (o Options) normalise() Options {
	if o.WindowSize == 0 {
		o.WindowSize = 10000
	}
	if o.WindowSize < 0 {
		o.WindowSize = 0
	}
	if o.SolveTimeout == 0 {
		o.SolveTimeout = 60 * time.Second
	}
	if o.SolveTimeout < 0 {
		o.SolveTimeout = 0
	}
	return o
}

// Normalised returns the options with every equivalent spelling mapped
// to its canonical form (zero WindowSize → the paper's 10000, zero
// SolveTimeout → 60 s, negatives → unbounded), exactly as the detection
// entry points do internally. The streaming layer (internal/stream)
// normalises up front so its per-window detector and a batch run over
// the same options agree bit for bit.
func (o Options) Normalised() Options { return o.normalise() }

// ResultFingerprint returns the canonical string of every
// result-affecting option (see the journal fingerprint contract): two
// option values with equal ResultFingerprint produce identical reports
// on identical traces. The streaming daemon binds each session journal
// to it in place of batch mode's whole-trace fingerprint.
func (o Options) ResultFingerprint() string { return o.fingerprintString() }

// Provenance records, for one reported race, which confirming tier
// established it (SHB triage, CP triage, the SMT solver, or a baseline
// detector's fixed tier), in which analysis window, and — when the SMT
// solver ran — what the query cost. It is attributed at merge time from
// the window's relations, so it is identical whichever execution
// strategy produced the report (sequential, window- or pair-parallel,
// triage on or off, resumed from a journal); only the operational
// Replayed flag reflects how this particular run obtained the window.
type Provenance = race.Provenance

// Race is one detected data race.
type Race struct {
	// First and Second are the indices of the racing events in the input
	// trace, in trace order.
	First  int `json:"first"`
	Second int `json:"second"`
	// Locations are the static program locations of the two accesses (the
	// race's deduplication signature), rendered through the trace's
	// location names.
	Locations [2]string `json:"locations"`
	// Description is a human-readable one-liner.
	Description string `json:"description"`
	// Witness, when requested and available, is a consistent reordered
	// prefix of event indices ending with the two racing accesses
	// scheduled back to back (Definition 4's τ₁ab).
	Witness []int `json:"witness,omitempty"`
	// Provenance identifies the confirming tier, window and solver cost
	// behind this race (see the Provenance type for the determinism
	// contract).
	Provenance Provenance `json:"provenance"`
}

// Report is the result of one Run.
type Report struct {
	// Algorithm that produced the report.
	Algorithm Algorithm `json:"algorithm"`
	// Races found, one per location pair.
	Races []Race `json:"races"`
	// Stats summarises the input trace (Table 1's metric columns).
	Stats trace.Stats `json:"stats"`
	// PairsChecked counts conflicting pairs examined.
	PairsChecked int `json:"pairs_checked"`
	// Windows is the number of analysis windows this run owns: every
	// window of the trace's layout, or a sharded run's share of them.
	Windows int `json:"windows"`
	// SolverTimeouts counts pairs abandoned at the solver budget.
	SolverTimeouts int `json:"solver_timeouts"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// PairsRetried counts pairs re-solved by the two-pass adaptive
	// scheduler (Options.FirstPassTimeout; MaximalCF only).
	PairsRetried int `json:"pairs_retried,omitempty"`
	// Interrupted reports the run was cut short by context cancellation
	// (Run's ctx / SIGINT in the CLI). The races listed are all real,
	// but coverage is partial: only the work completed before the
	// interrupt is reflected. Always present in JSON so consumers can
	// rely on the key.
	Interrupted bool `json:"interrupted"`
	// BudgetExhausted reports Options.GlobalBudget expired before every
	// candidate was solved; like Interrupted, results are sound but
	// coverage is partial.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// WindowFailures lists analysis windows whose worker panicked and was
	// isolated; all other windows' results are intact.
	WindowFailures []WindowFailure `json:"window_failures,omitempty"`
	// DegradedWindows counts analysis windows the streaming daemon
	// degraded under sustained pressure (SMT tier shed, sound-tier
	// verdicts only, races flagged Degraded in provenance). Always zero
	// in batch runs, so the key is omitted and batch reports are
	// unaffected.
	DegradedWindows int `json:"degraded_windows,omitempty"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
	// Build identifies the rvpredict build that produced the report:
	// module version and VCS revision from the binary's embedded build
	// information (see BuildInfo).
	Build BuildID `json:"build_info"`
}

// WindowFailure records one analysis window whose worker panicked. The
// panic was recovered, the window's results were dropped, and the run
// continued; the failure is surfaced here (and in Telemetry) so the
// coverage gap is never silent.
type WindowFailure struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the input trace; Events its length.
	Window int `json:"window"`
	Offset int `json:"offset"`
	Events int `json:"events"`
	// PanicValue renders the recovered panic value.
	PanicValue string `json:"panic"`
	// Stack is the goroutine stack at the recovery point.
	Stack string `json:"stack,omitempty"`
}

// Detect runs the selected race detection technique over tr: Run under
// context.Background(), panicking — like regexp.MustCompile — on the
// error Run returns for invalid options or a nil trace. Runs that can
// fail for environmental reasons (a Journal, a DebugAddr) belong to Run.
//
// The input trace must be sequentially consistent (trace.Validate); the
// detectors otherwise return results for the prefix semantics they can
// reconstruct. Detect never modifies tr.
func Detect(tr *trace.Trace, opt Options) Report {
	rep, err := Run(context.Background(), tr, opt)
	if err != nil {
		panic(err)
	}
	return rep
}

// Run is the one validated entry point. It rejects invalid options with
// an *OptionsError and analyses exactly one trace source: tr, or
// Options.TraceReader (tr must then be nil). Every algorithm reads the
// trace through that source, and every report is rendered through it.
//
// Cancelling ctx interrupts the run — the context is polled between
// windows, between pairs and inside the solver's search loop — and the
// partial report is returned with Interrupted set; every race in it is
// still real. When Options.Journal is set the run is crash-safe: every
// completed window's outcome is appended to the journal, and with
// Options.Resume the journaled windows are replayed instead of
// re-analysed, producing a report identical to an uninterrupted run's
// while issuing strictly fewer solver queries. Detection errors (an
// unreadable journal, a fingerprint mismatch, a failing reader) are
// returned, not absorbed. A nil ctx is treated as context.Background().
func Run(ctx context.Context, tr *trace.Trace, opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	src := opt.TraceReader
	switch {
	case src == nil && tr == nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "no trace source: set TraceReader or pass a non-nil trace"}
	case src != nil && tr != nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "both TraceReader and a materialised trace were supplied; pass exactly one"}
	case src == nil:
		src = tracev2.FromTrace(tr)
	}
	return run(ctx, src, opt)
}

// run is the one driver behind Run and MergeShards: it wires telemetry,
// introspection and the journal around src, analyses it and renders the
// report through it.
func run(ctx context.Context, src TraceReader, opt Options) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.normalise()
	if opt.col == nil {
		opt.col = newCollector(opt)
	}
	col := opt.col
	if at, ok := src.(interface{ AttachTelemetry(*telemetry.Collector) }); ok {
		at.AttachTelemetry(col)
	}
	if opt.DebugAddr != "" {
		srv, err := startIntrospection(src, &opt)
		if err != nil {
			return Report{}, err
		}
		defer srv.Close()
	}
	finish := func() error { return nil }
	if opt.Journal != "" {
		fp := journal.Fingerprint{
			Trace:   src.ContentHash(),
			Options: journal.OptionsFingerprint(opt.fingerprintString()),
		}
		var err error
		if finish, err = attachJournalWriter(&opt, fp, col); err != nil {
			return Report{}, err
		}
	}
	// The run span is the root of the exported timeline: everything the
	// detectors record (windows, phases, workers, journal fsyncs) parents
	// onto it via SpanRoot.
	runSpan := col.BeginSpan("run", telemetry.RunLane(), 0)
	col.Spans().SetRoot(runSpan.ID())
	res, err := detect(ctx, src, opt)
	if jerr := finish(); err == nil {
		err = jerr
	}
	if err != nil {
		runSpan.End()
		return Report{}, err
	}
	scan := col.StartPhase(telemetry.PhaseTraceScan)
	stats := src.Stats()
	scan.End()
	runSpan.End()
	var tele *Telemetry
	if opt.Telemetry {
		// The collector may exist solely for DebugAddr/Spans; the report
		// carries a snapshot only when telemetry was asked for.
		tele = col.Snapshot()
	}
	var races []Race
	for _, r := range res.Races {
		pr, err := RenderRace(src, r, opt)
		if err != nil {
			return Report{}, err
		}
		races = append(races, pr)
	}
	res.Windows = windowsOwned(src.NumEvents(), opt)
	rep := NewReport(opt, res, stats, races)
	rep.Telemetry = tele
	return rep, nil
}

// attachJournalWriter opens (or resumes) the journal at opt.Journal,
// loads any recovered outcomes into opt.resumeWindows, and composes the
// writer into opt.onWindowDone ahead of any hook already installed (the
// introspection feed): durability first, observation after. Appends run
// concurrently under Parallelism > 1 (the writer locks internally); the
// first append error is kept and surfaced by the returned finish
// function — a race that could not be made durable must not be silently
// undurable.
func attachJournalWriter(opt *Options, fp journal.Fingerprint, col *telemetry.Collector) (finish func() error, err error) {
	gc := opt.JournalGroupCommit
	if gc == 0 {
		gc = DefaultJournalGroupCommit
	}
	jopt := journal.Options{
		GroupCommit:   gc,
		Telemetry:     col,
		FaultInjector: opt.FaultInjector,
	}

	var w *journal.Writer
	if opt.Resume {
		var info journal.RecoverInfo
		w, info, err = journal.Resume(opt.Journal, fp, jopt)
		if err != nil {
			return nil, err
		}
		if info.TornTail {
			col.CountTornTailTruncated()
		}
		if len(info.Outcomes) > 0 {
			opt.resumeWindows = make(map[int]race.WindowOutcome, len(info.Outcomes))
			for _, out := range info.Outcomes {
				opt.resumeWindows[out.Window] = out
			}
		}
	} else {
		w, err = journal.Create(opt.Journal, fp, jopt)
		if err != nil {
			return nil, err
		}
	}

	prev := opt.onWindowDone
	var appendMu sync.Mutex
	var appendErr error
	opt.onWindowDone = func(out race.WindowOutcome) {
		if err := w.Append(out); err != nil {
			appendMu.Lock()
			if appendErr == nil {
				appendErr = err
			}
			appendMu.Unlock()
		}
		if prev != nil {
			prev(out)
		}
	}
	return func() error {
		closeErr := w.Close()
		appendMu.Lock()
		defer appendMu.Unlock()
		if appendErr == nil {
			appendErr = closeErr
		}
		return appendErr
	}, nil
}

// detect runs the selected algorithm over src. MaximalCF streams the
// source's windows through core's one window loop; the baselines hold
// whole-trace vector-clock state, so they materialise the trace.
//
// The skip rule: windows carry signature state across the run — a
// signature already reported is not solved again — unless the run reads
// through Options.TraceReader or is sharded (MergeShards included).
// Those runs analyse every window on its own content alone, so any
// assignment of windows to processes merges to the same report.
func detect(ctx context.Context, src TraceReader, opt Options) (race.Result, error) {
	switch opt.Algorithm {
	case SaidEtAl, CausallyPrecedes, HappensBefore, QuickCheck:
		return detectBaseline(ctx, src, opt)
	}
	windows := func(yield func(w *trace.Trace, widx, offset int) error) error {
		return src.Windows(opt.WindowSize, func(w *trace.Trace, widx, offset int) error {
			if opt.Shards > 0 {
				owned := widx%opt.Shards == opt.ShardID
				opt.col.CountShardWindow(owned)
				if !owned {
					return nil
				}
			}
			return yield(w, widx, offset)
		})
	}
	carry := opt.TraceReader == nil && opt.Shards == 0
	return core.New(opt.CoreOptions(opt.col)).Analyse(ctx, windows, carry)
}

// detectBaseline runs a baseline algorithm over the materialised trace.
func detectBaseline(ctx context.Context, src TraceReader, opt Options) (race.Result, error) {
	tr, err := src.ReadAll()
	if err != nil {
		return race.Result{}, err
	}
	if ctx.Err() != nil {
		return race.Result{Cancelled: true}, nil
	}
	var res race.Result
	switch opt.Algorithm {
	case SaidEtAl:
		return said.New(said.Options{
			WindowSize:   opt.WindowSize,
			SolveTimeout: opt.SolveTimeout,
			MaxConflicts: opt.MaxConflicts,
			Witness:      opt.Witness,
		}).DetectContext(ctx, tr), nil
	case CausallyPrecedes:
		res = cp.New(cp.Options{WindowSize: opt.WindowSize}).Detect(tr)
	case HappensBefore:
		res = hb.New(hb.Options{WindowSize: opt.WindowSize}).Detect(tr)
	default: // QuickCheck
		res = lockset.New(lockset.Options{WindowSize: opt.WindowSize}).Detect(tr)
	}
	// The vector-clock passes have no solver to interrupt: the context is
	// honoured at whole-run granularity.
	res.Cancelled = ctx.Err() != nil
	return res, nil
}

// windowsOwned is Report.Windows: the number of windows of the trace's
// layout this run owns — all of them, or under Shards every window whose
// index ≡ ShardID (mod Shards).
func windowsOwned(events int, opt Options) int {
	n := 1
	if opt.WindowSize > 0 && events > opt.WindowSize {
		n = (events + opt.WindowSize - 1) / opt.WindowSize
	}
	if opt.Shards > 0 {
		return (n - opt.ShardID + opt.Shards - 1) / opt.Shards
	}
	return n
}

// RenderRace is the one race renderer: it builds the public Race from a
// detector race, reading both events and their location names through
// src — a run's trace source, or the streaming daemon's window while its
// events are still in memory. Exported for internal/stream, like
// CoreOptions.
func RenderRace(src EventSource, r race.Race, opt Options) (Race, error) {
	a, err := src.Event(r.A)
	if err != nil {
		return Race{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.A, err)
	}
	b, err := src.Event(r.B)
	if err != nil {
		return Race{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.B, err)
	}
	locA, locB := src.LocName(a.Loc), src.LocName(b.Loc)
	return Race{
		First:       r.A,
		Second:      r.B,
		Locations:   [2]string{locA, locB},
		Description: race.DescribePair(locA, locB, a, b),
		Witness:     r.Witness,
		Provenance:  publicProvenance(r, opt),
	}, nil
}

// NewReport is the one report builder: it carries res's counters, flags
// and window failures into a Report over the trace's stats and the races
// RenderRace rendered. Telemetry and DegradedWindows are the caller's.
// Exported for internal/stream, like CoreOptions.
func NewReport(opt Options, res race.Result, stats trace.Stats, races []Race) Report {
	rep := Report{
		Algorithm:       opt.Algorithm,
		Races:           races,
		Stats:           stats,
		PairsChecked:    res.COPsChecked,
		Windows:         res.Windows,
		SolverTimeouts:  res.SolverAborts,
		Elapsed:         res.Elapsed,
		PairsRetried:    res.PairsRetried,
		Interrupted:     res.Cancelled,
		BudgetExhausted: res.BudgetExhausted,
		Build:           BuildInfo(),
	}
	for _, f := range res.Failures {
		rep.WindowFailures = append(rep.WindowFailures, WindowFailure(f))
	}
	return rep
}

// CoreOptions maps the options onto the MaximalCF detector's, with col
// as its telemetry collector: the one mapping behind every driver — Run
// here, the streaming session and the fleet worker — so a window
// analysed by any of them sees the same
// configuration. The options must already be Normalised (normalising
// twice would turn a whole-trace window into the default size).
func (o Options) CoreOptions(col *telemetry.Collector) core.Options {
	return core.Options{
		WindowSize:       o.WindowSize,
		SolveTimeout:     o.SolveTimeout,
		FirstPassTimeout: o.FirstPassTimeout,
		GlobalBudget:     o.GlobalBudget,
		MaxConflicts:     o.MaxConflicts,
		Witness:          o.Witness,
		Parallelism:      o.Parallelism,
		PairParallelism:  o.PairParallelism,
		NoTriage:         o.NoTriage,
		TriageLevel:      o.TriageLevel,
		Telemetry:        col,
		Tracer:           o.Tracer,
		FaultInjector:    o.FaultInjector,
		OnWindowDone:     o.onWindowDone,
		ResumeWindows:    o.resumeWindows,
	}
}

// publicProvenance returns the race's provenance, stamping the baseline
// detectors' fixed tier when the detector left it blank: only the
// MaximalCF core attributes per-race tiers itself. The window index is
// derived from the normalised window size (0 = whole trace = window 0).
func publicProvenance(r race.Race, opt Options) race.Provenance {
	p := r.Prov
	if p.Tier != "" {
		return p
	}
	switch opt.Algorithm {
	case CausallyPrecedes:
		p.Tier = race.TierCP
	case HappensBefore:
		p.Tier = race.TierHB
	case QuickCheck:
		p.Tier = race.TierQuickCheck
	default: // SaidEtAl and any future SMT baseline
		p.Tier = race.TierSMT
	}
	if opt.WindowSize > 0 {
		p.Window = r.A / opt.WindowSize
	}
	p.WitnessLen = len(r.Witness)
	return p
}

// newCollector returns a live collector when any observation surface
// was requested — a telemetry snapshot, the introspection server (its
// gauges read the collector) or span recording — or a nil collector,
// every method of which is a no-op, otherwise.
func newCollector(opt Options) *telemetry.Collector {
	if opt.Collector != nil {
		if opt.Spans != nil {
			opt.Collector.AttachSpans(opt.Spans)
		}
		return opt.Collector
	}
	if !opt.Telemetry && opt.DebugAddr == "" && opt.Spans == nil {
		return nil
	}
	c := telemetry.NewCollector()
	if opt.Spans != nil {
		c.AttachSpans(opt.Spans)
	}
	return c
}

// CheckWitness validates a witness schedule against the trace: program
// order, fork/join, wait/notify and lock discipline must hold and the
// racing pair must come last. It returns nil for a valid witness.
func CheckWitness(tr *trace.Trace, witness []int, first, second int) error {
	return race.ValidateWitness(tr, witness, first, second)
}

// DeadlockReport is the result of DetectDeadlocks.
type DeadlockReport struct {
	// Deadlocks found, one per static lock-inversion site pair.
	Deadlocks []PredictedDeadlock `json:"deadlocks"`
	// Candidates is the number of lock-inversion patterns examined.
	Candidates int `json:"candidates"`
	// Windows is the number of analysis windows.
	Windows int `json:"windows"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Interrupted reports the run was cut short by context cancellation;
	// the deadlocks listed are all real, but coverage is partial.
	Interrupted bool `json:"interrupted"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// PredictedDeadlock is one predicted two-thread deadlock.
type PredictedDeadlock struct {
	// Description is a human-readable one-liner naming threads, locks and
	// program locations.
	Description string `json:"description"`
	// HeldAcquires and BlockedAcquires are the event indices of the two
	// held acquires and the two acquires that block in the predicted
	// deadlocked state.
	HeldAcquires    [2]int `json:"held_acquires"`
	BlockedAcquires [2]int `json:"blocked_acquires"`
	// Witness, when requested, is a feasible schedule prefix reaching the
	// deadlocked state (both locks held, both next acquires blocked).
	Witness []int `json:"witness,omitempty"`
}

// DetectDeadlocks predicts two-thread lock-inversion deadlocks from the
// trace, using the same maximal causal model as race detection (the
// Section 2.5 generalisation): a candidate is reported only if a feasible
// reordering actually reaches the deadlocked state, so gate-locked or
// control-flow-guarded inversions are proved safe rather than reported.
func DetectDeadlocks(tr *trace.Trace, opt Options) DeadlockReport {
	return DetectDeadlocksContext(context.Background(), tr, opt)
}

// DetectDeadlocksContext is DetectDeadlocks under a context; cancelling
// ctx interrupts the run mid-solve and returns the partial report with
// Interrupted set. A nil ctx is treated as context.Background().
func DetectDeadlocksContext(ctx context.Context, tr *trace.Trace, opt Options) DeadlockReport {
	opt = opt.normalise()
	col := newCollector(opt)
	res := deadlock.New(deadlock.Options{
		WindowSize:   opt.WindowSize,
		SolveTimeout: opt.SolveTimeout,
		MaxConflicts: opt.MaxConflicts,
		Witness:      opt.Witness,
		Telemetry:    col,
		Tracer:       opt.Tracer,
	}).DetectContext(ctx, tr)
	rep := DeadlockReport{
		Candidates:  res.Candidates,
		Windows:     res.Windows,
		Elapsed:     res.Elapsed,
		Interrupted: res.Cancelled,
	}
	if opt.Telemetry {
		rep.Telemetry = col.Snapshot()
	}
	for _, d := range res.Deadlocks {
		rep.Deadlocks = append(rep.Deadlocks, PredictedDeadlock{
			Description:     d.Describe(tr),
			HeldAcquires:    [2]int{d.HeldAcquire1, d.HeldAcquire2},
			BlockedAcquires: [2]int{d.BlockedAcquire1, d.BlockedAcquire2},
			Witness:         d.Witness,
		})
	}
	return rep
}

// AtomicityReport is the result of DetectAtomicityViolations.
type AtomicityReport struct {
	// Violations found, one per static (first, remote, second) site triple.
	Violations []AtomicityViolation `json:"violations"`
	// Candidates is the number of unserializable triples examined.
	Candidates int `json:"candidates"`
	// Windows is the number of analysis windows.
	Windows int `json:"windows"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Interrupted reports the run was cut short by context cancellation;
	// the violations listed are all real, but coverage is partial.
	Interrupted bool `json:"interrupted"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// AtomicityViolation is one predicted atomicity violation: a remote access
// that some feasible reordering schedules between two same-location
// accesses of a critical section, with an unserializable result.
type AtomicityViolation struct {
	// Description is a human-readable one-liner.
	Description string `json:"description"`
	// First and Second are the region's two accesses; Remote is the
	// interleaving access (event indices).
	First  int `json:"first"`
	Second int `json:"second"`
	Remote int `json:"remote"`
	// Witness, when requested, is a feasible schedule prefix ending with
	// the second region access, with the remote access strictly between
	// the two.
	Witness []int `json:"witness,omitempty"`
}

// DetectAtomicityViolations predicts atomicity violations of critical
// sections: unserializable access triples that some feasible reordering of
// the trace realises — the third concurrency property (after races and
// deadlocks) expressible on the paper's maximal causal model (Section 2.5).
func DetectAtomicityViolations(tr *trace.Trace, opt Options) AtomicityReport {
	return DetectAtomicityViolationsContext(context.Background(), tr, opt)
}

// DetectAtomicityViolationsContext is DetectAtomicityViolations under a
// context; cancelling ctx interrupts the run mid-solve and returns the
// partial report with Interrupted set. A nil ctx is treated as
// context.Background().
func DetectAtomicityViolationsContext(ctx context.Context, tr *trace.Trace, opt Options) AtomicityReport {
	opt = opt.normalise()
	col := newCollector(opt)
	res := atomicity.New(atomicity.Options{
		WindowSize:   opt.WindowSize,
		SolveTimeout: opt.SolveTimeout,
		MaxConflicts: opt.MaxConflicts,
		Witness:      opt.Witness,
		Telemetry:    col,
		Tracer:       opt.Tracer,
	}).DetectContext(ctx, tr)
	rep := AtomicityReport{
		Candidates:  res.Candidates,
		Windows:     res.Windows,
		Elapsed:     res.Elapsed,
		Interrupted: res.Cancelled,
	}
	if opt.Telemetry {
		rep.Telemetry = col.Snapshot()
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, AtomicityViolation{
			Description: v.Describe(tr),
			First:       v.First,
			Second:      v.Second,
			Remote:      v.Remote,
			Witness:     v.Witness,
		})
	}
	return rep
}
