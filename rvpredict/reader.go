package rvpredict

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/trace"
)

// TraceReader is the out-of-core trace source Run analyses when
// Options.TraceReader is set: windows are streamed (holding O(window +
// chunk) events live, never the whole trace) and the report is rendered
// through the random-access Event/LocName path. Both implementations
// live in internal/tracev2: the chunked-file Reader (mmap-backed) and
// the in-memory MemReader adapter over a materialised trace, which
// exists so sharded runs and reader-path tests work without a file.
//
// The contract mirrors trace.Trace + race.WindowSlices exactly:
// Windows must yield the same window boundaries, carried initial
// values, and per-window events as race.WindowSlices over the
// materialised trace, so the reader path and the batch path confirm
// identical races. ContentHash must equal journal.TraceFingerprint of
// the materialised trace, so journals bind across formats unchanged.
type TraceReader interface {
	// NumEvents is the total event count.
	NumEvents() int
	// Stats returns the whole-trace statistics (Table 1's columns),
	// precomputed so the report never needs the materialised trace.
	Stats() trace.Stats
	// ContentHash is the canonical trace fingerprint — SHA-256 of the
	// legacy tracefile encoding, identical to journal.TraceFingerprint.
	ContentHash() [sha256.Size]byte
	// LocName renders a location for reports ("L%d" fallback included).
	LocName(l trace.Loc) string
	// Event returns event i by random access (chunk-cached for files).
	Event(i int) (trace.Event, error)
	// Windows streams the race.WindowSlices windowing: f is called once
	// per window with the window's trace (whole-trace link indices
	// rebased to the window, carried initial values applied), its index,
	// and the whole-trace index of its first event. A non-nil error from
	// f stops the iteration and is returned verbatim.
	Windows(size int, f func(w *trace.Trace, widx, offset int) error) error
	// ReadAll materialises the full trace (baseline algorithms only).
	ReadAll() (*trace.Trace, error)
}

// errStopWindows is the sentinel detectReader uses to stop the window
// iteration when a window is cut (cancellation or global budget); it
// never escapes to callers.
var errStopWindows = errors.New("rvpredict: stop window iteration")

// runReader is Run's out-of-core path, entered when Options.TraceReader
// is set or Options.Shards requests a sharded run. Exactly one trace
// source must be supplied: the reader, or (for sharded runs over an
// already-materialised trace) a non-nil tr, which is wrapped in the
// in-memory adapter. Baseline algorithms materialise the trace and take
// the ordinary path; MaximalCF analyses window by window via
// core.AnalyseWindow without a skip hint, whose per-window independence
// is what makes the shard partition mergeable.
func runReader(ctx context.Context, tr *trace.Trace, opt Options) (Report, error) {
	rd := opt.TraceReader
	switch {
	case rd == nil && tr == nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "sharded analysis needs a trace source: set TraceReader or pass a non-nil trace"}
	case rd != nil && tr != nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "both TraceReader and a materialised trace were supplied; pass exactly one"}
	case rd == nil:
		var err error
		rd, err = tracev2.FromTrace(tr)
		if err != nil {
			return Report{}, err
		}
	}
	if opt.Algorithm != MaximalCF {
		// Baselines hold whole-trace vector-clock state; stream-windowing
		// them buys nothing, so materialise and take the ordinary path.
		mtr, err := rd.ReadAll()
		if err != nil {
			return Report{}, err
		}
		opt.TraceReader = nil
		return Run(ctx, mtr, opt)
	}
	return runReaderDetect(ctx, rd, opt, false)
}

// runReaderDetect is the reader-path driver shared by sharded runs,
// plain out-of-core runs, and MergeShards (mergeMode): it wires
// telemetry, introspection and the journal exactly as the in-memory
// path does, streams windows through detectReader, and renders the
// report through the reader. In mergeMode the combined report is the
// authoritative run, so the per-race Replayed flag (an operational
// detail of how the merge obtained each window) is cleared — the merged
// report is identical to a clean single-process reader run's.
func runReaderDetect(ctx context.Context, rd TraceReader, opt Options, mergeMode bool) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.normalise()
	col := opt.col
	if col == nil {
		col = newCollector(opt)
	}
	opt.col = col
	if at, ok := rd.(interface{ AttachTelemetry(*telemetry.Collector) }); ok {
		at.AttachTelemetry(col)
	}
	if opt.DebugAddr != "" {
		srv, err := startIntrospection(locOfReader(rd), &opt)
		if err != nil {
			return Report{}, err
		}
		defer srv.Close()
	}
	var finish func() error
	if opt.Journal != "" {
		fp := journal.Fingerprint{
			Trace:   rd.ContentHash(),
			Options: journal.OptionsFingerprint(opt.fingerprintString()),
		}
		var err error
		finish, err = attachJournalWriter(&opt, fp, col)
		if err != nil {
			return Report{}, err
		}
	}
	res, err := detectReader(ctx, rd, opt, col)
	if finish != nil {
		if jerr := finish(); jerr != nil && err == nil {
			err = jerr
		}
	}
	if err != nil {
		return Report{}, err
	}
	if mergeMode {
		for i := range res.Races {
			res.Races[i].Prov.Replayed = false
		}
	}
	return buildReaderReport(rd, res, opt, col)
}

// detectReader streams the reader's windows through core.AnalyseWindow
// with no skip hint, so every window is analysed in isolation, and
// merges the outcomes in window order. In a sharded run only the windows
// whose index ≡ ShardID (mod Shards) are analysed; the rest are skipped
// (and counted). The merge deduplicates races by signature, earliest
// window first — exactly the order the sequential batch driver confirms
// them in — so a full (unsharded) reader run and an N-shard merge
// reconstruct the same race list. A cut window's partial races are
// merged and end the iteration.
func detectReader(ctx context.Context, rd TraceReader, opt Options, col *telemetry.Collector) (race.Result, error) {
	d := core.New(opt.CoreOptions(col))
	start := time.Now()
	var deadline time.Time
	if opt.GlobalBudget > 0 {
		deadline = start.Add(opt.GlobalBudget)
	}
	runSpan := col.BeginSpan("run", telemetry.RunLane(), 0)
	col.Spans().SetRoot(runSpan.ID())
	m := d.NewMerge()
	windows := 0
	err := rd.Windows(opt.WindowSize, func(w *trace.Trace, widx, offset int) error {
		if opt.Shards > 0 {
			owned := widx%opt.Shards == opt.ShardID
			col.CountShardWindow(owned)
			if !owned {
				return nil
			}
		}
		out, status := d.AnalyseWindow(ctx, deadline, w, widx, offset, nil, false)
		m.Add(out, status)
		if status == core.WindowCut {
			return errStopWindows
		}
		windows++
		return nil
	})
	runSpan.End()
	res := m.Result()
	res.Windows = windows
	res.Elapsed = time.Since(start)
	if err != nil && err != errStopWindows {
		return res, err
	}
	return res, nil
}

// locOfReader adapts a TraceReader to the event-index → location
// accessor startIntrospection renders race views through.
func locOfReader(rd TraceReader) func(int) string {
	return func(i int) string {
		e, err := rd.Event(i)
		if err != nil {
			return "?"
		}
		return rd.LocName(e.Loc)
	}
}

// buildReaderReport renders the merged result through the reader's
// random-access path, producing the same report DetectContext builds
// from a materialised trace: stats from the reader's precomputed
// whole-trace statistics, race locations and descriptions through
// Event/LocName (byte-identical to race.Describe over the materialised
// trace).
func buildReaderReport(rd TraceReader, res race.Result, opt Options, col *telemetry.Collector) (Report, error) {
	scan := col.StartPhase(telemetry.PhaseTraceScan)
	stats := rd.Stats()
	scan.End()
	rep := Report{
		Algorithm:       opt.Algorithm,
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
	if opt.Telemetry {
		rep.Telemetry = col.Snapshot()
	}
	for _, f := range res.Failures {
		rep.WindowFailures = append(rep.WindowFailures, WindowFailure(f))
	}
	for _, r := range res.Races {
		evA, err := rd.Event(r.A)
		if err != nil {
			return Report{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.A, err)
		}
		evB, err := rd.Event(r.B)
		if err != nil {
			return Report{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.B, err)
		}
		locA, locB := rd.LocName(evA.Loc), rd.LocName(evB.Loc)
		rep.Races = append(rep.Races, Race{
			First:       r.A,
			Second:      r.B,
			Locations:   [2]string{locA, locB},
			Description: fmt.Sprintf("race(%s, %s) between %v and %v", locA, locB, evA, evB),
			Witness:     r.Witness,
			Provenance:  publicProvenance(r, opt),
		})
	}
	return rep, nil
}

// MergeShards combines the journals of an N-shard run into one report
// identical to a single-process reader run over the same trace and
// options. Options.TraceReader must be set (the merge re-derives the
// fingerprint from it, verifies every shard journal against that
// fingerprint, and renders the report through it); Shards/ShardID,
// Journal and Resume are ignored — the merge is a read-only combine
// that analyses nothing a shard already journaled. Windows missing from
// every journal (a shard that never ran, or was cut short) are analysed
// in-process, so the merged report is always complete; each adopted
// journal outcome is counted in telemetry.
func MergeShards(ctx context.Context, opt Options, shardJournals []string) (Report, error) {
	if opt.TraceReader == nil {
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "MergeShards renders and fingerprints through the trace reader; set it"}
	}
	if len(shardJournals) == 0 {
		return Report{}, &OptionsError{Field: "Journal", Reason: "MergeShards needs at least one shard journal"}
	}
	// The merge is a plain (unsharded, unjournaled) reader run resumed
	// from the union of the shard journals.
	opt.Shards, opt.ShardID = 0, 0
	opt.Journal, opt.Resume = "", false
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	col := opt.col
	if col == nil {
		col = newCollector(opt)
	}
	opt.col = col
	fp := journal.Fingerprint{
		Trace:   opt.TraceReader.ContentHash(),
		Options: journal.OptionsFingerprint(opt.fingerprintString()),
	}
	outcomes, tornTails, conflicts, err := journal.RecoverShards(shardJournals, fp)
	if err != nil {
		return Report{}, err
	}
	for i := 0; i < tornTails; i++ {
		col.CountTornTailTruncated()
	}
	for i := 0; i < conflicts; i++ {
		col.CountShardConflict()
	}
	for range outcomes {
		col.CountShardOutcomeMerged()
	}
	opt.resumeWindows = outcomes
	return runReaderDetect(ctx, opt.TraceReader, opt, true)
}
