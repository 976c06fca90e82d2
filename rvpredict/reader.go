package rvpredict

import (
	"context"
	"crypto/sha256"

	"repro/internal/journal"
	"repro/trace"
)

// TraceReader is the trace source every Run analyses: Options.TraceReader
// when set, otherwise the tr argument wrapped in tracev2.FromTrace.
// Windows are streamed (holding O(window + chunk) events live, never the
// whole trace) and the report is rendered through the random-access
// Event/LocName path. Both implementations live in internal/tracev2: the
// chunked-file Reader (mmap-backed) and the in-memory MemReader adapter
// over a materialised trace.
//
// The contract mirrors trace.Trace + race.WindowSlices exactly:
// Windows must yield the same window boundaries, carried initial
// values, and per-window events as race.WindowSlices over the
// materialised trace, so a chunked file and an in-memory trace confirm
// identical races. ContentHash must equal journal.TraceFingerprint of
// the materialised trace, so journals bind across formats unchanged.
type TraceReader interface {
	EventSource
	// NumEvents is the total event count.
	NumEvents() int
	// Stats returns the whole-trace statistics (Table 1's columns),
	// precomputed so the report never needs the materialised trace.
	Stats() trace.Stats
	// ContentHash is the canonical trace fingerprint — SHA-256 of the
	// legacy tracefile encoding, identical to journal.TraceFingerprint.
	ContentHash() [sha256.Size]byte
	// Windows streams the race.WindowSlices windowing: f is called once
	// per window with the window's trace (whole-trace link indices
	// rebased to the window, carried initial values applied), its index,
	// and the whole-trace index of its first event. A non-nil error from
	// f stops the iteration and is returned verbatim.
	Windows(size int, f func(w *trace.Trace, widx, offset int) error) error
	// ReadAll materialises the full trace (baseline algorithms only).
	ReadAll() (*trace.Trace, error)
}

// EventSource is the random-access view reports are rendered through.
type EventSource interface {
	// Event returns event i, indexed in the whole trace (chunk-cached
	// for files).
	Event(i int) (trace.Event, error)
	// LocName renders a location for reports ("L%d" fallback included).
	LocName(l trace.Loc) string
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
	rep, err := run(ctx, opt.TraceReader, opt)
	// The merged report is the authoritative run: how the merge obtained
	// each window (replayed from a journal) is an operational detail, so
	// it is identical to a clean single-process reader run's.
	for i := range rep.Races {
		rep.Races[i].Provenance.Replayed = false
	}
	return rep, err
}
