package stream

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/race"
	"repro/rvpredict"
	"repro/trace"
)

// session is the per-client state machine: it ingests data records,
// assembles analysis windows online with exactly the batch windower's
// semantics (race.WindowSlices), analyses them in trace order with
// core.AnalyseWindow into one core.Merge — the merge's seen set is the
// skip hint, exactly as in a sequential in-memory rvpredict.Run — and
// renders races through rvpredict.RenderRace at window-close time, while
// the window's events are still in memory. Every mutation is mirrored to
// the ingest log first, so replaying the log through a fresh session
// reconstructs this state bit-identically — the single recovery path
// shared by client reconnects and daemon restarts.
//
// A session is owned by one connection goroutine at a time; it is not
// safe for concurrent use.
type session struct {
	d     *Daemon
	token string

	ingest *ingestLog
	jw     *journal.Writer
	jerr   error // first journal append failure, surfaced in logs

	det     *core.Detector
	merge   *core.Merge
	resume  map[int]race.WindowOutcome
	start   time.Time
	windows int // windows dispatched so far

	// Online windowing state. cur is the window being filled; its
	// first event sits at whole-trace index winStart. Dispatch is lazy:
	// a full window is analysed only when the first event beyond it
	// (or End) arrives, so trailing wait/notify links still join it —
	// matching the batch windower, which sees all links up front.
	windowSize int
	cur        *trace.Trace
	winStart   int
	widx       int
	total      int // events ingested so far

	// Session-wide metadata, installed into each new window exactly as
	// trace.Slice shares or copies it in batch mode.
	vols    map[trace.Addr]bool
	inits   map[trace.Addr]int64
	carried map[trace.Addr]int64 // last written value per addr, across closed windows
	names   map[trace.Loc]string

	stats    trace.StatsAccumulator
	races    []rvpredict.Race
	degraded int // windows analysed in degraded mode
	replayed int // windows replayed from the journal on this resume
	ended    bool
}

// sessionFingerprint binds a session journal to its token and the
// daemon's result-affecting detection options. The trace itself is
// unknown up front (it streams in), so the trace half of the batch
// fingerprint is replaced by the session identity; trace binding is
// provided by the ingest log, whose durable prefix is always a superset
// of the journaled windows' events.
func (d *Daemon) sessionFingerprint(token string) journal.Fingerprint {
	return journal.Fingerprint{
		Trace:   sha256.Sum256([]byte("rvpredictd-session-v1 " + token)),
		Options: journal.OptionsFingerprint(d.opt.Detect.ResultFingerprint()),
	}
}

func (d *Daemon) ingestPath(token string) string  { return d.statePath(token + ".ingest") }
func (d *Daemon) journalPath(token string) string { return d.statePath(token + ".journal") }

// ReportPath returns the path of a session's durable report artifact.
func (d *Daemon) ReportPath(token string) string { return d.statePath(token + ".report.json") }

// openSession creates a fresh session or recovers a suspended one from
// its durable state: journaled window outcomes become the detector's
// replay set, and the ingest log's intact prefix is replayed through
// the session pipeline — journaled windows merge instantly, windows
// whose outcome was lost (crash before the journal synced) are
// re-analysed from their durable events.
func (d *Daemon) openSession(ctx context.Context, token string) (*session, error) {
	s := &session{
		d:          d,
		token:      token,
		windowSize: d.opt.Detect.WindowSize,
		vols:       make(map[trace.Addr]bool),
		inits:      make(map[trace.Addr]int64),
		carried:    make(map[trace.Addr]int64),
		names:      make(map[trace.Loc]string),
	}
	jopt := journal.Options{
		GroupCommit:   d.opt.JournalGroupCommit,
		Telemetry:     d.col,
		FaultInjector: d.inj,
	}
	fp := d.sessionFingerprint(token)
	ip, jp := d.ingestPath(token), d.journalPath(token)

	var payloads [][]byte
	if _, err := os.Stat(ip); err == nil {
		// Suspended session: the replay below may re-analyse windows
		// whose journaled outcome was lost, so withhold readiness until
		// this recovery (including the replay loop) has drained.
		d.recovering.Add(1)
		defer d.recovering.Add(-1)
		if d.opt.testRecoveryHook != nil {
			d.opt.testRecoveryHook()
		}
		// Resume the journal (tolerating its absence or unusability —
		// the ingest log alone can rebuild everything by re-analysis),
		// then recover the ingest prefix.
		if _, jerr := os.Stat(jp); jerr == nil {
			jw, info, rerr := journal.Resume(jp, fp, jopt)
			if rerr != nil {
				d.logf("stream: session %s: journal unusable (%v); re-analysing from ingest log", token, rerr)
				if jw, rerr = journal.Create(jp, fp, jopt); rerr != nil {
					return nil, rerr
				}
				s.jw = jw
			} else {
				s.jw = jw
				if info.TornTail {
					d.col.CountTornTailTruncated()
				}
				if len(info.Outcomes) > 0 {
					s.resume = make(map[int]race.WindowOutcome, len(info.Outcomes))
					for _, out := range info.Outcomes {
						s.resume[out.Window] = out
					}
				}
			}
		} else {
			if s.jw, err = journal.Create(jp, fp, jopt); err != nil {
				return nil, err
			}
		}
		g, ps, torn, err := recoverIngest(ip, token)
		if err != nil {
			s.jw.Close()
			return nil, err
		}
		if torn {
			d.col.CountTornTailTruncated()
		}
		s.ingest = g
		payloads = ps
	} else {
		if s.ingest, err = createIngest(ip, token); err != nil {
			return nil, err
		}
		if s.jw, err = journal.Create(jp, fp, jopt); err != nil {
			s.ingest.close()
			return nil, err
		}
	}

	hook := func(out race.WindowOutcome) {
		if err := s.jw.Append(out); err != nil && s.jerr == nil {
			s.jerr = err
			d.logf("stream: session %s: journal append: %v", token, err)
		}
	}
	copt := d.opt.Detect.CoreOptions(d.col)
	copt.FaultInjector = d.inj
	copt.OnWindowDone = hook
	copt.ResumeWindows = s.resume
	s.det = core.New(copt)
	s.merge = s.det.NewMerge()
	s.start = time.Now()

	for i, p := range payloads {
		rec, err := decodeRecord(p)
		if err == nil {
			err = s.checkRecord(rec)
		}
		if err == nil {
			err = s.applyRecord(ctx, rec, false)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("stream: session %s: replaying ingest frame %d: %w", token, i, err)
		}
	}
	if s.ended {
		// The log already holds End: the session completed but its
		// report never reached stable storage. Finish it now.
		if err := s.finalize(ctx, false); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// checkRecord validates a record against the session state without
// mutating anything — it runs before the record is committed to the
// ingest log, so the log never holds a frame that cannot replay.
func (s *session) checkRecord(rec record) error {
	if s.ended {
		return fmt.Errorf("%w: record after End", ErrProtocol)
	}
	switch rec.kind {
	case recLink:
		ln := rec.link
		if ln.Notify >= s.total || ln.Release >= s.total || ln.Acquire >= s.total {
			return fmt.Errorf("%w: link (%d,%d,%d) references an unsent event (have %d)",
				ErrProtocol, ln.Notify, ln.Release, ln.Acquire, s.total)
		}
	case recReport:
		return fmt.Errorf("%w: unexpected report record from client", ErrProtocol)
	}
	return nil
}

// applyRecord folds one validated record into the session. live
// distinguishes network ingest (backpressure, degradation and fault
// points are armed) from log replay during recovery (journal-replayed
// windows are free; re-analysed ones still take a solver slot but
// never degrade).
func (s *session) applyRecord(ctx context.Context, rec record, live bool) error {
	switch rec.kind {
	case recVolatile:
		if !s.vols[rec.addr] {
			s.vols[rec.addr] = true
			s.stats.SetVolatile(rec.addr)
			if s.cur != nil {
				s.cur.SetVolatile(rec.addr)
			}
		}
	case recInitial:
		s.inits[rec.addr] = rec.value
		if s.cur != nil {
			// Carried-in state outranks a declared initial, exactly as
			// the batch windower overlays carried values after copying
			// the declared map.
			if _, carried := s.carried[rec.addr]; !carried {
				s.cur.SetInitial(rec.addr, rec.value)
			}
		}
	case recLocName:
		s.names[rec.loc] = rec.name
		if s.cur != nil {
			s.cur.NameLoc(rec.loc, rec.name)
		}
	case recLink:
		// Keep the link only if it falls entirely inside the current
		// window, rebased to window coordinates — trace.Slice's rule.
		// Duplicates are dropped: around the resume boundary the client
		// re-sends any link it cannot prove durable, so the same link
		// can arrive twice.
		ln := rec.link
		if s.cur != nil && ln.Notify >= s.winStart && ln.Release >= s.winStart && ln.Acquire >= s.winStart {
			rebased := trace.NotifyLink{
				Notify:  ln.Notify - s.winStart,
				Release: ln.Release - s.winStart,
				Acquire: ln.Acquire - s.winStart,
			}
			for _, have := range s.cur.NotifyLinks() {
				if have == rebased {
					return nil
				}
			}
			s.cur.AddNotifyLink(rebased.Notify, rebased.Release, rebased.Acquire)
		}
	case recEvents:
		for _, e := range rec.events {
			if s.windowSize > 0 && s.cur != nil && s.cur.Len() >= s.windowSize {
				if err := s.dispatchWindow(ctx, live); err != nil {
					return err
				}
			}
			if s.cur == nil {
				s.newWindow()
			}
			s.cur.Append(e)
			s.stats.Add(e)
			s.total++
			if e.Op == trace.OpWrite {
				s.carried[e.Addr] = e.Value
			}
		}
	case recEnd:
		s.ended = true
	}
	return nil
}

// newWindow starts the next analysis window: declared metadata plus the
// carried last-write memory state, installed in the same order batch
// windowing does (declared initials first, carried overlay second).
func (s *session) newWindow() {
	capHint := s.windowSize
	if capHint <= 0 {
		capHint = 1024
	} else if capHint > 1<<16 {
		capHint = 1 << 16
	}
	w := trace.New(capHint)
	for a := range s.vols {
		w.SetVolatile(a)
	}
	for l, nm := range s.names {
		w.NameLoc(l, nm)
	}
	for a, v := range s.inits {
		w.SetInitial(a, v)
	}
	for a, v := range s.carried {
		w.SetInitial(a, v)
	}
	s.cur = w
	s.winStart = s.total
}

// dispatchWindow closes the current window and analyses it. On the live
// path it first syncs the ingest log (the durability invariant: a
// journaled outcome's events are always on disk) and then acquires a
// daemon-wide solver slot, blocking under backpressure and falling back
// to degraded analysis if configured. Journal-replayed windows skip the
// queue entirely; windows re-analysed during recovery take a slot too
// (the MaxInFlightWindows bound holds through a restart's recovery
// spike) but never degrade. The window's races are rendered into
// report form here, while its events are still resident.
func (s *session) dispatchWindow(ctx context.Context, live bool) error {
	w, widx, offset := s.cur, s.widx, s.winStart
	s.cur = nil
	s.widx++

	if live {
		if err := s.ingest.sync(); err != nil {
			return err
		}
	}
	_, isReplay := s.resume[widx]
	degraded := false
	holding := false
	if !isReplay {
		if live {
			holding, degraded = s.d.acquireSlot(ctx)
		} else {
			holding = s.d.acquireRecoverySlot(ctx)
		}
	}
	out, status := s.det.AnalyseWindow(ctx, time.Time{}, w, widx, offset, s.merge.Seen, degraded)
	if holding {
		s.d.releaseSlot()
	}
	if status == core.WindowCut {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("stream: window %d cut without verdict", widx)
	}
	s.windows++
	if status == core.WindowReplayed {
		s.replayed++
	}
	if out.Degraded {
		s.degraded++
	}
	for _, r := range s.merge.Add(out, status) {
		pr, err := rvpredict.RenderRace(windowEvents{w, offset}, r, s.d.opt.Detect)
		if err != nil {
			return err
		}
		s.races = append(s.races, pr)
	}
	return nil
}

// windowEvents is the renderer's view of a closed window: whole-trace
// event indices read through the window's own events, so races render
// exactly as a batch render over the whole trace.
type windowEvents struct {
	w      *trace.Trace
	offset int
}

func (v windowEvents) Event(i int) (trace.Event, error) { return v.w.Event(i - v.offset), nil }
func (v windowEvents) LocName(l trace.Loc) string       { return v.w.LocName(l) }

// finalize performs end-of-stream windowing: the non-empty remainder is
// analysed as the last window, and an empty stream still gets its one
// empty window — both exactly as race.WindowSlices slices a
// materialised trace.
func (s *session) finalize(ctx context.Context, live bool) error {
	if s.cur != nil {
		if err := s.dispatchWindow(ctx, live); err != nil {
			return err
		}
	} else if s.widx == 0 {
		s.newWindow()
		if err := s.dispatchWindow(ctx, live); err != nil {
			return err
		}
	}
	if live {
		return s.ingest.sync()
	}
	return nil
}

// report assembles the session's final report through the batch
// report builder. The daemon never attaches a telemetry snapshot (its
// collector is shared across sessions), so a batch comparison run omits
// -stats likewise.
func (s *session) report() *rvpredict.Report {
	res := s.merge.Result()
	res.Windows = s.windows
	res.Elapsed = time.Since(s.start)
	rep := rvpredict.NewReport(s.d.opt.Detect, res, s.stats.Stats(), s.races)
	rep.DegradedWindows = s.degraded
	return &rep
}

// close releases the session's file handles, syncing both the ingest
// log and the journal first — the suspend path. The durable state
// stays on disk for a later resume.
func (s *session) close() {
	if s.ingest != nil {
		if err := s.ingest.close(); err != nil {
			s.d.logf("stream: session %s: %v", s.token, err)
		}
		s.ingest = nil
	}
	if s.jw != nil {
		if err := s.jw.Close(); err != nil {
			s.d.logf("stream: session %s: %v", s.token, err)
		}
		s.jw = nil
	}
}

// discardState deletes the session's ingest log and journal after a
// clean completion (the report file is the surviving artifact).
func (s *session) discardState() {
	for _, p := range []string{s.d.ingestPath(s.token), s.d.journalPath(s.token)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			s.d.logf("stream: session %s: removing %s: %v", s.token, p, err)
		}
	}
}
