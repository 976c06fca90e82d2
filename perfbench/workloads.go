package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/race"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/workloads"
	"repro/rvpredict"
	"repro/trace"
)

// windowSize is the window length the default options analyse with.
const windowSize = 10000

// Sizes of the closed loops: the stream workload runs two concurrent
// sessions and the fleet two workers, so no workload holds more than
// two connections (the machine's core count) at once.
const (
	streamSessions = 2
	fleetWorkers   = 2
	fleetShards    = 4
)

// sample is one measured closed-loop iteration.
type sample struct {
	wall, cpu float64 // seconds, call to report in hand
	rss       float64 // peak resident memory, MiB
	events    int     // events analysed (batch, reader, fleet) or streamed
	// latencies are the stream clients' waits for the report after the
	// program's trace ended (nil for the offline modes).
	latencies []float64
	// counts are the exact report-level counts; two iterations or runs
	// of the same source and seed must agree on every one.
	counts map[string]int64
	// tele is the program's own telemetry of a traced iteration.
	tele *telemetry.Metrics
}

// instance is one set-up workload.
type instance interface {
	// prepare computes the reference reports iterations are checked
	// against; it is not timed.
	prepare(ctx context.Context) error
	// iterate runs one measured iteration. With a ledger it is the
	// traced iteration: it records spans around the calls it makes and
	// the layer counts the program reports.
	iterate(ctx context.Context, l *ledger) (sample, error)
	// probe replays the workload's windows through the stage functions
	// under span root and returns the program telemetry the probe's
	// counts must equal (same trace, same execution mode).
	probe(ctx context.Context, l *ledger, root int, traced sample) (*telemetry.Metrics, error)
}

// workload names a benchmark workload and how to set it up; setup is
// timed for setup_s. shards is the fleet's lease partition count.
type workload struct {
	name   string
	shards int
	setup  func(dir string, seed int64) (instance, error)
}

var allWorkloads = []workload{
	{name: "derby-batch", setup: setupDerby},
	{name: "wide-reader", setup: setupWide},
	{name: "stream-ftpserver", setup: setupStream},
	{name: "fleet-wide", shards: fleetShards, setup: setupFleet},
}

// rowSpec returns the Table 1 row's generator spec with the seed offset
// applied: seed 0 is the row's own calibrated trace.
func rowSpec(name string, seed int64) workloads.Spec {
	for _, s := range workloads.Rows() {
		if s.Name == name {
			s.Seed += seed
			return s
		}
	}
	panic("perfbench: unknown row " + name)
}

// wideSpec is the bubblesort row stretched to 1M events over 8 workers
// (tracegen -row bubblesort -events 1000000 -threads 8).
func wideSpec(seed int64) workloads.Spec {
	s := rowSpec("bubblesort", seed)
	s.Events = 1_000_000
	s.Workers = 8
	return s
}

// checkReport rejects a report that is incomplete in any way or whose
// distinct race count differs from the generator's planted RV count.
func checkReport(rep rvpredict.Report, wantRV int) error {
	switch {
	case rep.Interrupted:
		return errors.New("report interrupted")
	case rep.BudgetExhausted:
		return errors.New("report budget exhausted")
	case len(rep.WindowFailures) > 0:
		return fmt.Errorf("%d window failures", len(rep.WindowFailures))
	case rep.SolverTimeouts > 0:
		return fmt.Errorf("%d solver timeouts", rep.SolverTimeouts)
	case rep.DegradedWindows > 0:
		return fmt.Errorf("%d degraded windows", rep.DegradedWindows)
	case len(rep.Races) != wantRV:
		return fmt.Errorf("%d races, generator expects %d", len(rep.Races), wantRV)
	}
	return nil
}

// sameRaces checks that rep reports exactly the reference's races, in
// order, with the same confirming tier and window. Solver-cost
// provenance is per execution mode (the reader and fleet paths solve
// each window with fresh signature state) and is not compared.
func sameRaces(rep, ref rvpredict.Report) error {
	if len(rep.Races) != len(ref.Races) {
		return fmt.Errorf("%d races, batch reference has %d", len(rep.Races), len(ref.Races))
	}
	for i, r := range rep.Races {
		q := ref.Races[i]
		if r.First != q.First || r.Second != q.Second || r.Locations != q.Locations ||
			r.Description != q.Description || r.Provenance.Tier != q.Provenance.Tier ||
			r.Provenance.Window != q.Provenance.Window {
			return fmt.Errorf("race %d is %s (%s, window %d), batch reference has %s (%s, window %d)",
				i, r.Description, r.Provenance.Tier, r.Provenance.Window, q.Description, q.Provenance.Tier, q.Provenance.Window)
		}
	}
	return nil
}

func reportCounts(rep rvpredict.Report) map[string]int64 {
	return map[string]int64{
		"report.races":         int64(len(rep.Races)),
		"report.windows":       int64(rep.Windows),
		"report.pairs_checked": int64(rep.PairsChecked),
	}
}

// tail records the time from the last window callback's end to the end
// of span run, the report in hand.
func tail(l *ledger, run int) {
	if last, done := l.lastEnd("core.window"), l.endOf(run); last > 0 && last < done {
		l.add("rvpredict.tail_ns", int64(done-last))
	}
}

// --- derby-batch -----------------------------------------------------

type derbyInst struct {
	exp  workloads.Expect
	data []byte // the trace in the .rvpt encoding
}

func setupDerby(_ string, seed int64) (instance, error) {
	tr, exp := workloads.Build(rowSpec("derby", seed))
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, tr); err != nil {
		return nil, err
	}
	return &derbyInst{exp: exp, data: buf.Bytes()}, nil
}

func (d *derbyInst) prepare(context.Context) error { return nil }

func (d *derbyInst) iterate(ctx context.Context, l *ledger) (sample, error) {
	t0, c0 := time.Now(), cpuSeconds()
	dec := l.begin("tracefile.Decode", 0, -1)
	tr, err := tracefile.Decode(bytes.NewReader(d.data))
	l.end(dec)
	if err != nil {
		return sample{}, fmt.Errorf("decode: %w", err)
	}
	opt := rvpredict.Options{}
	run := l.begin("rvpredict.Run", 0, -1)
	if l != nil {
		opt.Telemetry = true
		opt.Tracer = &windowTracer{l: l, parent: run, open: make(map[int]int)}
	}
	rep, err := rvpredict.Run(ctx, tr, opt)
	l.end(run)
	s := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, events: tr.Len()}
	if err != nil {
		return s, err
	}
	if l != nil {
		tail(l, run)
	}
	s.counts, s.tele = reportCounts(rep), rep.Telemetry
	return s, checkReport(rep, d.exp.RV)
}

func (d *derbyInst) probe(ctx context.Context, l *ledger, root int, traced sample) (*telemetry.Metrics, error) {
	tr, err := tracefile.Decode(bytes.NewReader(d.data))
	if err != nil {
		return nil, err
	}
	return traced.tele, probeBatch(ctx, l, root, tr)
}

// probeBatch replays the windows of an in-memory trace with signature
// state carried across windows, as the batch and streaming paths
// analyse.
func probeBatch(ctx context.Context, l *ledger, root int, tr *trace.Trace) error {
	p := &probe{ctx: ctx, l: l, parent: root, seen: make(map[race.Signature]bool)}
	for widx, w := range race.WindowSlices(tr, windowSize) {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.window(w.Trace, widx)
	}
	return nil
}

// --- wide-reader -----------------------------------------------------

type wideInst struct {
	exp  workloads.Expect
	path string // the trace in the chunked .rvc2 format
}

// writeChunked builds the wide trace and writes it as a chunked file.
func writeChunked(path string, seed int64) (workloads.Expect, error) {
	tr, exp := workloads.Build(wideSpec(seed))
	f, err := os.Create(path)
	if err != nil {
		return exp, err
	}
	if err := tracev2.WriteTrace(f, tr, tracev2.DefaultChunkSize); err != nil {
		f.Close()
		return exp, err
	}
	return exp, f.Close()
}

func setupWide(dir string, seed int64) (instance, error) {
	path := filepath.Join(dir, "wide.rvc2")
	exp, err := writeChunked(path, seed)
	if err != nil {
		return nil, err
	}
	return &wideInst{exp: exp, path: path}, nil
}

func (w *wideInst) prepare(context.Context) error { return nil }

func (w *wideInst) iterate(ctx context.Context, l *ledger) (sample, error) {
	t0, c0 := time.Now(), cpuSeconds()
	rd, err := tracev2.Open(w.path)
	if err != nil {
		return sample{}, err
	}
	defer rd.Close()
	run := l.begin("rvpredict.Run", 0, -1)
	opt := rvpredict.Options{TraceReader: rd}
	var col *telemetry.Collector
	if l != nil {
		col = telemetry.NewCollector()
		opt.Telemetry, opt.Collector = true, col
		opt.TraceReader = &tracedReader{TraceReader: rd, l: l, parent: run}
	}
	rep, err := rvpredict.Run(ctx, nil, opt)
	l.end(run)
	s := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, events: rd.NumEvents()}
	if err != nil {
		return s, err
	}
	if l != nil {
		tail(l, run)
		l.add("tracev2.chunk_hits", col.ChunkCacheHits())
		l.add("tracev2.chunk_misses", col.ChunkCacheMisses())
	}
	s.counts, s.tele = reportCounts(rep), rep.Telemetry
	return s, checkReport(rep, w.exp.RV)
}

// probeReader replays every window of the chunked trace with fresh
// per-window signature state, as the reader and fleet paths analyse.
func probeReader(ctx context.Context, l *ledger, root int, path string) error {
	rd, err := tracev2.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	p := &probe{ctx: ctx, l: l, parent: root}
	return rd.Windows(windowSize, func(w *trace.Trace, widx, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.window(w, widx)
		return nil
	})
}

func (w *wideInst) probe(ctx context.Context, l *ledger, root int, traced sample) (*telemetry.Metrics, error) {
	return traced.tele, probeReader(ctx, l, root, w.path)
}

// --- stream-ftpserver ------------------------------------------------

type streamInst struct {
	exp  workloads.Expect
	tr   *trace.Trace
	dir  string
	iter int
	ref  rvpredict.Report // batch report on the same trace
}

// daemon is one in-process streaming daemon serving on loopback.
type daemon struct {
	d     *stream.Daemon
	ln    net.Listener
	serve chan error
}

// startDaemon starts a daemon with default options over a new state
// directory.
func startDaemon(dir string) (*daemon, error) {
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("state directory %s already exists", dir)
	}
	d, err := stream.New(stream.Options{StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	dm := &daemon{d: d, ln: ln, serve: make(chan error, 1)}
	go func() { dm.serve <- d.Serve(ln) }()
	return dm, nil
}

// stop closes the daemon and waits for Serve to return. Serve's own
// error is the expected one of a closed listener (or of a daemon closed
// before Serve began) and is not reported.
func (dm *daemon) stop() error {
	err := dm.d.Close()
	dm.ln.Close()
	<-dm.serve
	return err
}

func setupStream(dir string, seed int64) (instance, error) {
	tr, exp := workloads.Build(rowSpec("ftpserver", seed))
	s := &streamInst{exp: exp, tr: tr, dir: dir}
	// Start-up is part of set-up; every iteration then starts its own
	// daemon over fresh state, outside its timed interval.
	dm, err := startDaemon(s.nextStateDir())
	if err != nil {
		return nil, err
	}
	return s, dm.stop()
}

func (s *streamInst) prepare(ctx context.Context) (err error) {
	s.ref, err = rvpredict.Run(ctx, s.tr, rvpredict.Options{})
	return err
}

func (s *streamInst) nextStateDir() string {
	s.iter++
	return filepath.Join(s.dir, fmt.Sprintf("state-%d", s.iter))
}

// session is one client's view of a streamed session.
type session struct {
	rep     *rvpredict.Report
	latency time.Duration
	err     error
}

func (s *streamInst) session(addr, token string, l *ledger) (out session) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		out.err = err
		return out
	}
	c := stream.NewClient(conn)
	defer c.Close()
	id := l.begin("stream.Handshake", 0, -1)
	wel, err := c.Handshake(token)
	l.end(id)
	if err != nil {
		out.err = fmt.Errorf("handshake: %w", err)
		return out
	}
	if wel.ResumeEvents != 0 || wel.Complete {
		out.err = fmt.Errorf("session %s resumed (%d events held, complete=%t); want fresh state", token, wel.ResumeEvents, wel.Complete)
		return out
	}
	id = l.begin("stream.SendTrace", 0, -1)
	err = c.SendTrace(s.tr, 0, 0)
	l.end(id)
	if err != nil {
		out.err = fmt.Errorf("send: %w", err)
		return out
	}
	t := time.Now()
	id = l.begin("stream.End", 0, -1)
	out.rep, out.err = c.End()
	l.end(id)
	out.latency = time.Since(t)
	return out
}

func (s *streamInst) iterate(ctx context.Context, l *ledger) (sample, error) {
	dm, err := startDaemon(s.nextStateDir())
	if err != nil {
		return sample{}, err
	}
	// Cancelling the run closes the daemon, which drops the sessions'
	// connections and so unblocks their clients.
	stopOnCancel := context.AfterFunc(ctx, func() { dm.d.Close() })
	defer stopOnCancel()
	addr := dm.ln.Addr().String()
	sessions := make([]session, streamSessions)
	t0, c0 := time.Now(), cpuSeconds()
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i] = s.session(addr, fmt.Sprintf("session-%d", i), l)
		}(i)
	}
	wg.Wait()
	smp := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, events: streamSessions * s.tr.Len()}
	snap := dm.d.Collector().Snapshot()
	backpressure := dm.d.Collector().IngestBackpressureNS()
	if err := dm.stop(); err != nil {
		return smp, fmt.Errorf("daemon: %w", err)
	}
	for i, ss := range sessions {
		if ss.err != nil {
			return smp, fmt.Errorf("session %d: %w", i, ss.err)
		}
		if err := checkReport(*ss.rep, s.exp.RV); err != nil {
			return smp, fmt.Errorf("session %d: %w", i, err)
		}
		if err := sameRaces(*ss.rep, s.ref); err != nil {
			return smp, fmt.Errorf("session %d: %w", i, err)
		}
		if ss.rep.Windows != s.ref.Windows || ss.rep.PairsChecked != s.ref.PairsChecked {
			return smp, fmt.Errorf("session %d: %d windows and %d pairs, batch reference %d and %d",
				i, ss.rep.Windows, ss.rep.PairsChecked, s.ref.Windows, s.ref.PairsChecked)
		}
		smp.latencies = append(smp.latencies, ss.latency.Seconds())
	}
	if n := snap.Journal.WindowsReplayed; n != 0 {
		return smp, fmt.Errorf("daemon replayed %d windows; want fresh state", n)
	}
	smp.counts = reportCounts(*sessions[0].rep)
	smp.counts["journal.records"] = snap.Journal.RecordsWritten
	if l != nil {
		l.add("journal.fsync_ns", snap.Journal.FsyncNS)
		l.add("journal.records", snap.Journal.RecordsWritten)
		l.add("stream.backpressure_ns", backpressure)
		smp.tele = snap
	}
	return smp, nil
}

func (s *streamInst) probe(ctx context.Context, l *ledger, root int, traced sample) (*telemetry.Metrics, error) {
	// Each session runs the sequential window pipeline over the whole
	// trace with its own signature state; the daemon's collector sums
	// both.
	for i := 0; i < streamSessions; i++ {
		if err := probeBatch(ctx, l, root, s.tr); err != nil {
			return nil, err
		}
	}
	return traced.tele, nil
}

// --- fleet-wide ------------------------------------------------------

type fleetInst struct {
	spec workloads.Spec
	exp  workloads.Expect
	path string
	dir  string
	iter int
	ref  rvpredict.Report // batch report on the same trace
}

func setupFleet(dir string, seed int64) (instance, error) {
	f := &fleetInst{spec: wideSpec(seed), path: filepath.Join(dir, "wide.rvc2"), dir: dir}
	exp, err := writeChunked(f.path, seed)
	if err != nil {
		return nil, err
	}
	f.exp = exp
	// Coordinator start-up (journal creation and the window index) is
	// part of set-up; a cancelled Run is its clean shutdown.
	c, rd, _, err := f.newCoordinator(nil)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, ln); !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("coordinator shutdown: %v", err)
	}
	return f, nil
}

func (f *fleetInst) prepare(ctx context.Context) (err error) {
	tr, _ := workloads.Build(f.spec)
	f.ref, err = rvpredict.Run(ctx, tr, rvpredict.Options{})
	return err
}

// newCoordinator opens a coordinator with default options over a new
// journal and returns it with its trace reader and journal path.
func (f *fleetInst) newCoordinator(col *telemetry.Collector) (*fleet.Coordinator, *tracev2.Reader, string, error) {
	f.iter++
	journal := filepath.Join(f.dir, fmt.Sprintf("coordinator-%d.journal", f.iter))
	if _, err := os.Stat(journal); err == nil {
		return nil, nil, "", fmt.Errorf("journal %s already exists", journal)
	}
	rd, err := tracev2.Open(f.path)
	if err != nil {
		return nil, nil, "", err
	}
	c, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		Detect:    rvpredict.Options{TraceReader: rd},
		Journal:   journal,
		Shards:    fleetShards,
		Collector: col,
	})
	if err != nil {
		rd.Close()
		return nil, nil, "", err
	}
	return c, rd, journal, nil
}

func (f *fleetInst) iterate(ctx context.Context, l *ledger) (sample, error) {
	col := telemetry.NewCollector()
	c, crd, journal, err := f.newCoordinator(col)
	if err != nil {
		return sample{}, err
	}
	defer crd.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sample{}, err
	}
	var chunks *telemetry.Collector
	if l != nil {
		chunks = telemetry.NewCollector()
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	werrs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuSeconds()
	run := l.begin("fleet.Coordinator.Run", 0, -1)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rd, err := tracev2.Open(f.path)
			if err != nil {
				werrs[i] = err
				return
			}
			defer rd.Close()
			var tr rvpredict.TraceReader = rd
			if l != nil {
				rd.AttachTelemetry(chunks)
				tr = &tracedReader{TraceReader: rd, l: l, parent: run}
			}
			werrs[i] = fleet.RunWorker(wctx, fleet.WorkerOptions{
				Addr:   ln.Addr().String(),
				Detect: rvpredict.Options{TraceReader: tr},
				Name:   fmt.Sprintf("worker-%d", i),
			})
		}(i)
	}
	rep, err := c.Run(ctx, ln)
	l.end(run)
	smp := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, events: crd.NumEvents()}
	wcancel()
	wg.Wait()
	if err != nil {
		return smp, fmt.Errorf("coordinator: %w", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			return smp, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	if err := checkReport(rep, f.exp.RV); err != nil {
		return smp, err
	}
	if err := sameRaces(rep, f.ref); err != nil {
		return smp, err
	}
	snap := col.Snapshot()
	// The final merge replays the coordinator's journal by design, so
	// fresh state shows as every window journaled by this run's workers.
	if got := snap.Journal.RecordsWritten; got != int64(rep.Windows) {
		return smp, fmt.Errorf("coordinator journaled %d of %d windows; want every window analysed afresh", got, rep.Windows)
	}
	smp.counts = reportCounts(rep)
	smp.counts["journal.records"] = snap.Journal.RecordsWritten
	smp.counts["fleet.leases_granted"] = col.LeasesGranted()
	if l != nil {
		tail(l, run)
		l.add("journal.fsync_ns", snap.Journal.FsyncNS)
		l.add("journal.records", snap.Journal.RecordsWritten)
		l.add("fleet.leases_granted", col.LeasesGranted())
		l.add("fleet.leases_reassigned", col.LeasesReassigned())
		l.add("fleet.speculative_wins", col.SpeculativeWins())
		// Workers decode windows; the coordinator renders the report.
		l.add("tracev2.chunk_hits", chunks.ChunkCacheHits()+col.ChunkCacheHits())
		l.add("tracev2.chunk_misses", chunks.ChunkCacheMisses()+col.ChunkCacheMisses())
		if err := f.merge(ctx, l, journal, rep); err != nil {
			return smp, err
		}
	}
	return smp, nil
}

// merge times a MergeShards over the coordinator journal and checks it
// reproduces the fleet's report.
func (f *fleetInst) merge(ctx context.Context, l *ledger, journal string, fleetRep rvpredict.Report) error {
	rd, err := tracev2.Open(f.path)
	if err != nil {
		return err
	}
	defer rd.Close()
	id := l.begin("rvpredict.MergeShards", 0, -1)
	rep, err := rvpredict.MergeShards(ctx, rvpredict.Options{TraceReader: rd}, []string{journal})
	l.end(id)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	return sameRaces(rep, fleetRep)
}

func (f *fleetInst) probe(ctx context.Context, l *ledger, root int, _ sample) (*telemetry.Metrics, error) {
	// Fleet workers keep no detection telemetry. They analyse each
	// window with fresh signature state, exactly as the out-of-core
	// reader path does, so the counts are checked against a reader run
	// over the same trace.
	rd, err := tracev2.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	rep, err := rvpredict.Run(ctx, nil, rvpredict.Options{TraceReader: rd, Telemetry: true})
	if err != nil {
		return nil, err
	}
	if err := sameRaces(rep, f.ref); err != nil {
		return nil, fmt.Errorf("reader reference: %w", err)
	}
	return rep.Telemetry, probeReader(ctx, l, root, f.path)
}
