// Command rvpredict runs predictive race detection on a recorded trace
// file (see cmd/tracegen and cmd/minirun for producers).
//
// Usage:
//
//	rvpredict [flags] trace.rvpt
//
// The default algorithm is the paper's maximal control-flow-aware
// technique; -algo selects a baseline for comparison.
//
// Exit status is 1 when races (or deadlocks / atomicity violations) are
// found, 0 when the trace is clean, 2 on usage or decode errors, and 3
// when the run was interrupted (SIGINT/SIGTERM) — scriptable like grep.
// An interrupted run still flushes whatever it found; with -json the
// partial report carries "interrupted": true.
//
// Long runs can be made crash-safe with -journal: every completed
// analysis window is checkpointed to the given file, and a subsequent
// run with -journal and -resume replays the checkpointed windows instead
// of re-solving them, producing the same report as an uninterrupted run.
// -out writes the report to a file atomically (temp file + fsync +
// rename) instead of stdout, so a killed run never leaves a half-written
// report behind.
//
// Two trace formats are accepted, distinguished by their magic: the
// legacy in-memory format (.rvpt) and the chunked columnar format
// (.rvc2, produced by -convert or tracegen -format chunked). Chunked
// traces are mmapped and analysed out of core — windows are decoded one
// chunk at a time, so a multi-GB trace analyses in flat memory.
//
// Chunked traces also enable multi-process sharding: N processes each
// run with -shards N -shard-id I -journal shard-I.journal (every
// process analyses the windows whose index ≡ I mod N), and a final
//
//	rvpredict -merge shard-0.journal,...,shard-N-1.journal trace.rvc2
//
// combines the shard journals into one report identical to a
// single-process run.
//
// The fault-tolerant flavour of the same split is the fleet: one
// process runs -coordinate addr -journal coord.journal and any number
// of processes run -worker addr against the same trace file. The
// coordinator leases window shards to workers, fsyncs every returned
// outcome to its journal before acknowledging it, reassigns the leases
// of crashed or stalled workers (speculatively duplicating stragglers),
// analyses any windows the fleet never covered locally, and renders the
// same report a single-process run would — even if the coordinator
// itself is killed and restarted over the same journal.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/capture"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/race"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/rvpredict"
	"repro/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitInterrupted is the exit status of a run cut short by SIGINT or
// SIGTERM after flushing its partial report.
const exitInterrupted = 3

// run wires OS signals to the detection context: the first SIGINT or
// SIGTERM cancels it, the detectors wind down cooperatively (mid-solve),
// and the partial report is flushed before exiting with status 3. A
// second signal kills the process the default way.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout, stderr)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// Everything the command writes to stderr — progress lines, the
	// introspection banner, status notes, errors — goes through one
	// serialising writer, so concurrent callbacks (parallel windows, the
	// HTTP server goroutine) can never interleave mid-line.
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("rvpredict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algoName   = fs.String("algo", "rv", "algorithm: rv, said, cp, hb or qc")
		window     = fs.Int("window", 10000, "window size in events (0 = whole trace)")
		timeout    = fs.Duration("timeout", 60*time.Second, "per-pair solver timeout")
		parallel   = fs.Int("parallel", 0, "analyse windows with this many workers (rv only)")
		pairPar    = fs.Int("pair-parallel", 0, "solve pairs inside each window with this many workers (rv only; deterministic)")
		triage     = fs.String("triage", "on", "triage ladder rung: on, off, shb, wcp, syncp or cp (rv only; results identical at every rung)")
		witness    = fs.Bool("witness", false, "print a witness schedule per race")
		dump       = fs.Bool("dump", false, "dump the trace instead of analysing it")
		deadlocks  = fs.Bool("deadlock", false, "predict lock-inversion deadlocks instead of races")
		atomicity  = fs.Bool("atomicity", false, "predict atomicity violations instead of races")
		stats      = fs.Bool("stats", false, "print pipeline and solver statistics after the report")
		jsonOut    = fs.Bool("json", false, "emit the full report (with telemetry) as JSON on stdout")
		progress   = fs.Bool("progress", false, "trace per-window progress on stderr while analysing")
		firstPass  = fs.Duration("first-pass", 0, "cheap first-pass per-pair timeout; timed-out pairs are retried with escalating budgets (rv only)")
		budget     = fs.Duration("budget", 0, "global wall-clock budget for the whole run (0 = unbounded; rv only)")
		journalTo  = fs.String("journal", "", "checkpoint completed windows to `file` for crash-safe resume (rv only)")
		resume     = fs.Bool("resume", false, "replay windows already checkpointed in the -journal file instead of re-analysing them")
		outPath    = fs.String("out", "", "write the report to `file` atomically (temp file + rename) instead of stdout")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = fs.String("memprofile", "", "write a heap profile to `file` on exit")
		httpAddr   = fs.String("http", "", "serve live introspection on `addr` while analysing: /metrics, /progress, /races, /debug/pprof (\":0\" picks a port, printed on stderr)")
		traceOut   = fs.String("trace-out", "", "write the run's span timeline to `file` as Chrome trace-event JSON (load in chrome://tracing or Perfetto)")
		daemonAddr = fs.String("daemon", "", "stream the trace to the rvpredictd daemon at `addr` instead of analysing locally (requires -token; the daemon's flags govern analysis)")
		token      = fs.String("token", "", "session `name` for -daemon: reusing a token resumes its durable session after a disconnect or daemon restart")
		convertTo  = fs.String("convert", "", "convert the legacy trace to the chunked columnar format at `file`, then exit")
		chunkSize  = fs.Int("chunk-size", tracev2.DefaultChunkSize, "events per chunk for -convert")
		shards     = fs.Int("shards", 0, "shard the analysis across this many cooperating processes: this process analyses windows whose index ≡ -shard-id mod N (rv only; >1 requires -journal)")
		shardID    = fs.Int("shard-id", 0, "this process's shard index in [0, -shards)")
		mergeList  = fs.String("merge", "", "merge the comma-separated shard journal `files` into one report over the given trace, instead of analysing")
		coordAddr  = fs.String("coordinate", "", "run a fleet coordinator on `addr`: lease window shards to -worker processes, journal their results (requires -journal) and merge the final report")
		workerAddr = fs.String("worker", "", "run as a fleet worker against the coordinator at `addr`: lease shards, analyse their windows over the same trace and stream the outcomes back")
		fleetN     = fs.Int("fleet-shards", 0, "lease partitions for -coordinate (default 4); each lease covers the windows whose index ≡ shard mod N")
		leaseTTL   = fs.Duration("lease-ttl", 0, "-coordinate: how long a worker's lease survives without a heartbeat before its shard is reassigned (default 10s)")
		specAfter  = fs.Duration("speculate-after", 0, "-coordinate: lease age past which an idle worker is granted a speculative duplicate of a straggling shard (default -lease-ttl)")
		idleGrace  = fs.Duration("idle-grace", 0, "-coordinate: how long an empty fleet is tolerated before degrading to local analysis of the uncovered windows (default 2s)")
		workerName = fs.String("worker-name", "", "-worker: `name` reported to the coordinator's logs (default host:pid)")
		version    = fs.Bool("version", false, "print the build's module version and VCS revision, then exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rvpredict [flags] trace.rvpt")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		b := rvpredict.BuildInfo()
		fmt.Fprintf(stdout, "rvpredict %s %s\n", b.Version, b.Revision)
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "rvpredict:", err)
		return 2
	}
	defer f.Close()
	format, err := tracefile.Sniff(f)
	if err != nil {
		fmt.Fprintln(stderr, "rvpredict:", err)
		return 2
	}

	// -convert and -dump stream the file record by record — neither mode
	// materialises the trace, so both work on traces larger than memory.
	if *convertTo != "" {
		if format != tracefile.FormatLegacy {
			fmt.Fprintln(stderr, "rvpredict: -convert takes a legacy trace; the input is already chunked")
			return 2
		}
		if err := convertTrace(f, *convertTo, *chunkSize); err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		fmt.Fprintf(stderr, "rvpredict: wrote chunked trace %s\n", *convertTo)
		return 0
	}
	if *dump {
		if format == tracefile.FormatChunked {
			rd, err := tracev2.Open(fs.Arg(0))
			if err != nil {
				fmt.Fprintln(stderr, "rvpredict:", err)
				return 2
			}
			defer rd.Close()
			err = tracev2.Dump(stdout, rd)
			if err != nil {
				fmt.Fprintln(stderr, "rvpredict:", err)
				return 2
			}
			return 0
		}
		if err := tracefile.DumpStream(stdout, f); err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		return 0
	}

	// A chunked trace is mmapped and analysed out of core; a legacy trace
	// is decoded whole, as before. Modes that need the materialised trace
	// (baselines handle this internally; deadlock/atomicity/daemon below)
	// read the chunked trace fully.
	var tr *trace.Trace
	var rd *tracev2.Reader
	if format == tracefile.FormatChunked {
		rd, err = tracev2.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		defer rd.Close()
	} else {
		tr, err = tracefile.Decode(f)
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
	}
	// materialise returns the whole trace, reading a chunked file once on
	// first use — only the modes that genuinely need every event in
	// memory call it.
	materialise := func() (*trace.Trace, error) {
		if tr == nil {
			var err error
			tr, err = rd.ReadAll()
			if err != nil {
				return nil, err
			}
		}
		return tr, nil
	}
	// eventAt/locName render witnesses and reports without assuming a
	// materialised trace.
	eventAt := func(i int) trace.Event {
		if tr != nil {
			return tr.Event(i)
		}
		e, _ := rd.Event(i)
		return e
	}
	locName := func(l trace.Loc) string {
		if tr != nil {
			return tr.LocName(l)
		}
		return rd.LocName(l)
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			pf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "rvpredict:", err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintln(stderr, "rvpredict:", err)
			}
		}()
	}

	ws := *window
	if ws == 0 {
		ws = -1 // whole trace
	}
	opt := rvpredict.Options{
		WindowSize:       ws,
		SolveTimeout:     *timeout,
		FirstPassTimeout: *firstPass,
		GlobalBudget:     *budget,
		Parallelism:      *parallel,
		PairParallelism:  *pairPar,
		Witness:          *witness,
		Telemetry:        *stats || *jsonOut,
		Journal:          *journalTo,
		Resume:           *resume,
	}
	// RVPREDICT_FAULTS carries a deterministic fault script (see
	// faultinject.ParseScript) into the pipeline — the hook the re-exec
	// crash-recovery tests use to kill this process at precise points.
	var inj *faultinject.Injector
	if spec := os.Getenv("RVPREDICT_FAULTS"); spec != "" {
		in, err := faultinject.ParseScript(spec)
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		inj = in
		opt.FaultInjector = inj
	}
	switch mode := strings.ToLower(*triage); mode {
	case "on":
		// default: the full witness-backed ladder (SHB → WCP → SyncP)
	case "off":
		opt.NoTriage = true
	case "shb", "wcp", "syncp", "cp":
		opt.TriageLevel = mode
	default:
		fmt.Fprintf(stderr, "rvpredict: unknown -triage mode %q (want on, off, shb, wcp, syncp or cp)\n", *triage)
		return 2
	}
	if *progress {
		opt.Tracer = &progressTracer{w: stderr, start: time.Now()}
	}
	if *httpAddr != "" {
		opt.DebugAddr = *httpAddr
		opt.OnDebugAddr = func(addr string) {
			fmt.Fprintf(stderr, "rvpredict: introspection on http://%s/\n", addr)
		}
	}
	var spans *rvpredict.SpanRecorder
	if *traceOut != "" {
		spans = rvpredict.NewSpanRecorder(0)
		opt.Spans = spans
	}

	// deliver renders one report to -out (atomically) or stdout; every
	// report path below goes through it so a killed run can never leave a
	// half-written report file.
	deliver := func(render func(w io.Writer) error) error {
		if *outPath == "" && inj == nil {
			return render(stdout)
		}
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return err
		}
		if *outPath == "" {
			_, err := stdout.Write(buf.Bytes())
			return err
		}
		return journal.WriteFileAtomic(*outPath, buf.Bytes(), inj)
	}

	if *deadlocks || *atomicity {
		if *journalTo != "" || *resume {
			fmt.Fprintln(stderr, "rvpredict: -journal/-resume apply to race detection only")
			return 2
		}
		if *httpAddr != "" || *traceOut != "" {
			fmt.Fprintln(stderr, "rvpredict: -http/-trace-out apply to race detection only")
			return 2
		}
		if *shards != 0 || *mergeList != "" {
			fmt.Fprintln(stderr, "rvpredict: -shards/-merge apply to race detection only")
			return 2
		}
	}
	if *mergeList != "" {
		if *shards != 0 || *journalTo != "" || *resume || *daemonAddr != "" {
			fmt.Fprintln(stderr, "rvpredict: -merge combines finished shard journals; it conflicts with -shards/-journal/-resume/-daemon")
			return 2
		}
		if strings.ToLower(*algoName) != "rv" {
			fmt.Fprintln(stderr, "rvpredict: -merge merges rv shard journals; -algo applies to direct analysis")
			return 2
		}
	}
	if *shards != 0 && *daemonAddr != "" {
		fmt.Fprintln(stderr, "rvpredict: -shards applies to local analysis only")
		return 2
	}
	if *coordAddr != "" || *workerAddr != "" {
		switch {
		case *coordAddr != "" && *workerAddr != "":
			fmt.Fprintln(stderr, "rvpredict: -coordinate and -worker are different roles; pick one per process")
			return 2
		case *daemonAddr != "" || *mergeList != "" || *shards != 0:
			fmt.Fprintln(stderr, "rvpredict: -coordinate/-worker conflict with -daemon/-merge/-shards")
			return 2
		case *deadlocks || *atomicity:
			fmt.Fprintln(stderr, "rvpredict: the fleet runs race detection only")
			return 2
		case strings.ToLower(*algoName) != "rv":
			fmt.Fprintln(stderr, "rvpredict: the fleet runs the rv algorithm; -algo applies to direct analysis")
			return 2
		case *coordAddr != "" && *journalTo == "":
			fmt.Fprintln(stderr, "rvpredict: -coordinate requires -journal (the coordinator's durable result journal)")
			return 2
		case *coordAddr != "" && *resume:
			fmt.Fprintln(stderr, "rvpredict: -coordinate resumes from an existing -journal automatically; drop -resume")
			return 2
		case *workerAddr != "" && (*journalTo != "" || *resume || *outPath != ""):
			fmt.Fprintln(stderr, "rvpredict: -journal/-resume/-out are owned by the coordinator in -worker mode")
			return 2
		}
	}

	if *daemonAddr != "" {
		switch {
		case *token == "":
			fmt.Fprintln(stderr, "rvpredict: -daemon requires -token (the session's resumption key)")
			return 2
		case *deadlocks || *atomicity:
			fmt.Fprintln(stderr, "rvpredict: -daemon streams race detection only")
			return 2
		case *journalTo != "" || *resume || *httpAddr != "" || *traceOut != "" || *stats:
			fmt.Fprintln(stderr, "rvpredict: -journal/-resume/-http/-trace-out/-stats are owned by the daemon in -daemon mode")
			return 2
		case strings.ToLower(*algoName) != "rv":
			fmt.Fprintln(stderr, "rvpredict: the daemon runs the rv algorithm; -algo applies to local analysis")
			return 2
		}
		mtr, err := materialise()
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		rep, err := capture.StreamTrace(ctx, mtr, capture.StreamOptions{
			Addr:  *daemonAddr,
			Token: *token,
			OnRetry: func(attempt int, err error) {
				fmt.Fprintf(stderr, "rvpredict: stream attempt %d failed (%v); reconnecting\n", attempt, err)
			},
		})
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "rvpredict: interrupted")
				return exitInterrupted
			}
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		if err := deliver(func(w io.Writer) error {
			if *jsonOut {
				return emitJSON(w, rep)
			}
			renderRaceReport(w, rep, eventAt, locName, *witness)
			return nil
		}); err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		return foundExit(len(rep.Races))
	}

	if *deadlocks {
		mtr, err := materialise()
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		rep := rvpredict.DetectDeadlocksContext(ctx, mtr, opt)
		err = deliver(func(w io.Writer) error {
			if *jsonOut {
				return emitJSON(w, rep)
			}
			fmt.Fprintf(w, "deadlocks: %d (of %d candidate inversions) in %v\n",
				len(rep.Deadlocks), rep.Candidates, rep.Elapsed.Round(time.Millisecond))
			for i, d := range rep.Deadlocks {
				fmt.Fprintf(w, "  #%d %s\n", i+1, d.Description)
				if *witness && d.Witness != nil {
					fmt.Fprintf(w, "     witness prefix:")
					for _, idx := range d.Witness {
						fmt.Fprintf(w, " %d", idx)
					}
					fmt.Fprintln(w)
				}
			}
			if *stats {
				printTelemetry(w, rep.Telemetry)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		if rep.Interrupted {
			fmt.Fprintln(stderr, "rvpredict: interrupted; partial results above")
			return exitInterrupted
		}
		return foundExit(len(rep.Deadlocks))
	}

	if *atomicity {
		mtr, err := materialise()
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		rep := rvpredict.DetectAtomicityViolationsContext(ctx, mtr, opt)
		err = deliver(func(w io.Writer) error {
			if *jsonOut {
				return emitJSON(w, rep)
			}
			fmt.Fprintf(w, "atomicity violations: %d (of %d candidates) in %v\n",
				len(rep.Violations), rep.Candidates, rep.Elapsed.Round(time.Millisecond))
			for i, v := range rep.Violations {
				fmt.Fprintf(w, "  #%d %s\n", i+1, v.Description)
			}
			if *stats {
				printTelemetry(w, rep.Telemetry)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		if rep.Interrupted {
			fmt.Fprintln(stderr, "rvpredict: interrupted; partial results above")
			return exitInterrupted
		}
		return foundExit(len(rep.Violations))
	}

	switch strings.ToLower(*algoName) {
	case "rv":
		opt.Algorithm = rvpredict.MaximalCF
	case "said":
		opt.Algorithm = rvpredict.SaidEtAl
	case "cp":
		opt.Algorithm = rvpredict.CausallyPrecedes
	case "hb":
		opt.Algorithm = rvpredict.HappensBefore
	case "qc":
		opt.Algorithm = rvpredict.QuickCheck
	default:
		fmt.Fprintf(stderr, "rvpredict: unknown algorithm %q\n", *algoName)
		return 2
	}

	// Fleet modes: both sides analyse through a trace reader, so the
	// handshake fingerprint (content hash + result-affecting options) is
	// comparable across processes whatever the input format.
	if *coordAddr != "" || *workerAddr != "" {
		if rd != nil {
			opt.TraceReader = rd
		} else {
			opt.TraceReader = tracev2.FromTrace(tr)
		}
	}
	logf := func(format string, fargs ...any) {
		fmt.Fprintf(stderr, "rvpredict: "+format+"\n", fargs...)
	}
	if *workerAddr != "" {
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		err := fleet.RunWorker(ctx, fleet.WorkerOptions{
			Addr:          *workerAddr,
			Detect:        opt,
			Name:          name,
			FaultInjector: inj,
			AllowCrash:    true,
			Logf:          logf,
		})
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "rvpredict: interrupted")
				return exitInterrupted
			}
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		fmt.Fprintf(stderr, "rvpredict: worker %s done\n", name)
		return 0
	}

	var rep rvpredict.Report
	if *coordAddr != "" {
		jpath := *journalTo
		opt.Journal = "" // the journal belongs to the coordinator, not the detector
		ln, lerr := net.Listen("tcp", *coordAddr)
		if lerr != nil {
			fmt.Fprintln(stderr, "rvpredict:", lerr)
			return 2
		}
		coord, cerr := fleet.NewCoordinator(fleet.CoordinatorOptions{
			Detect:         opt,
			Journal:        jpath,
			Shards:         *fleetN,
			LeaseTTL:       *leaseTTL,
			SpeculateAfter: *specAfter,
			IdleGrace:      *idleGrace,
			FaultInjector:  inj,
			Logf:           logf,
		})
		if cerr != nil {
			ln.Close()
			fmt.Fprintln(stderr, "rvpredict:", cerr)
			return 2
		}
		fmt.Fprintf(stderr, "rvpredict: coordinating on %s\n", ln.Addr())
		rep, err = coord.Run(ctx, ln)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "rvpredict: interrupted")
				return exitInterrupted
			}
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
	} else if *mergeList != "" {
		if rd != nil {
			opt.TraceReader = rd
		} else {
			opt.TraceReader = tracev2.FromTrace(tr)
		}
		rep, err = rvpredict.MergeShards(ctx, opt, strings.Split(*mergeList, ","))
	} else {
		opt.Shards, opt.ShardID = *shards, *shardID
		if rd != nil {
			// Chunked input: analyse out of core. Baselines materialise
			// internally via the reader.
			opt.TraceReader = rd
			rep, err = rvpredict.Run(ctx, nil, opt)
		} else {
			rep, err = rvpredict.Run(ctx, tr, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "rvpredict:", err)
		return 2
	}
	err = deliver(func(w io.Writer) error {
		if *jsonOut {
			return emitJSON(w, rep)
		}
		renderRaceReport(w, &rep, eventAt, locName, *witness)
		if *stats {
			printTelemetry(w, rep.Telemetry)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "rvpredict:", err)
		return 2
	}
	if spans != nil {
		if err := writeTraceEvents(*traceOut, spans, inj); err != nil {
			fmt.Fprintln(stderr, "rvpredict:", err)
			return 2
		}
		if n := spans.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "rvpredict: span ring wrapped; %d oldest spans dropped from %s\n", n, *traceOut)
		}
	}
	if rep.Interrupted {
		fmt.Fprintln(stderr, "rvpredict: interrupted; partial results above")
		return exitInterrupted
	}
	return foundExit(len(rep.Races))
}

// convertTrace streams a legacy trace file into the chunked columnar
// format — record by record, so traces larger than memory convert in
// bounded space. The output is fsynced before the function reports
// success.
func convertTrace(src io.Reader, dst string, chunkSize int) error {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := tracev2.Convert(out, src, chunkSize); err != nil {
		out.Close()
		os.Remove(dst)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeTraceEvents renders the recorded span timeline as Chrome
// trace-event JSON and writes it with the same atomic discipline as
// -out: a crash mid-write never leaves a half-written timeline.
func writeTraceEvents(path string, spans *rvpredict.SpanRecorder, inj *faultinject.Injector) error {
	var buf bytes.Buffer
	if err := spans.WriteChromeTrace(&buf); err != nil {
		return err
	}
	return journal.WriteFileAtomic(path, buf.Bytes(), inj)
}

// syncWriter serialises whole writes to one underlying writer. fmt's
// Fprintf issues a single Write per call, so each formatted line passes
// through atomically.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// renderRaceReport prints the human-readable race report — shared by
// local analysis, out-of-core chunked analysis and -daemon streaming,
// so every mode is diffable. Events and location names come through
// accessors so a chunked trace never needs materialising just to
// render.
func renderRaceReport(w io.Writer, rep *rvpredict.Report, eventAt func(int) trace.Event, locName func(trace.Loc) string, witness bool) {
	s := rep.Stats
	fmt.Fprintf(w, "trace: %d events, %d threads, %d r/w, %d sync, %d branch\n",
		s.Events, s.Threads, s.Accesses, s.Syncs, s.Branches)
	fmt.Fprintf(w, "%s: %d race(s) in %v (%d pairs checked, %d windows, %d timeouts)\n",
		rep.Algorithm, len(rep.Races), rep.Elapsed.Round(time.Millisecond),
		rep.PairsChecked, rep.Windows, rep.SolverTimeouts)
	for i, r := range rep.Races {
		fmt.Fprintf(w, "  #%d %s\n", i+1, r.Description)
		if witness && r.Witness != nil {
			fmt.Fprint(w, race.RenderWitnessFunc(eventAt, locName, r.Witness))
		}
	}
	if rep.BudgetExhausted {
		fmt.Fprintln(w, "note: global budget exhausted; results are sound but may be incomplete")
	}
	if rep.DegradedWindows > 0 {
		fmt.Fprintf(w, "note: %d window(s) analysed in degraded mode; races shown are sound, but SMT-only races in those windows may be missing\n",
			rep.DegradedWindows)
	}
	for _, f := range rep.WindowFailures {
		fmt.Fprintf(w, "note: window %d (offset %d, %d events) failed: %s\n",
			f.Window, f.Offset, f.Events, f.PanicValue)
	}
}

// foundExit maps a finding count to the command's exit status.
func foundExit(findings int) int {
	if findings > 0 {
		return 1
	}
	return 0
}

func emitJSON(w io.Writer, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// printTelemetry renders the -stats block: phase timings first, then the
// candidate funnel, then the solver-stack counters.
func printTelemetry(w io.Writer, t *rvpredict.Telemetry) {
	if t == nil {
		return
	}
	ms := func(ns int64) string {
		return time.Duration(ns).Round(10 * time.Microsecond).String()
	}
	fmt.Fprintln(w, "--- stats ---")
	fmt.Fprintf(w, "phases: scan %s, enumerate %s, mhb %s, quick-check %s, encode %s, checkpoint %s, solve %s, witness %s\n",
		ms(t.Phases.TraceScan), ms(t.Phases.Enumerate), ms(t.Phases.MHB),
		ms(t.Phases.QuickCheck), ms(t.Phases.Encode), ms(t.Phases.Checkpoint),
		ms(t.Phases.Solve), ms(t.Phases.Witness))
	o := t.Outcomes
	fmt.Fprintf(w, "candidates: %d enumerated, %d quick-check filtered, %d MHB filtered, %d dedup hits\n",
		o.Enumerated, o.QuickCheckFiltered, o.MHBFiltered, o.SigDedupHits)
	fmt.Fprintf(w, "queries: %d solved — %d sat, %d unsat, %d timeout, %d conflict-budget, %d cancelled\n",
		o.Solved, o.Sat, o.Unsat, o.Timeout, o.ConflictBudget, o.Cancelled)
	if o.RetriesScheduled > 0 || o.BudgetExhausted > 0 || o.WindowFailures > 0 {
		fmt.Fprintf(w, "resilience: %d retries scheduled, %d solved on retry (%d sat), %d budget-exhausted, %d window failures\n",
			o.RetriesScheduled, o.RetriesSolved, o.RetrySat, o.BudgetExhausted, o.WindowFailures)
	}
	sc := t.Solver
	fmt.Fprintf(w, "sat: %d decisions, %d propagations, %d conflicts, %d restarts, %d learned\n",
		sc.Decisions, sc.Propagations, sc.Conflicts, sc.Restarts, sc.Learned)
	fmt.Fprintf(w, "idl: %d atom asserts, %d negative cycles, %d repair steps (%d theory props, %d theory conflicts)\n",
		sc.IDLAsserts, sc.IDLNegativeCycles, sc.IDLRepairSteps, sc.TheoryProps, sc.TheoryConflicts)
	fmt.Fprintf(w, "encode: %d interned atoms, %d tseitin vars, %d tseitin clauses; %d bool vars, %d clauses, %d int vars across %d solver(s)\n",
		sc.InternedAtoms, sc.TseitinVars, sc.TseitinClauses, sc.BoolVars, sc.Clauses, sc.IntVars, sc.Solvers)
	if ps := t.PairSched; ps.Groups > 0 {
		fmt.Fprintf(w, "pair scheduler: %d groups, %d workers, %d replicas, %d rollbacks, queue wait %s\n",
			ps.Groups, ps.Workers, ps.Replicas, ps.Rollbacks, ms(ps.QueueWaitNS))
	}
	if tg := t.Triage; tg.Confirmed+tg.WCPConfirmed+tg.SyncPConfirmed+tg.CPConfirmed+tg.Dispatched > 0 {
		fmt.Fprintf(w, "triage: %d confirmed (%d shb, %d wcp, %d syncp, %d cp), %d dispatched to smt, fast path %s\n",
			tg.Confirmed+tg.WCPConfirmed+tg.SyncPConfirmed+tg.CPConfirmed,
			tg.Confirmed, tg.WCPConfirmed, tg.SyncPConfirmed, tg.CPConfirmed,
			tg.Dispatched, ms(tg.FastPathNS))
	}
	fmt.Fprintf(w, "windows: %d\n", t.WindowCount)
}

// progressTracer prints window lifecycle lines — and noteworthy query
// verdicts (findings and solver aborts) — to stderr as analysis runs.
// Methods may be called concurrently when -parallel > 1.
type progressTracer struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

func (p *progressTracer) stamp() string {
	return time.Since(p.start).Round(time.Millisecond).String()
}

func (p *progressTracer) WindowStart(index, events int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%s] window %d: %d events\n", p.stamp(), index, events)
}

func (p *progressTracer) WindowDone(index, findings int, elapsed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%s] window %d done: %d finding(s) in %v\n",
		p.stamp(), index, findings, elapsed.Round(time.Millisecond))
}

func (p *progressTracer) QuerySolved(index, a, b int, outcome rvpredict.Outcome, elapsed time.Duration) {
	if outcome != rvpredict.OutcomeSat && !outcome.Aborted() {
		return // unsat is the common, quiet case
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%s] window %d: events %d,%d → %s (%v)\n",
		p.stamp(), index, a, b, outcome, elapsed.Round(time.Millisecond))
}
