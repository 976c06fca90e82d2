// Command rvpredictd is the streaming race-detection daemon: a
// long-running service that accepts trace streams over TCP, analyses
// windows online with bounded memory, and keeps every session durable —
// a killed daemon resumes its open sessions bit-identically on restart.
//
// Usage:
//
//	rvpredictd -listen :7464 -state-dir /var/lib/rvpredictd [flags]
//
// Clients are cmd/rvpredict with -daemon, or anything using
// capture.StreamTrace. Each session is named by a client-chosen token;
// the daemon journals per-session progress under -state-dir so
// disconnects, restarts and crashes never lose analysed windows.
//
// Operational posture:
//
//   - Admission control: at most -max-sessions concurrent sessions;
//     excess clients get a typed reject and retry elsewhere, they do not
//     hang in an accept queue.
//   - Backpressure: at most -max-windows windows in SMT analysis at
//     once across all sessions; when saturated, ingest blocks and TCP
//     flow control pushes back on clients.
//   - Graceful degradation: with -degrade-after set, a session blocked
//     that long sheds the SMT tier for the blocked window and reports
//     only sound vector-clock-confirmed races, flagged degraded in
//     provenance. Degradation never invents a race.
//   - Graceful shutdown: SIGTERM/SIGINT stops accepting, drains
//     in-flight sessions, then exits 0. A second signal exits
//     immediately; suspended sessions resume on the next start.
//
// The -http endpoint serves /metrics (Prometheus), /healthz, /readyz
// and /debug/pprof. Exit status is 0 after a clean drain, 2 on usage
// errors, and 7 on an injected crash (test harnesses only).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/introspect"
	"repro/internal/stream"
	"repro/rvpredict"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rvpredictd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", ":7464", "TCP `addr` for the streaming protocol (\":0\" picks a port)")
		stateDir     = fs.String("state-dir", "", "`dir` for per-session durable state (required)")
		httpAddr     = fs.String("http", "", "serve introspection on `addr`: /metrics, /healthz, /readyz, /debug/pprof")
		window       = fs.Int("window", 10000, "window size in events (0 = single window per session; unbounded memory)")
		solve        = fs.Duration("solve", 60*time.Second, "per-pair solver timeout")
		witness      = fs.Bool("witness", false, "include a witness schedule per race")
		pairPar      = fs.Int("pair-parallel", 0, "solve pairs inside each window with this many workers (deterministic)")
		triage       = fs.String("triage", "on", "triage ladder rung: on, off, shb, wcp, syncp or cp (results identical at every rung)")
		maxSessions  = fs.Int("max-sessions", 16, "admission limit on concurrent sessions")
		maxWindows   = fs.Int("max-windows", 0, "windows in SMT analysis at once across all sessions (0 = GOMAXPROCS)")
		degradeAfter = fs.Duration("degrade-after", 0, "shed the SMT tier for a window after blocking this long on a solver slot (0 = never degrade)")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "suspend a session whose client goes silent this long")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM drain before forcing shutdown")
		version      = fs.Bool("version", false, "print the build's module version and VCS revision, then exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rvpredictd -listen addr -state-dir dir [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		b := rvpredict.BuildInfo()
		fmt.Fprintf(stdout, "rvpredictd %s %s\n", b.Version, b.Revision)
		return 0
	}
	if fs.NArg() != 0 || *stateDir == "" {
		fs.Usage()
		return 2
	}

	logger := log.New(stderr, "rvpredictd: ", log.LstdFlags)

	ws := *window
	if ws == 0 {
		ws = -1 // whole stream as one window
	}
	detect := rvpredict.Options{
		Algorithm:       rvpredict.MaximalCF,
		WindowSize:      ws,
		SolveTimeout:    *solve,
		Witness:         *witness,
		PairParallelism: *pairPar,
	}
	switch mode := strings.ToLower(*triage); mode {
	case "on":
		// default: the full witness-backed ladder (SHB → WCP → SyncP)
	case "off":
		detect.NoTriage = true
	case "shb", "wcp", "syncp", "cp":
		detect.TriageLevel = mode
	default:
		fmt.Fprintf(stderr, "rvpredictd: unknown -triage mode %q (want on, off, shb, wcp, syncp or cp)\n", *triage)
		return 2
	}

	var inj *faultinject.Injector
	if spec := os.Getenv("RVPREDICT_FAULTS"); spec != "" {
		in, err := faultinject.ParseScript(spec)
		if err != nil {
			fmt.Fprintln(stderr, "rvpredictd:", err)
			return 2
		}
		inj = in
	}

	d, err := stream.New(stream.Options{
		StateDir:           *stateDir,
		Detect:             detect,
		MaxSessions:        *maxSessions,
		MaxInFlightWindows: *maxWindows,
		DegradeAfter:       *degradeAfter,
		IdleTimeout:        *idleTimeout,
		FaultInjector:      inj,
		Logf:               logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "rvpredictd:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "rvpredictd:", err)
		d.Close()
		return 2
	}
	// The rendezvous lines: with ":0" the kernel picks the ports, so
	// supervisors (and the e2e harness) parse these to find them.
	fmt.Fprintf(stdout, "listening %s\n", ln.Addr())

	var isrv *introspect.Server
	if *httpAddr != "" {
		b := rvpredict.BuildInfo()
		isrv = introspect.New(introspect.Options{
			Collector: d.Collector(),
			Version:   b.Version,
			Revision:  b.Revision,
			Ready:     d.Ready,
		})
		addr, err := isrv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(stderr, "rvpredictd:", err)
			ln.Close()
			return 2
		}
		defer isrv.Close()
		fmt.Fprintf(stdout, "http %s\n", addr)
	}
	if f, ok := stdout.(interface{ Sync() error }); ok {
		f.Sync() //nolint:errcheck // best-effort flush of the rendezvous lines
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "rvpredictd:", err)
			d.Close()
			return 2
		}
		return 0
	case s := <-sig:
		logger.Printf("%v: draining (in-flight sessions finish; new sessions rejected)", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- d.Drain(ctx) }()
		select {
		case err := <-done:
			if err != nil {
				logger.Printf("drain incomplete: %v; suspended sessions resume on restart", err)
				d.Close()
				return 0
			}
			logger.Printf("drained cleanly")
			d.Close()
			return 0
		case s := <-sig:
			logger.Printf("%v again: immediate shutdown; suspended sessions resume on restart", s)
			d.Close()
			return 0
		}
	}
}
