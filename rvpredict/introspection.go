package rvpredict

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/introspect"
	"repro/internal/race"
	"repro/internal/telemetry"
)

// SpanRecorder is the bounded, lock-free ring buffer the detectors
// publish their span timeline into when Options.Spans is set. Export the
// collected timeline with WriteChromeTrace; see internal/telemetry for
// the recording contract (overwrite-on-wrap, monotonic timestamps).
type SpanRecorder = telemetry.SpanRecorder

// DefaultSpanCapacity is a reasonable recorder size for whole-run
// timelines: big enough for thousands of windows with per-group detail.
const DefaultSpanCapacity = telemetry.DefaultSpanCapacity

// NewSpanRecorder returns a recorder holding the most recent capacity
// spans (capacity <= 0 selects DefaultSpanCapacity).
func NewSpanRecorder(capacity int) *SpanRecorder {
	return telemetry.NewSpanRecorder(capacity)
}

// BuildID identifies one build of this module.
type BuildID struct {
	// Version is the main module's version; "devel" for source builds
	// outside a released module version.
	Version string `json:"version"`
	// Revision is the VCS revision the Go toolchain embedded at build
	// time, or "unknown" when the binary was built outside a checkout
	// (go test binaries, for example).
	Revision string `json:"revision"`
}

var (
	buildOnce sync.Once
	buildID   BuildID
)

// BuildInfo reports the module version and VCS revision of the running
// binary, read once from the build information embedded by the Go
// toolchain. Both fields always carry a non-empty value so reports and
// the /metrics build_info gauge never expose empty labels.
func BuildInfo() BuildID {
	buildOnce.Do(func() {
		buildID = BuildID{Version: "devel", Revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildID.Version = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				buildID.Revision = s.Value
			}
		}
	})
	return buildID
}

// startIntrospection binds Options.DebugAddr, serves the debug surface
// for the run's duration and installs the /races feed: every completed
// window's races (already provenance-stamped, in whole-trace
// coordinates) are pushed as they merge, their locations read through
// the run's trace source. The feed chains onto any hook already
// installed and leaves room for the journal writer to chain after it, so
// observation and durability compose. The caller owns the returned
// server and must Close it when the run ends.
func startIntrospection(src EventSource, opt *Options) (*introspect.Server, error) {
	b := BuildInfo()
	iopt := introspect.Options{
		Collector: opt.col,
		Version:   b.Version,
		Revision:  b.Revision,
	}
	if opt.GlobalBudget > 0 {
		budget := opt.GlobalBudget
		start := time.Now()
		iopt.BudgetRemaining = func() time.Duration {
			if rem := budget - time.Since(start); rem > 0 {
				return rem
			}
			return 0
		}
	}
	srv := introspect.New(iopt)
	addr, err := srv.Start(opt.DebugAddr)
	if err != nil {
		return nil, err
	}
	// Window workers finish concurrently under Parallelism, and a
	// reader's random access is not safe for concurrent use.
	var mu sync.Mutex
	locOf := func(i int) string {
		mu.Lock()
		defer mu.Unlock()
		e, err := src.Event(i)
		if err != nil {
			return "?"
		}
		return src.LocName(e.Loc)
	}
	prev := opt.onWindowDone
	opt.onWindowDone = func(out race.WindowOutcome) {
		if prev != nil {
			prev(out)
		}
		for _, r := range out.Races {
			srv.AddRace(introspect.RaceView{
				A:          r.A,
				B:          r.B,
				First:      locOf(r.A),
				Second:     locOf(r.B),
				Provenance: r.Prov,
			})
		}
	}
	if opt.OnDebugAddr != nil {
		opt.OnDebugAddr(addr)
	}
	return srv, nil
}
