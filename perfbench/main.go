// Command perfbench is rvpredict's benchmark. It generates one
// workload's trace from a seed with internal/workloads, runs it through
// the public entry points of one execution mode (batch, out-of-core
// reader, streaming daemon or fleet), checks every report, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload derby-batch --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of closed-loop
// iterations run for --seconds, with telemetry off. With --trace 1 it
// prints the per-layer ledger of one traced iteration plus a replay of
// every window through the layers' stage functions, and fails unless the
// replay's counts equal the program's own telemetry. See README.md for
// the workloads, the metrics and why each was chosen; run.py builds the
// command and runs it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// An end-to-end run sets up at least setupMinReps times and keeps
	// setting up for setupMinTime, up to setupMaxReps; setup_s is the
	// median. Set-up ranges from milliseconds (derby) to most of a second
	// (fleet), and a few samples of a millisecond task are too noisy.
	setupMinReps = 5
	setupMaxReps = 100
	setupMinTime = 2 * time.Second
	// runDeadline bounds a whole run, so the process exits well inside
	// its three-minute limit even when an iteration hangs.
	runDeadline = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed     = flag.Int64("seed", 0, "input seed, added to each row's generator seed (0 = the calibrated trace)")
		seconds  = flag.Int("seconds", 20, "measured time per run")
		traced   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = one traced run printing the per-layer ledger")
		buildDir = flag.String("build-dir", ".bench_build", "directory for scratch state, span traces and the counter ledger")
		rev      = flag.String("commit", "unknown", "VCS revision of the measured sources, for the stamp")
	)
	flag.Parse()
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	dir := filepath.Join(*buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	st := newStamp(w.name, *seed, *traced, *rev, *buildDir)
	var res result
	var counts map[string]int64
	var err error
	if *traced == 1 {
		res, counts, err = tracedRun(ctx, w, dir, *seed, *seconds, *buildDir)
	} else {
		res, counts, err = endToEnd(ctx, w, dir, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	// Exact counters: a run whose counts differ from an earlier correct
	// run of the same sources, workload and seed is wrong, whatever its
	// times.
	key := fmt.Sprintf("%s|%s|seed=%d|trace=%d", st.SourceDigest, w.name, *seed, *traced)
	if res.Correct {
		diffs, err := checkCounters(filepath.Join(*buildDir, "perfbench-counters.json"), key, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: counter ledger:", err)
		}
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "perfbench: count differs from an earlier run:", d)
		}
		res.Correct = err == nil && len(diffs) == 0
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// settle collects garbage, returns the freed memory to the kernel and
// restarts the peak-RSS high-water mark, so that an iteration starts from
// the same heap and its peak_rss_mb describes its own work alone.
func settle() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the kernel's peak-RSS mark (Linux
	// 4.0+); without it the mark includes earlier work.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size since the last
// settle.
func peakRSSMiB() float64 {
	data, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loop runs closed-loop iterations for the given time: an iteration
// starts only if it is expected to end within it, and at least one
// always runs. Iterations whose report-level counts differ from the
// first successful one count as failed.
func loop(ctx context.Context, in instance, seconds int) (samples []sample, attempted, failed int) {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for {
		t := time.Now()
		settle()
		s, err := in.iterate(ctx, nil)
		s.rss = peakRSSMiB()
		attempted++
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d failed: %v\n", attempted, err)
		case len(samples) > 0 && !sameCounts(samples[0].counts, s.counts):
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d counts %v differ from iteration 1's %v\n", attempted, s.counts, samples[0].counts)
		default:
			samples = append(samples, s)
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: wall %.4f s, cpu %.4f s\n", attempted, s.wall, s.cpu)
		}
		took := time.Since(t)
		if ctx.Err() != nil || time.Since(start)+took > budget {
			return samples, attempted, failed
		}
	}
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// endToEnd is a --trace 0 run: repeated set-up, then
// closed-loop iterations with telemetry off.
func endToEnd(ctx context.Context, w *workload, dir string, seed int64, seconds int) (result, map[string]int64, error) {
	var in instance
	var setups []float64
	start := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(start) < setupMinTime); i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return result{}, nil, err
		}
		t := time.Now()
		inst, err := w.setup(sub, seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		in = inst
	}
	if err := in.prepare(ctx); err != nil {
		return result{}, nil, fmt.Errorf("reference report: %w", err)
	}
	samples, attempted, failed := loop(ctx, in, seconds)

	var wall, cpu, rate, lat, rss []float64
	for _, s := range samples {
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		rate = append(rate, float64(s.events)/s.wall)
		if s.latencies == nil {
			// The offline modes start once the program has exited, so
			// its user waits the whole wall time for the report.
			lat = append(lat, s.wall)
		}
		lat = append(lat, s.latencies...)
		rss = append(rss, s.rss)
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"wall_s":           {median(wall), "s"},
			"cpu_s":            {median(cpu), "s"},
			"events_per_s":     {median(rate), "events/s"},
			"report_latency_s": {median(lat), "s"},
			"peak_rss_mb":      {median(rss), "MiB"},
		},
	}
	var counts map[string]int64
	if len(samples) > 0 {
		counts = samples[0].counts
	}
	return res, counts, nil
}

// tracedRun is a --trace 1 run: untraced iterations for the given time
// (the base of trace_overhead_frac), one traced iteration, and the probe
// replay whose counts must equal the program's telemetry.
func tracedRun(ctx context.Context, w *workload, dir string, seed int64, seconds int, buildDir string) (result, map[string]int64, error) {
	in, err := w.setup(dir, seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	if err := in.prepare(ctx); err != nil {
		return result{}, nil, fmt.Errorf("reference report: %w", err)
	}
	samples, attempted, failed := loop(ctx, in, seconds)
	var walls []float64
	for _, s := range samples {
		walls = append(walls, s.wall)
	}

	l := newLedger()
	settle()
	ts, err := in.iterate(ctx, l)
	attempted++
	if err != nil {
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: traced iteration failed:", err)
	}
	attempted++
	root := l.begin("probe", 0, -1)
	tele, err := in.probe(ctx, l, root, ts)
	l.end(root)
	switch mism := fidelity(l, tele); {
	case err != nil:
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: probe failed:", err)
	case len(mism) > 0:
		failed++
		for _, m := range mism {
			fmt.Fprintln(os.Stderr, "perfbench: probe disagrees with the program:", m)
		}
	}

	metrics, counts := layerMetrics(l, median(walls), ts.wall, w.shards)
	for k, v := range ts.counts {
		counts[k] = v
	}
	path := filepath.Join(buildDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, seed))
	if err := l.writeChromeTrace(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing span trace:", err)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, counts, nil
}

// layerMetrics turns the traced run's spans and counts into the
// per-layer ledger. A layer the workload does not run reads 0. It also
// returns every exact count, for the counter ledger.
func layerMetrics(l *ledger, untracedWall, tracedWall float64, shards int) (map[string]metric, map[string]int64) {
	m := make(map[string]metric)
	counts := make(map[string]int64)
	sec := func(name, span string) { m[name] = metric{l.seconds(span), "s"} }
	ns := func(name, count string) { m[name] = metric{float64(l.count(count)) / 1e9, "s"} }
	cnt := func(name string) {
		n := l.count(name)
		counts[name] = n
		m[name] = metric{float64(n), "count"}
	}
	ratio := func(name string, num, den int64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		m[name] = metric{v, "ratio"}
	}

	sec("tracefile.decode_s", "tracefile.Decode")
	m["tracev2.window_s"] = metric{l.selfSeconds("tracev2.Windows"), "s"}
	hits := l.count("tracev2.chunk_hits")
	ratio("tracev2.chunk_hit_ratio", hits, hits+l.count("tracev2.chunk_misses"))

	wins := l.windowSeconds(shards)
	var window, slowest float64
	for _, d := range wins {
		window += d
		if d > slowest {
			slowest = d
		}
	}
	m["core.window_s"] = metric{window, "s"}
	m["core.window_p50_s"] = metric{median(wins), "s"}
	m["core.window_max_s"] = metric{slowest, "s"}
	var staged float64
	for _, s := range probeStages {
		staged += l.seconds(s)
	}
	unattributed := 0.0
	if len(wins) > 0 {
		unattributed = window - staged
	}
	m["core.unattributed_s"] = metric{unattributed, "s"}

	sec("race.enumerate_s", "race.enumerate")
	cnt("race.cops")
	sec("vc.mhb_s", "vc.mhb")
	sec("lockset.quick_check_s", "lockset.quick_check")
	cnt("lockset.survivors")
	survivors := l.count("lockset.survivors")
	ratio("lockset.survivor_ratio", survivors, l.count("race.cops")-l.count("race.sig_dedup"))
	sec("hb.shb_s", "hb.shb")
	sec("syncp.witness_s", "syncp.witness")
	confirmed := l.count("triage.shb") + l.count("triage.wcp") + l.count("triage.syncp")
	counts["triage.confirmed"] = confirmed
	m["triage.confirmed"] = metric{float64(confirmed), "count"}
	ratio("triage.confirm_ratio", confirmed, survivors)
	cnt("triage.dispatched")

	sec("encode.base_s", "encode.base")
	sec("encode.cf_s", "encode.cf")
	cnt("encode.clauses")
	cnt("encode.idle_replicas")
	sec("smt.checkpoint_s", "smt.checkpoint")
	sec("smt.rollback_s", "smt.rollback")
	cnt("smt.rollbacks")
	sec("smt.solve_s", "smt.solve")
	cnt("smt.queries")
	cnt("sat.decisions")
	cnt("sat.conflicts")

	ns("journal.fsync_s", "journal.fsync_ns")
	cnt("journal.records")
	ns("rvpredict.tail_s", "rvpredict.tail_ns")
	sec("rvpredict.merge_s", "rvpredict.MergeShards")

	sec("stream.handshake_s", "stream.Handshake")
	sec("stream.send_s", "stream.SendTrace")
	ns("stream.backpressure_s", "stream.backpressure_ns")
	sec("stream.end_wait_s", "stream.End")

	cnt("fleet.leases_granted")
	cnt("fleet.leases_reassigned")
	cnt("fleet.speculative_wins")

	overhead := 0.0
	if untracedWall > 0 {
		overhead = tracedWall/untracedWall - 1
	}
	m["trace_overhead_frac"] = metric{overhead, "ratio"}
	return m, counts
}

// stamp identifies what a result was measured on.
type stamp struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        int    `json:"trace"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          string `json:"cpu"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func newStamp(workload string, seed int64, traced int, commit, buildDir string) stamp {
	return stamp{
		Workload:     workload,
		Seed:         seed,
		Trace:        traced,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		Commit:       commit,
		SourceDigest: sourceDigest(".", buildDir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden directories (VCS data) and the build directory. It
// identifies the code measured even where no VCS revision exists.
func sourceDigest(root, buildDir string) string {
	build, _ := filepath.Abs(buildDir)
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(p)
			if p != root && (strings.HasPrefix(d.Name(), ".") || abs == build) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkCounters compares counts with the ones recorded under key by an
// earlier run and records them when none are, returning one line per
// disagreement.
func checkCounters(path, key string, counts map[string]int64) ([]string, error) {
	if len(counts) == 0 {
		return nil, nil
	}
	all := make(map[string]map[string]int64)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return nil, err
	}
	if prev, ok := all[key]; ok {
		var diffs []string
		for k, v := range counts {
			if p, ok := prev[k]; ok && p != v {
				diffs = append(diffs, fmt.Sprintf("%s: %d, earlier %d", k, v, p))
			}
		}
		sort.Strings(diffs)
		return diffs, nil
	}
	all[key] = counts
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return nil, err
	}
	return nil, os.Rename(tmp, path)
}
