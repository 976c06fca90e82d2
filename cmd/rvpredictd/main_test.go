package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/capture"
	"repro/internal/journal"
	"repro/internal/stream"
	"repro/rvpredict"
	"repro/trace"
)

// TestHelperProcess is not a test: it is the daemon re-executed as a
// child process so kill/crash scenarios can genuinely terminate it. The
// arguments after "--" are passed to run verbatim.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("RVPD_HELPER") != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Exit(run(args, os.Stdout, os.Stderr))
}

// daemonChild is one re-executed daemon process with its parsed
// rendezvous addresses.
type daemonChild struct {
	cmd  *exec.Cmd
	addr string // streaming listener
	http string // introspection listener, "" unless -http given
}

// startChild re-execs the test binary as rvpredictd and waits for its
// rendezvous lines.
func startChild(t *testing.T, stateDir string, withHTTP bool) *daemonChild {
	t.Helper()
	args := []string{"-test.run=^TestHelperProcess$", "--",
		"-listen", "127.0.0.1:0", "-state-dir", stateDir, "-window", "8", "-witness"}
	if withHTTP {
		args = append(args, "-http", "127.0.0.1:0")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RVPD_HELPER=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("re-exec failed to start: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	child := &daemonChild{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	deadline := time.After(15 * time.Second)
	lines := make(chan string, 8)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	need := 1
	if withHTTP {
		need = 2
	}
	for need > 0 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon child exited before announcing its listeners")
			}
			if rest, found := strings.CutPrefix(line, "listening "); found {
				child.addr = rest
				need--
			} else if rest, found := strings.CutPrefix(line, "http "); found {
				child.http = rest
				need--
			}
		case <-deadline:
			t.Fatalf("daemon child never announced its listeners")
		}
	}
	go func() { // keep draining so the child never blocks on stdout
		for range lines {
		}
	}()
	return child
}

// killFixture is an eight-window racy trace: plenty of windows for a
// kill to land between journal appends.
func killFixture() *trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < 8; i++ {
		l := trace.Loc(100 * (i + 1))
		x := trace.Addr(10 + 4*i)
		y := x + 1
		b.At(l+1).Write(1, x, 1)
		b.At(l+2).ReadV(2, x, 1)
		b.At(l+3).Write(1, y, 2)
		b.At(l+4).Write(2, y, 2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
	}
	return b.Trace()
}

func normalize(rep *rvpredict.Report) *rvpredict.Report {
	rep.Elapsed = 0
	for i := range rep.Races {
		rep.Races[i].Provenance.Replayed = false
	}
	return rep
}

// TestDaemonSIGKILLResume is the crash-recovery acceptance test: the
// daemon is killed with SIGKILL mid-session (windows journaled, report
// not yet written), a fresh daemon over the same state dir resumes the
// session from its durable ingest log and journal, and the final report
// is bit-identical to an uninterrupted batch run — with the replayed
// windows visible in both provenance and the /metrics counter.
func TestDaemonSIGKILLResume(t *testing.T) {
	tr := killFixture()
	stateDir := t.TempDir()
	opt := rvpredict.Options{WindowSize: 8, Witness: true, SolveTimeout: 60 * time.Second}
	want, err := rvpredict.Run(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: stream every event (no End) into the first daemon and
	// wait until at least two windows are durably journaled.
	child1 := startChild(t, stateDir, false)
	conn, err := net.Dial("tcp", child1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := stream.NewClient(conn)
	if _, err := cl.Handshake("kill-me"); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendTrace(tr, 0, 4); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(stateDir, "kill-me.journal")
	journaled := 0
	for deadline := time.Now().Add(15 * time.Second); ; {
		if _, info, err := journal.Inspect(jp); err == nil {
			journaled = len(info.Outcomes)
		}
		if journaled >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d windows journaled before the deadline", journaled)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := child1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child1.cmd.Wait()
	conn.Close()

	// Phase 2: a fresh daemon over the same state dir; the client
	// reconnects with the same token, resumes, and completes.
	child2 := startChild(t, stateDir, true)
	rep, err := capture.StreamTrace(context.Background(), tr, capture.StreamOptions{
		Addr:        child2.addr,
		Token:       "kill-me",
		BatchEvents: 4,
		BackoffMin:  10 * time.Millisecond,
		MaxAttempts: 10,
	})
	if err != nil {
		t.Fatalf("resuming stream: %v", err)
	}
	var replayedRaces int
	for _, r := range rep.Races {
		if r.Provenance.Replayed {
			replayedRaces++
		}
	}
	if replayedRaces == 0 {
		t.Errorf("no replayed races in the resumed report despite %d journaled windows", journaled)
	}
	if !reflect.DeepEqual(normalize(rep), normalize(&want)) {
		t.Errorf("resumed report differs from the uninterrupted run:\n got %+v\nwant %+v", rep, want)
	}

	// The restarted daemon's metrics must witness the replay.
	if v := scrapeMetric(t, child2.http, "rvpredict_journal_windows_replayed_total"); v < 2 {
		t.Errorf("windows_replayed = %v, want >= 2", v)
	}
	if v := scrapeMetric(t, child2.http, "rvpredict_sessions_active"); v != 0 {
		t.Errorf("sessions_active = %v after completion, want 0", v)
	}
	for _, probe := range []struct{ path, want string }{
		{"/healthz", "200"},
		{"/readyz", "200"},
	} {
		resp, err := http.Get("http://" + child2.http + probe.path)
		if err != nil {
			t.Fatalf("GET %s: %v", probe.path, err)
		}
		resp.Body.Close()
		if got := strconv.Itoa(resp.StatusCode); got != probe.want {
			t.Errorf("GET %s = %s, want %s", probe.path, got, probe.want)
		}
	}

	// Phase 3: SIGTERM drains and exits 0; /readyz flips to 503 during
	// the drain window (checked best-effort — the drain may win the
	// race), and the completed session's report file survives.
	if err := child2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.cmd.Wait(); err != nil {
		t.Errorf("SIGTERM drain exit: %v, want success", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "kill-me.report.json")); err != nil {
		t.Errorf("completed session's report artifact missing: %v", err)
	}
	for _, leftover := range []string{"kill-me.ingest", "kill-me.journal"} {
		if _, err := os.Stat(filepath.Join(stateDir, leftover)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("completed session left %s behind (stat err: %v)", leftover, err)
		}
	}
}

func scrapeMetric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE.+-]+)$`)
	m := re.FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("metric %s missing from scrape:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestUsageErrors pins the exit-2 contract.
func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no-state-dir": {"-listen", "127.0.0.1:0"},
		"positional":   {"-state-dir", os.TempDir(), "extra"},
		"bad-triage":   {"-state-dir", os.TempDir(), "-triage", "maybe"},
		"bad-flag":     {"-no-such-flag"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errb strings.Builder
			if got := run(args, &out, &errb); got != 2 {
				t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, got, errb.String())
			}
		})
	}
}

// TestTriageFlag: -triage accepts the same rungs, and rejects an unknown
// one with the same error text, as cmd/rvpredict. A valid rung gets past
// flag handling and fails only at the deliberately unusable listen
// address.
func TestTriageFlag(t *testing.T) {
	for _, mode := range []string{"on", "off", "shb", "wcp", "syncp", "cp", "SyncP"} {
		var out, errb strings.Builder
		args := []string{"-listen", "127.0.0.1:-1", "-state-dir", t.TempDir(), "-triage", mode}
		if got := run(args, &out, &errb); got != 2 || strings.Contains(errb.String(), "-triage") {
			t.Errorf("-triage %s: exit %d, stderr %q; want only the listen error", mode, got, errb.String())
		}
	}
	var out, errb strings.Builder
	if got := run([]string{"-state-dir", t.TempDir(), "-triage", "maybe"}, &out, &errb); got != 2 {
		t.Errorf("-triage maybe: exit %d, want 2", got)
	}
	want := "rvpredictd: unknown -triage mode \"maybe\" (want on, off, shb, wcp, syncp or cp)\n"
	if errb.String() != want {
		t.Errorf("-triage maybe: stderr %q, want %q", errb.String(), want)
	}
}

// TestVersionFlag: -version prints build info and exits 0.
func TestVersionFlag(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-version"}, &out, &errb); got != 0 {
		t.Fatalf("run(-version) = %d (stderr: %s)", got, errb.String())
	}
	if !strings.HasPrefix(out.String(), "rvpredictd ") {
		t.Errorf("version output = %q", out.String())
	}
	_ = fmt.Sprintf // keep fmt imported if assertions change
}
