package introspect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/telemetry"
)

// seedCollector populates a collector with a self-consistent candidate
// funnel: 12 enumerated = 2 quick-filtered + 1 dedup + 0 mhb + 3 SHB-
// confirmed + 1 WCP-confirmed + 1 SyncP-confirmed + 1 CP-confirmed +
// 3 dispatched.
func seedCollector() *telemetry.Collector {
	col := telemetry.NewCollector()
	col.CountEnumerated(12)
	col.CountQuickCheckFiltered()
	col.CountQuickCheckFiltered()
	col.CountSigDedup()
	for i := 0; i < 3; i++ {
		col.CountTriageConfirmed(race.TierSHB)
	}
	col.CountTriageConfirmed(race.TierWCP)
	col.CountTriageConfirmed(race.TierSyncP)
	col.CountTriageConfirmed(race.TierCP)
	for i := 0; i < 3; i++ {
		col.CountTriageDispatched()
	}
	col.CountPairGroups(4)
	col.CountGroupDone()
	col.CountWindowStarted()
	col.CountOutcome(telemetry.OutcomeSat)
	col.CountOutcome(telemetry.OutcomeUnsat)
	return col
}

func testServer(t *testing.T, col *telemetry.Collector) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{
		Collector:        col,
		Version:          "v0.test",
		Revision:         "deadbeef",
		ProgressInterval: 5 * time.Millisecond,
		BudgetRemaining:  func() time.Duration { return 90 * time.Second },
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

var (
	promName   = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	promSample = regexp.MustCompile(`^(` + promName + `)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)
	promHelp   = regexp.MustCompile(`^# HELP (` + promName + `) .+$`)
	promType   = regexp.MustCompile(`^# TYPE (` + promName + `) (counter|gauge|histogram|summary|untyped)$`)
)

// parsePromText validates Prometheus text exposition format line by line
// and returns family→samples. It enforces the format contract a real
// scraper needs: HELP/TYPE precede a family's samples, sample names match
// the announced family, and values parse as floats.
func parsePromText(t *testing.T, body string) map[string][]float64 {
	t.Helper()
	families := map[string][]float64{}
	var current string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			m := promHelp.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed HELP line: %q", line)
			}
			current = m[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := promType.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if m[1] != current {
				t.Fatalf("TYPE for %q does not follow its HELP (current %q)", m[1], current)
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		if m[1] != current {
			t.Fatalf("sample %q outside its family block (current %q)", m[1], current)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		families[m[1]] = append(families[m[1]], v)
	}
	return families
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// TestMetricsScrape: /metrics passes Prometheus text-format parsing,
// exposes every declared family, and the counter values match the
// collector's state — including the funnel identity.
func TestMetricsScrape(t *testing.T) {
	col := seedCollector()
	col.AttachSpans(telemetry.NewSpanRecorder(16))
	s, ts := testServer(t, col)
	s.AddRace(RaceView{A: 1, B: 2, First: "a.go:1", Second: "b.go:2",
		Provenance: race.Provenance{Tier: race.TierSHB, Window: 0}})

	families := parsePromText(t, scrape(t, ts.URL+"/metrics"))
	for _, name := range MetricNames() {
		if _, ok := families[name]; !ok {
			t.Errorf("metric family %s missing from scrape", name)
		}
	}
	get := func(name string) float64 {
		vs := families[name]
		if len(vs) != 1 {
			t.Fatalf("family %s has %d samples, want 1", name, len(vs))
		}
		return vs[0]
	}
	enumerated := get("rvpredict_candidates_enumerated_total")
	classified := get("rvpredict_quick_check_filtered_total") +
		get("rvpredict_signature_dedup_total") +
		get("rvpredict_mhb_filtered_total") +
		get("rvpredict_triage_confirmed_total") +
		get("rvpredict_triage_wcp_confirmed_total") +
		get("rvpredict_triage_syncp_confirmed_total") +
		get("rvpredict_triage_cp_confirmed_total") +
		get("rvpredict_triage_dispatched_total")
	if enumerated != 12 || classified != enumerated {
		t.Errorf("funnel identity broken: enumerated %v, classified %v", enumerated, classified)
	}
	if got := get("rvpredict_windows_in_flight"); got != 1 {
		t.Errorf("windows_in_flight = %v, want 1", got)
	}
	if got := get("rvpredict_pair_groups_queued"); got != 3 {
		t.Errorf("pair_groups_queued = %v, want 3 (4 dispatched − 1 done)", got)
	}
	if got := get("rvpredict_budget_remaining_seconds"); got != 90 {
		t.Errorf("budget_remaining_seconds = %v, want 90", got)
	}
	if got := get("rvpredict_races_total"); got != 1 {
		t.Errorf("races_total = %v, want 1", got)
	}
	if got := len(families["rvpredict_queries_total"]); got != 5 {
		t.Errorf("queries_total has %d outcome samples, want 5", got)
	}
	if got := len(families["rvpredict_phase_seconds_total"]); got != 8 {
		t.Errorf("phase_seconds_total has %d phase samples, want 8", got)
	}
	if got := get("rvpredict_build_info"); got != 1 {
		t.Errorf("build_info = %v, want 1", got)
	}
	if !strings.Contains(scrape(t, ts.URL+"/metrics"), `version="v0.test"`) {
		t.Error("build_info missing version label")
	}
}

// TestConditionalFamiliesAbsent: families tied to optional machinery
// (span recorder, global budget) are omitted, not zero-faked, when the
// machinery is off.
func TestConditionalFamiliesAbsent(t *testing.T) {
	s := New(Options{Collector: telemetry.NewCollector()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	families := parsePromText(t, scrape(t, ts.URL+"/metrics"))
	if _, ok := families["rvpredict_spans_dropped_total"]; ok {
		t.Error("spans_dropped_total exposed with no recorder attached")
	}
	if _, ok := families["rvpredict_budget_remaining_seconds"]; ok {
		t.Error("budget_remaining_seconds exposed with no budget")
	}
}

// TestProgressSSE: /progress streams funnel snapshots as server-sent
// events, starting immediately.
func TestProgressSSE(t *testing.T) {
	col := seedCollector()
	_, ts := testServer(t, col)
	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		var f Funnel
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("event payload not JSON: %v", err)
		}
		if f.Enumerated != 12 {
			t.Errorf("funnel enumerated = %d, want 12", f.Enumerated)
		}
		if sum := f.QuickCheckFiltered + f.SigDedup + f.MHBFiltered +
			f.TriageConfirmed + f.TriageWCPConfirmed + f.TriageSyncPConfirmed +
			f.TriageCPConfirmed + f.Dispatched; sum != f.Enumerated {
			t.Errorf("funnel identity broken in SSE event: %+v", f)
		}
		events++
	}
	if events < 2 {
		t.Fatalf("stream ended after %d events: %v", events, sc.Err())
	}
}

// TestRacesEndpoint: /races returns every recorded race with provenance.
func TestRacesEndpoint(t *testing.T) {
	s, ts := testServer(t, telemetry.NewCollector())
	want := RaceView{A: 3, B: 9, First: "x.go:10", Second: "y.go:20",
		Provenance: race.Provenance{Tier: race.TierSMT, Window: 1, Decisions: 42, WitnessLen: 6}}
	s.AddRace(want)

	var got struct {
		Races []RaceView `json:"races"`
	}
	if err := json.Unmarshal([]byte(scrape(t, ts.URL+"/races")), &got); err != nil {
		t.Fatalf("/races not JSON: %v", err)
	}
	if len(got.Races) != 1 || got.Races[0] != want {
		t.Errorf("/races = %+v, want [%+v]", got.Races, want)
	}
}

// TestPprofMounted: the standard profile index answers.
func TestPprofMounted(t *testing.T) {
	_, ts := testServer(t, telemetry.NewCollector())
	if body := scrape(t, ts.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ does not look like the pprof index")
	}
}

// TestStartClose: Start binds :0, serves, and Close shuts it down.
func TestStartClose(t *testing.T) {
	s := New(Options{Collector: telemetry.NewCollector()})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	body := scrape(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "rvpredict_build_info") {
		t.Error("served /metrics missing build_info")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentScrapes hammers the collector's counters, the span
// recorder and every endpoint from parallel goroutines (run with -race):
// scraping a live run must be free of data races.
func TestConcurrentScrapes(t *testing.T) {
	col := telemetry.NewCollector()
	rec := telemetry.NewSpanRecorder(256)
	col.AttachSpans(rec)
	s, ts := testServer(t, col)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				col.CountEnumerated(1)
				col.CountTriageDispatched()
				col.CountOutcome(telemetry.OutcomeUnsat)
				col.CountWindowStarted()
				sp := col.BeginSpan("hammer", telemetry.WorkerLane(0, w), 0)
				col.CountPairSkip()
				sp.End()
				col.CountWindowFinished()
				if i%50 == 0 {
					s.AddRace(RaceView{A: i, B: i + 1,
						Provenance: race.Provenance{Tier: race.TierSHB}})
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		parsePromText(t, scrape(t, ts.URL+"/metrics"))
		scrape(t, ts.URL+"/races")
	}
	wg.Wait()
	fams := parsePromText(t, scrape(t, ts.URL+"/metrics"))
	if len(fams["rvpredict_spans_dropped_total"]) != 1 {
		t.Error("spans_dropped_total absent with a recorder attached")
	}
}

// TestMetricNamesSortedUnique guards the drift-guard's input: names are
// sorted, unique, and rvpredict-prefixed.
func TestMetricNamesSortedUnique(t *testing.T) {
	names := MetricNames()
	for i, n := range names {
		if !strings.HasPrefix(n, "rvpredict_") {
			t.Errorf("metric %s lacks the rvpredict_ prefix", n)
		}
		if i > 0 {
			if names[i-1] == n {
				t.Errorf("duplicate metric name %s", n)
			}
			if names[i-1] > n {
				t.Errorf("names not sorted at %s", n)
			}
		}
	}
	if len(names) < 30 {
		t.Errorf("only %d metric families declared — table truncated?", len(names))
	}
	_ = fmt.Sprint() // keep fmt imported if assertions change
}
