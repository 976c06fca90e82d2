package rvpredict_test

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/rvpredict"
	"repro/trace"
)

// hammerFixture builds a many-window racy trace (one write/read and one
// write/write race per 8-event block) so a window- and pair-parallel run
// has real concurrent work while the scrapers hammer the server.
func hammerFixture(blocks int) *trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < blocks; i++ {
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

// TestIntrospectionConcurrentWithDetection is the -race hammer for the
// whole observation surface at once: window- and pair-parallel detection
// updates the collector's counters and the span ring while parallel
// goroutines scrape /metrics and /races mid-run. Run under -race in CI,
// it proves live scraping cannot race or perturb detection; the report
// must come out identical to an unobserved run's.
func TestIntrospectionConcurrentWithDetection(t *testing.T) {
	tr := hammerFixture(64)
	base := rvpredict.Options{
		WindowSize:      8,
		Witness:         true,
		Parallelism:     2,
		PairParallelism: 2,
		NoTriage:        true, // force solver work so the run has real duration
	}
	quiet, err := rvpredict.Run(nil, tr, base)
	if err != nil {
		t.Fatalf("unobserved run: %v", err)
	}

	opt := base
	opt.Telemetry = true
	opt.DebugAddr = "127.0.0.1:0"
	opt.Spans = rvpredict.NewSpanRecorder(1 << 12)

	var (
		wg       sync.WaitGroup
		done     = make(chan struct{})
		scrapeMu sync.Mutex
		scrapes  int
	)
	get := func(path string) (string, bool) {
		resp, err := http.Get(path)
		if err != nil {
			return "", false // server already closed: the run ended
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.StatusCode == http.StatusOK
	}
	opt.OnDebugAddr = func(addr string) {
		// One synchronous scrape before detection begins guarantees at
		// least one observation of the live server even on a machine fast
		// enough to finish detection before the hammer goroutines run.
		if body, ok := get("http://" + addr + "/metrics"); !ok || !strings.Contains(body, "rvpredict_build_info") {
			t.Error("pre-detection scrape failed")
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				path := "/metrics"
				if g%2 == 1 {
					path = "/races"
				}
				for {
					select {
					case <-done:
						return
					default:
					}
					if body, ok := get("http://" + addr + path); ok {
						scrapeMu.Lock()
						scrapes++
						scrapeMu.Unlock()
						if path == "/metrics" && !strings.Contains(body, "rvpredict_candidates_enumerated_total") {
							t.Error("mid-run scrape lacks funnel counters")
						}
					}
				}
			}(g)
		}
	}

	observed, err := rvpredict.Run(nil, tr, opt)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	if scrapes == 0 {
		t.Log("no hammer scrape completed before the run ended (pre-detection scrape still covered the surface)")
	}
	// Observation must not perturb the result — races and their
	// provenance are attributed at merge time, identically with or
	// without the servers attached.
	if !reflect.DeepEqual(observed.Races, quiet.Races) {
		t.Errorf("observation changed the result:\n got %+v\nwant %+v", observed.Races, quiet.Races)
	}
	if len(opt.Spans.Events()) == 0 {
		t.Error("span recorder captured nothing")
	}
}

// TestIntrospectionReaderParallel: under Parallelism the /races feed
// renders locations through an out-of-core reader from concurrently
// finishing windows; the reader's chunk cache is not safe for concurrent
// use, so this run under -race checks the feed serialises its reads, and
// the observed report must equal an unobserved one.
func TestIntrospectionReaderParallel(t *testing.T) {
	tr := hammerFixture(64)
	opt := rvpredict.Options{WindowSize: 8, Parallelism: 4, TraceReader: chunkedFixtureReader(t, tr)}
	quiet, err := rvpredict.Run(nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.TraceReader = chunkedFixtureReader(t, tr)
	opt.DebugAddr = "127.0.0.1:0"
	observed, err := rvpredict.Run(nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed.Races, quiet.Races) {
		t.Errorf("observation changed the result:\n got %+v\nwant %+v", observed.Races, quiet.Races)
	}
}
