package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/rvpredict"
	"repro/trace"
)

// ledger records the spans and counts of one traced run. Spans come only
// from the benchmark's own code around calls into a layer's public
// functions; the program under test is never instrumented for it. All
// methods are safe for concurrent use (fleet workers and stream sessions
// record from their own goroutines).
type ledger struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

// span is one timed call. arg carries a call-specific integer (the
// window index for window callbacks) and is -1 otherwise.
type span struct {
	name       string
	id, parent int
	arg        int
	start, end time.Duration // since ledger.t0; end < 0 while open
}

func newLedger() *ledger {
	return &ledger{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span under parent (0 = the root) and returns its id.
// begin, end and add do nothing on a nil ledger, so untraced iterations
// run the same code.
func (l *ledger) begin(name string, parent, arg int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, arg: arg, start: now, end: -1})
	return id
}

// end closes span id.
func (l *ledger) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id-1].end = now
	l.mu.Unlock()
}

// add accumulates a count.
func (l *ledger) add(name string, n int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.counts[name] += n
	l.mu.Unlock()
}

func (l *ledger) count(name string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[name]
}

// closed returns the finished spans named name.
func (l *ledger) closed(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// seconds is the summed duration of every span named name.
func (l *ledger) seconds(name string) float64 {
	var d time.Duration
	for _, s := range l.closed(name) {
		d += s.end - s.start
	}
	return d.Seconds()
}

// selfSeconds is the summed duration of the spans named name minus the
// time their direct children cover — the layer's self time.
func (l *ledger) selfSeconds(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.name == name && s.end >= 0 {
			self[s.id] += s.end - s.start
		}
	}
	for _, s := range l.spans {
		if _, ok := self[s.parent]; ok && s.end >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var d time.Duration
	for _, v := range self {
		d += v
	}
	return d.Seconds()
}

// endOf is the end of span id.
func (l *ledger) endOf(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id-1].end
}

// lastEnd is the latest end of any span named name.
func (l *ledger) lastEnd(name string) time.Duration {
	var last time.Duration
	for _, s := range l.closed(name) {
		if s.end > last {
			last = s.end
		}
	}
	return last
}

// writeChromeTrace writes every span as a Chrome trace-event file
// (chrome://tracing or Perfetto), one lane per top-level span.
func (l *ledger) writeChromeTrace(path string) error {
	l.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	lane := make(map[int]int)
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.end < 0 {
			continue
		}
		tid := s.id
		if s.parent != 0 {
			tid = lane[s.parent]
		}
		lane[s.id] = tid
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "arg": s.arg},
		})
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// windowSeconds returns the per-window callback durations recorded as
// "core.window" spans, keeping for each enclosing Windows call only the
// windows of the shard that call analysed. A fleet worker's Windows call
// visits every window but analyses one lease shard (window index mod
// shards); the other callbacks return at once, so the owned shard is the
// residue class holding the most callback time. shards ≤ 1 keeps all.
func (l *ledger) windowSeconds(shards int) []float64 {
	wins := l.closed("core.window")
	if shards <= 1 {
		out := make([]float64, len(wins))
		for i, s := range wins {
			out[i] = (s.end - s.start).Seconds()
		}
		return out
	}
	byCall := make(map[int][]span)
	for _, s := range wins {
		byCall[s.parent] = append(byCall[s.parent], s)
	}
	var out []float64
	for _, call := range byCall {
		per := make([]time.Duration, shards)
		for _, s := range call {
			per[s.arg%shards] += s.end - s.start
		}
		owned := 0
		for r := range per {
			if per[r] > per[owned] {
				owned = r
			}
		}
		for _, s := range call {
			if s.arg%shards == owned {
				out = append(out, (s.end - s.start).Seconds())
			}
		}
	}
	sort.Float64s(out)
	return out
}

// tracedReader wraps an out-of-core trace reader so every Windows call
// and every per-window callback is a span: time inside Windows but
// outside the callback is the reader's window building, the callback is
// the program's per-window analysis.
type tracedReader struct {
	rvpredict.TraceReader
	l      *ledger
	parent int
}

func (r *tracedReader) Windows(size int, f func(w *trace.Trace, widx, offset int) error) error {
	call := r.l.begin("tracev2.Windows", r.parent, -1)
	defer r.l.end(call)
	return r.TraceReader.Windows(size, func(w *trace.Trace, widx, offset int) error {
		id := r.l.begin("core.window", call, widx)
		defer r.l.end(id)
		return f(w, widx, offset)
	})
}

// AttachTelemetry forwards the program's collector to the wrapped reader,
// so its chunk-cache counters still reach the collector.
func (r *tracedReader) AttachTelemetry(c *telemetry.Collector) {
	if at, ok := r.TraceReader.(interface{ AttachTelemetry(*telemetry.Collector) }); ok {
		at.AttachTelemetry(c)
	}
}

// windowTracer records the program's window lifecycle callbacks
// (rvpredict.Options.Tracer) as "core.window" spans — the batch path's
// only public window boundary.
type windowTracer struct {
	l      *ledger
	parent int
	mu     sync.Mutex
	open   map[int]int
}

func (t *windowTracer) WindowStart(index, _ int) {
	id := t.l.begin("core.window", t.parent, index)
	t.mu.Lock()
	t.open[index] = id
	t.mu.Unlock()
}

func (t *windowTracer) WindowDone(index, _ int, _ time.Duration) {
	t.mu.Lock()
	id, ok := t.open[index]
	delete(t.open, index)
	t.mu.Unlock()
	if ok {
		t.l.end(id)
	}
}

func (t *windowTracer) QuerySolved(int, int, int, telemetry.Outcome, time.Duration) {}
