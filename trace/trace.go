package trace

import (
	"fmt"
	"sort"
)

// NotifyLink records the pairing, observed in the original execution,
// between a notify and the wait it woke (Section 4, "wait-notify").
// A wait() is lowered by the producer into a release event followed — after
// the thread is woken — by a re-acquire event of the same lock. The link
// ties the notify to that release/acquire pair so the constraint encoder can
// require the notify's order to fall between them.
type NotifyLink struct {
	// Notify is the index of the notifying event (an OpRelease-free marker
	// is not used: the notify itself produces no lock event, it is recorded
	// only through this link and the producer's Loc bookkeeping).
	Notify int
	// Release is the index of the waiting thread's release event.
	Release int
	// Acquire is the index of the waiting thread's wake-up acquire event.
	Acquire int
}

// Trace is a finite sequence of events observed from one execution,
// together with the side metadata the analyses need: volatile location
// marking, initial values, wait/notify pairings and a location-name table.
// Events are addressed by their dense index in the sequence.
//
// The zero Trace is empty and ready to use.
type Trace struct {
	events []Event

	// links pairs each notify with the wait it woke.
	links []NotifyLink

	// volatileAddrs marks locations declared volatile by the program.
	// Conflicting accesses to volatile locations are not data races
	// (Section 4) but do induce synchronises-with edges for the
	// happens-before baseline.
	volatileAddrs map[Addr]bool

	// initial maps a location to its initial value; locations absent from
	// the map start at zero, matching the paper's examples.
	initial map[Addr]int64

	// locNames optionally names program locations for reports.
	locNames map[Loc]string
}

// New returns an empty trace with capacity for n events.
func New(n int) *Trace {
	return &Trace{events: make([]Event, 0, n)}
}

// FromParts assembles a trace around an existing event slice without
// copying it — the zero-copy window constructor used by out-of-core
// readers (internal/tracev2), which materialise one window at a time
// from a chunked file and must not re-own the whole trace. The metadata
// maps are adopted by reference with the same sharing contract as Slice:
// volatile and locName may be shared across windows (they are global,
// read-mostly), while initial must be owned by the window. A windowing
// driver builds it with WindowInitials, so it holds only the addresses
// the window's events name. Any map may be nil. The caller must not
// mutate events while the trace is in use; links are in window-local
// coordinates.
func FromParts(events []Event, links []NotifyLink, volatile map[Addr]bool, initial map[Addr]int64, names map[Loc]string) *Trace {
	return &Trace{
		events:        events,
		links:         links,
		volatileAddrs: volatile,
		initial:       initial,
		locNames:      names,
	}
}

// Append adds e to the end of the trace and returns its index.
func (tr *Trace) Append(e Event) int {
	tr.events = append(tr.events, e)
	return len(tr.events) - 1
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.events) }

// Event returns the event at index i.
func (tr *Trace) Event(i int) Event { return tr.events[i] }

// Events returns the underlying event slice. The slice is owned by the
// trace; callers must not modify it.
func (tr *Trace) Events() []Event { return tr.events }

// AddNotifyLink records that the notify at index n woke the wait lowered to
// the release/acquire pair (rel, acq).
func (tr *Trace) AddNotifyLink(n, rel, acq int) {
	tr.links = append(tr.links, NotifyLink{Notify: n, Release: rel, Acquire: acq})
}

// NotifyLinks returns the recorded wait/notify pairings.
func (tr *Trace) NotifyLinks() []NotifyLink { return tr.links }

// SetVolatile marks location a as volatile.
func (tr *Trace) SetVolatile(a Addr) {
	if tr.volatileAddrs == nil {
		tr.volatileAddrs = make(map[Addr]bool)
	}
	tr.volatileAddrs[a] = true
}

// Volatile reports whether location a was declared volatile.
func (tr *Trace) Volatile(a Addr) bool { return tr.volatileAddrs[a] }

// SetInitial records the initial value of location a (default 0).
func (tr *Trace) SetInitial(a Addr, v int64) {
	if tr.initial == nil {
		tr.initial = make(map[Addr]int64)
	}
	tr.initial[a] = v
}

// Initial returns the initial value of location a.
func (tr *Trace) Initial(a Addr) int64 { return tr.initial[a] }

// NameLoc assigns a human-readable name to a program location.
func (tr *Trace) NameLoc(l Loc, name string) {
	if tr.locNames == nil {
		tr.locNames = make(map[Loc]string)
	}
	tr.locNames[l] = name
}

// LocName renders a program location: its registered name if any, otherwise
// "L<n>".
func (tr *Trace) LocName(l Loc) string {
	if name, ok := tr.locNames[l]; ok {
		return name
	}
	return fmt.Sprintf("L%d", l)
}

// Threads returns the sorted set of thread IDs appearing in the trace.
func (tr *Trace) Threads() []TID {
	seen := make(map[TID]bool)
	for i := range tr.events {
		seen[tr.events[i].Tid] = true
	}
	out := make([]TID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ByThread returns, for each thread, the indices of its events in trace
// order — the projection τ|t of Section 2.2.
func (tr *Trace) ByThread() map[TID][]int {
	out := make(map[TID][]int)
	for i := range tr.events {
		t := tr.events[i].Tid
		out[t] = append(out[t], i)
	}
	return out
}

// Slice returns a new trace holding events[lo:hi] — the windowing
// primitive of Section 4. Event indices in the slice are renumbered from
// zero; notify links falling entirely inside the window are retained and
// rebased. The volatile and location-name maps are shared with the parent.
// The initial-value map is the slice's own and is window-scoped (see
// WindowInitials): Initial answers the parent's value for every address
// the slice's events name, and 0 for any other address.
func (tr *Trace) Slice(lo, hi int) *Trace { return tr.Window(lo, hi, nil) }

// Window is Slice with the memory state carried in from the preceding
// windows: for every address the window's events name, the last value
// carried for it wins over the parent's declared initial value.
func (tr *Trace) Window(lo, hi int, carried map[Addr]int64) *Trace {
	// Materialise the shared metadata maps so later mutations through
	// either trace remain visible to both.
	if tr.volatileAddrs == nil {
		tr.volatileAddrs = make(map[Addr]bool)
	}
	if tr.locNames == nil {
		tr.locNames = make(map[Loc]string)
	}
	events := tr.events[lo:hi:hi]
	w := &Trace{
		events:        events,
		volatileAddrs: tr.volatileAddrs,
		initial:       WindowInitials(events, tr.initial, carried),
		locNames:      tr.locNames,
	}
	for _, ln := range tr.links {
		if ln.Notify >= lo && ln.Notify < hi &&
			ln.Release >= lo && ln.Release < hi &&
			ln.Acquire >= lo && ln.Acquire < hi {
			w.links = append(w.links, NotifyLink{
				Notify:  ln.Notify - lo,
				Release: ln.Release - lo,
				Acquire: ln.Acquire - lo,
			})
		}
	}
	return w
}

// WindowInitials is the initial-value map of a window over events, the
// one rule every windower shares (Trace.Window, the chunked reader and
// the streaming session). It holds exactly the addresses the events name
// as a location or a lock — the only addresses Initial is asked about —
// each with its carried last write if carried has one, else its declared
// initial value. Zero values are left out, since Initial reads a missing
// address as 0. The cost is O(len(events)), however many addresses the
// declared and carried maps hold; the result is a fresh map the window
// owns.
func WindowInitials(events []Event, declared, carried map[Addr]int64) map[Addr]int64 {
	var out map[Addr]int64
	for i := range events {
		e := &events[i]
		if !e.Op.IsAccess() && e.Op != OpAcquire && e.Op != OpRelease {
			continue
		}
		if _, ok := out[e.Addr]; ok {
			continue
		}
		v, ok := carried[e.Addr]
		if !ok {
			v = declared[e.Addr]
		}
		if v == 0 {
			continue
		}
		if out == nil {
			out = make(map[Addr]int64)
		}
		out[e.Addr] = v
	}
	return out
}

// Stats summarises a trace for reporting: the Table 1 metric columns.
type Stats struct {
	Threads  int `json:"threads"`  // #Thrd
	Events   int `json:"events"`   // #Event
	Accesses int `json:"accesses"` // #RW: read + write events
	Syncs    int `json:"syncs"`    // #Sync: acquire/release/fork/join/begin/end
	Branches int `json:"branches"` // #Br
	Locks    int `json:"locks"`    // distinct lock addresses
	Shared   int `json:"shared"`   // distinct shared (non-volatile) locations accessed
}

// ComputeStats scans the trace once and returns its summary metrics.
func (tr *Trace) ComputeStats() Stats {
	var a StatsAccumulator
	for addr := range tr.volatileAddrs {
		a.SetVolatile(addr)
	}
	for i := range tr.events {
		a.Add(tr.events[i])
	}
	return a.Stats()
}

// StatsAccumulator computes Stats one event at a time with bounded state
// (sets of threads, locks and shared addresses — the trace's alphabet,
// not its length). The streaming session layer uses it to report the
// same Stats a whole-trace ComputeStats would, without materialising the
// trace. Volatile addresses must be declared before the first access to
// them is added, matching the wire-format contract that metadata
// precedes the events that use it; ComputeStats itself satisfies this by
// declaring every volatile up front. The zero value is ready to use.
type StatsAccumulator struct {
	s        Stats
	threads  map[TID]bool
	locks    map[Addr]bool
	shared   map[Addr]bool
	volatile map[Addr]bool
}

// SetVolatile declares addr volatile for subsequent Add calls.
func (a *StatsAccumulator) SetVolatile(addr Addr) {
	if a.volatile == nil {
		a.volatile = make(map[Addr]bool)
	}
	a.volatile[addr] = true
}

// Add folds one event into the summary.
func (a *StatsAccumulator) Add(e Event) {
	if a.threads == nil {
		a.threads = make(map[TID]bool)
		a.locks = make(map[Addr]bool)
		a.shared = make(map[Addr]bool)
	}
	a.threads[e.Tid] = true
	a.s.Events++
	switch {
	case e.Op.IsAccess():
		a.s.Accesses++
		if !a.volatile[e.Addr] {
			a.shared[e.Addr] = true
		}
	case e.Op == OpBranch:
		a.s.Branches++
	default:
		a.s.Syncs++
		if e.Op == OpAcquire || e.Op == OpRelease {
			a.locks[e.Addr] = true
		}
	}
}

// Stats returns the summary of everything added so far.
func (a *StatsAccumulator) Stats() Stats {
	s := a.s
	s.Threads = len(a.threads)
	s.Locks = len(a.locks)
	s.Shared = len(a.shared)
	return s
}
