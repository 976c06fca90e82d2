// Package lockset implements the unsound hybrid "quick check" of Section 4:
// Eraser-style locksets combined with a weaker happens-before (must-happen-
// before only, ignoring lock edges — in the spirit of PECAN, which the
// paper cites as its quick-check). A COP passes the check when the two
// accesses hold no common lock and are not must-ordered.
//
// The pass is a strict over-approximation of the real races derivable from
// the trace: every true predictable race passes it (locksets of racing
// accesses are disjoint and MHB never orders a race), but passing pairs may
// still be infeasible. The paper reports the number of passing signatures
// as Table 1's "QC" column and uses the check to avoid building constraints
// for hopeless COPs.
package lockset

import (
	"encoding/binary"
	"sort"

	"repro/internal/race"
	"repro/internal/vc"
	"repro/trace"
)

// Sets holds the lockset of every access event of one trace, plus the
// must-happen-before clocks used for the weak-HB part of the check.
//
// Locksets are interned: every event carries a dense ID into a table of
// distinct sorted sets, so accesses holding the same locks share one set
// and compare by ID. ID 0 is the empty set, carried by every access
// outside critical sections and by every non-access event.
type Sets struct {
	ids  []int32        // event index -> lockset ID
	sets [][]trace.Addr // lockset ID -> sorted locks; sets[0] is nil
	mhb  *vc.MHB
}

// Compute scans tr once, recording the set of locks held at every shared
// access, and computes the MHB clocks.
//
// Windowed traces can begin inside a critical section; the owning thread's
// membership is inferred from releases that have no matching in-window
// acquire, so accesses before such a release still carry the lock (without
// this, window boundaries leak spurious quick-check positives).
func Compute(tr *trace.Trace) *Sets {
	return ComputeWith(tr, vc.ComputeMHB(tr))
}

// ComputeWith is Compute with caller-supplied MHB clocks for the weak-HB
// part of the check, for pipelines that already computed the window's MHB
// (the detection driver shares one MHB pass between the quick check, the
// triage tier and the constraint encoder). mhb may be nil when only the
// lockset half is used (ID, Held, Disjoint); Pass then panics.
func ComputeWith(tr *trace.Trace, mhb *vc.MHB) *Sets {
	in := &interner{index: map[string]int32{"": 0}, sets: [][]trace.Addr{nil}, step: map[transition]int32{}}
	cur := make(map[trace.TID]int32) // thread -> ID of the locks it holds
	// Pre-scan: locks released without an in-window acquire were held from
	// the window start.
	type held struct {
		tid  trace.TID
		lock trace.Addr
	}
	acquired := make(map[held]bool)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			acquired[held{e.Tid, e.Addr}] = true
		case trace.OpRelease:
			if !acquired[held{e.Tid, e.Addr}] {
				cur[e.Tid] = in.apply(cur[e.Tid], e.Addr, true)
			}
		}
	}
	ids := make([]int32, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire, trace.OpRelease:
			cur[e.Tid] = in.apply(cur[e.Tid], e.Addr, e.Op == trace.OpAcquire)
		case trace.OpRead, trace.OpWrite:
			ids[i] = cur[e.Tid]
		}
	}
	return &Sets{ids: ids, sets: in.sets, mhb: mhb}
}

// transition is one lockset change: adding (acquire) or removing
// (release) lock to or from the set with ID from.
type transition struct {
	from    int32
	lock    trace.Addr
	acquire bool
}

// interner assigns dense IDs to distinct sorted locksets. A thread's
// lockset changes only at acquire and release, so each distinct
// transition is computed once and then served from step.
type interner struct {
	index map[string]int32 // binary key of a sorted set -> ID
	sets  [][]trace.Addr
	step  map[transition]int32
	key   []byte
}

// apply returns the ID of sets[from] with lock added (acquire) or
// removed. Adding a held lock or removing an absent one is a no-op, as
// for a set.
func (in *interner) apply(from int32, lock trace.Addr, acquire bool) int32 {
	t := transition{from, lock, acquire}
	if id, ok := in.step[t]; ok {
		return id
	}
	old := in.sets[from]
	k := sort.Search(len(old), func(x int) bool { return old[x] >= lock })
	present := k < len(old) && old[k] == lock
	id := from
	if acquire != present {
		next := make([]trace.Addr, 0, len(old)+1)
		next = append(next, old[:k]...)
		if acquire {
			next = append(next, lock)
			next = append(next, old[k:]...)
		} else {
			next = append(next, old[k+1:]...)
		}
		id = in.intern(next)
	}
	in.step[t] = id
	return id
}

// intern returns the ID of the sorted set ls, adding it if new.
func (in *interner) intern(ls []trace.Addr) int32 {
	in.key = in.key[:0]
	for _, l := range ls {
		in.key = binary.LittleEndian.AppendUint64(in.key, uint64(l))
	}
	if id, ok := in.index[string(in.key)]; ok {
		return id
	}
	id := int32(len(in.sets))
	in.index[string(in.key)] = id
	in.sets = append(in.sets, ls)
	return id
}

// ID returns the lockset ID of event i: equal IDs mean equal locksets,
// and 0 means no lock is held.
func (s *Sets) ID(i int) int32 { return s.ids[i] }

// Held returns the sorted locks held at access event i (nil if none).
func (s *Sets) Held(i int) []trace.Addr { return s.sets[s.ids[i]] }

// Disjoint reports whether the locksets of events i and j share no lock.
func (s *Sets) Disjoint(i, j int) bool { return s.DisjointIDs(s.ids[i], s.ids[j]) }

// DisjointIDs reports whether the locksets with IDs a and b share no lock.
func (s *Sets) DisjointIDs(a, b int32) bool {
	if a == 0 || b == 0 {
		return true
	}
	if a == b {
		return false
	}
	x, y := s.sets[a], s.sets[b]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			return false
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Pass reports whether the COP (a, b) passes the quick check: disjoint
// locksets and MHB-concurrent.
func (s *Sets) Pass(a, b int) bool {
	return s.Disjoint(a, b) && !s.mhb.Ordered(a, b)
}

// Options configures the quick-check detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses
	// the whole trace at once.
	WindowSize int
}

// Detector reports every COP signature passing the hybrid quick check.
// It is unsound (may report false positives) and exists to regenerate the
// QC column of Table 1 and to pre-filter the SMT pipeline.
type Detector struct {
	opt Options
}

// New returns a quick-check detector.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Detect reports all COPs passing the quick check, one per signature.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	return race.Scan(tr, d.opt.WindowSize, func(w *trace.Trace) (func(a, b int) string, func()) {
		mhb := vc.ComputeMHB(w)
		sets := ComputeWith(w, mhb)
		return func(a, b int) string {
			if sets.Pass(a, b) {
				return race.TierQuickCheck
			}
			return ""
		}, mhb.Release
	})
}
