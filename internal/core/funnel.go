// Candidate funnel: the per-window prefilters that turn a window's
// accesses into the signature groups the pair scheduler solves.
//
// The funnel classifies every conflicting operation pair (COP) of the
// window into exactly one bin: deduplicated by the skip hint (its
// signature is already decided), filtered by the hybrid quick check
// (common lock, or ordered by must-happen-before), or surviving. The
// survivors are then triaged and grouped by signature.
//
// Pairs are not visited one by one. One linear pass buckets the accesses
// of the window's shared, written addresses by address, interned
// lockset, thread, read/write and program location; every pair drawn from
// two buckets shares its verdict except for the MHB check, because the
// two buckets fix the pair's signature and both locksets. So each
// conflicting bucket pair (different threads, at least one write) is
// classified once and its size — the product of the two bucket sizes —
// goes to the bin. Only the pairs of lockset-disjoint bucket pairs with an
// undecided signature are visited, for the MHB check. The cost is
// O(accesses + pairs across lockset-disjoint buckets), not
// O(same-address pairs).
package core

import (
	"sort"
	"time"

	"repro/internal/ladder"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// funnelCounts are one window's candidate-funnel tallies: every
// enumerated COP is deduplicated, filtered or a survivor.
type funnelCounts struct {
	enumerated, dedup, filtered int
}

// funnel runs the prefilters over window w and groups the survivors by
// signature, in order of each signature's first surviving instance;
// instances are in (A, B) order. skip is AnalyseWindow's hint, consulted
// once per signature so that the tallies agree with each other even when
// a concurrent driver updates the hint mid-window. The window MHB clocks
// are computed only when some pair needs the MHB check, and the one pass
// is shared by the quick check, the triage tier and (via the returned
// value) the window encoders. Survivors are classified on the window's
// ladder lad in canonical order, so the triage tallies are deterministic
// under any worker count. The returned count is the window's enumerated
// COPs.
func (d *Detector) funnel(w *trace.Trace, lad *ladder.Ladder, skip func(race.Signature) bool) ([]*sigGroup, *vc.MHB, int) {
	col := d.opt.Telemetry
	skipped := skipOnce(skip)
	var (
		cops []race.COP
		mhb  *vc.MHB
		n    funnelCounts
	)
	if d.opt.NoQuickCheck {
		// Every undecided COP survives, so there is nothing to bucket.
		span := col.StartPhase(telemetry.PhaseEnumerate)
		cops = race.EnumerateCOPs(w)
		span.End()
		n.enumerated = len(cops)
		if skipped != nil {
			kept := cops[:0]
			for _, c := range cops {
				if skipped(race.SigOf(w, c.A, c.B)) {
					n.dedup++
					continue
				}
				kept = append(kept, c)
			}
			cops = kept
		}
	} else {
		cops, mhb, n = d.quickCheck(w, skipped)
	}
	col.CountEnumerated(n.enumerated)
	col.CountSigDedup(n.dedup)
	col.CountQuickCheckFiltered(n.filtered)
	return d.group(w, lad, cops), mhb, n.enumerated
}

// skipOnce memoises skip for one window (nil stays nil).
func skipOnce(skip func(race.Signature) bool) func(race.Signature) bool {
	if skip == nil {
		return nil
	}
	verdict := make(map[race.Signature]bool)
	return func(sig race.Signature) bool {
		v, ok := verdict[sig]
		if !ok {
			v = skip(sig)
			verdict[sig] = v
		}
		return v
	}
}

// bucketKey identifies one bucket of a window's accesses: every pair
// drawn from two given buckets has the same signature, the same two
// locksets, and conflicts exactly when the threads differ and one of the
// two accesses writes.
type bucketKey struct {
	addr  int32 // dense address slot
	ls    int32 // lockset ID (lockset.Sets.ID)
	tid   trace.TID
	loc   trace.Loc
	write bool
}

// bucket is one bucket with its members, the event indices
// members[lo:hi] of the window's member arena, in trace order.
type bucket struct {
	bucketKey
	lo, hi int32
}

func (b *bucket) size() int { return int(b.hi - b.lo) }

// quickCheck is the funnel with the quick check on: it buckets the
// window's accesses, classifies every conflicting bucket pair, and visits
// the pairs of lockset-disjoint undecided bucket pairs for the MHB check.
// It returns the survivors in (A, B) order, the MHB clocks when it
// computed them, and the window's tallies.
func (d *Detector) quickCheck(w *trace.Trace, skipped func(race.Signature) bool) ([]race.COP, *vc.MHB, funnelCounts) {
	col := d.opt.Telemetry
	var n funnelCounts

	span := col.StartPhase(telemetry.PhaseEnumerate)
	of := conflictingAccesses(w)
	span.End()
	if of == nil {
		return nil, nil, n
	}
	span = col.StartPhase(telemetry.PhaseQuickCheck)
	sets := lockset.ComputeWith(w, nil)
	span.End()

	span = col.StartPhase(telemetry.PhaseEnumerate)
	buckets, members := bucketAccesses(w, of, sets)
	// Walk each address's buckets, writes first, so that every unordered
	// bucket pair with a write is met once and read–read pairs never are.
	order := make([]int32, len(buckets))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		x, y := &buckets[order[i]], &buckets[order[j]]
		if x.addr != y.addr {
			return x.addr < y.addr
		}
		return x.write && !y.write
	})
	var visit [][2]int32 // lockset-disjoint undecided bucket pairs
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && buckets[order[hi]].addr == buckets[order[lo]].addr {
			hi++
		}
		for i := lo; i < hi && buckets[order[i]].write; i++ {
			x := &buckets[order[i]]
			for j := i + 1; j < hi; j++ {
				y := &buckets[order[j]]
				if x.tid == y.tid {
					continue
				}
				pairs := x.size() * y.size()
				n.enumerated += pairs
				switch {
				case skipped != nil && skipped(race.SigOfLocs(x.loc, y.loc)):
					n.dedup += pairs
				case !sets.DisjointIDs(x.ls, y.ls):
					n.filtered += pairs
				default:
					visit = append(visit, [2]int32{order[i], order[j]})
				}
			}
		}
		lo = hi
	}
	span.End()
	if len(visit) == 0 {
		return nil, nil, n
	}

	span = col.StartPhase(telemetry.PhaseMHB)
	mhb := vc.ComputeMHB(w)
	span.End()

	span = col.StartPhase(telemetry.PhaseQuickCheck)
	var cops []race.COP
	for _, v := range visit {
		x, y := &buckets[v[0]], &buckets[v[1]]
		for _, a := range members[x.lo:x.hi] {
			for _, b := range members[y.lo:y.hi] {
				c := race.COP{A: int(a), B: int(b)}
				if c.A > c.B {
					c.A, c.B = c.B, c.A
				}
				if mhb.Ordered(c.A, c.B) {
					n.filtered++
					continue
				}
				cops = append(cops, c)
			}
		}
	}
	sort.Slice(cops, func(i, j int) bool {
		if cops[i].A != cops[j].A {
			return cops[i].A < cops[j].A
		}
		return cops[i].B < cops[j].B
	})
	span.End()
	return cops, mhb, n
}

// conflictingAccesses returns, per event of w, the dense slot of the
// accessed address for every access that takes part in some COP, and -1
// for every other event; nil when no event does. An access takes part in
// a COP exactly when its address is not volatile, is accessed by two
// threads and is written by one.
func conflictingAccesses(w *trace.Trace) []int32 {
	type addrInfo struct {
		tid                       trace.TID // first accessing thread
		volatile, shared, written bool
	}
	slots := make(map[trace.Addr]int32)
	var addrs []addrInfo
	of := make([]int32, w.Len())
	found := false
	for i := range of {
		of[i] = -1
		e := w.Event(i)
		if !e.Op.IsAccess() {
			continue
		}
		s, ok := slots[e.Addr]
		if !ok {
			s = int32(len(addrs))
			slots[e.Addr] = s
			addrs = append(addrs, addrInfo{tid: e.Tid, volatile: w.Volatile(e.Addr)})
		}
		a := &addrs[s]
		a.shared = a.shared || e.Tid != a.tid
		a.written = a.written || e.Op == trace.OpWrite
		found = found || (a.shared && a.written && !a.volatile)
		of[i] = s
	}
	if !found {
		return nil
	}
	for i, s := range of {
		if s >= 0 && (!addrs[s].shared || !addrs[s].written || addrs[s].volatile) {
			of[i] = -1
		}
	}
	return of
}

// bucketAccesses buckets the accesses conflictingAccesses kept, in one
// pass, and returns the buckets, in order of first access, and their
// member arena. It reuses of for each event's bucket.
func bucketAccesses(w *trace.Trace, of []int32, sets *lockset.Sets) ([]bucket, []int32) {
	index := make(map[bucketKey]int32)
	var buckets []bucket
	accesses := 0
	for i, s := range of {
		if s < 0 {
			continue
		}
		e := w.Event(i)
		k := bucketKey{addr: s, ls: sets.ID(i), tid: e.Tid, loc: e.Loc, write: e.Op == trace.OpWrite}
		b, ok := index[k]
		if !ok {
			b = int32(len(buckets))
			index[k] = b
			buckets = append(buckets, bucket{bucketKey: k})
		}
		buckets[b].hi++
		of[i] = b
		accesses++
	}
	// Counting sort into the arena: hi holds each bucket's size until the
	// prefix sums turn [lo, hi) into its range, filled in trace order.
	next := int32(0)
	for i := range buckets {
		size := buckets[i].hi
		buckets[i].lo, buckets[i].hi = next, next
		next += size
	}
	members := make([]int32, accesses)
	for i, b := range of {
		if b >= 0 {
			members[buckets[b].hi] = int32(i)
			buckets[b].hi++
		}
	}
	return buckets, members
}

// group triages the surviving COPs, in (A, B) order, on the ladder up to
// the detector's level — tallying each pair on its confirming rung, or as
// dispatched — and groups them by signature in order of each signature's
// first instance. With telemetry on, the classification is timed once
// per window as the triage fast path.
func (d *Detector) group(w *trace.Trace, lad *ladder.Ladder, cops []race.COP) []*sigGroup {
	col := d.opt.Telemetry
	triage := d.top != ladder.Off
	if triage && len(cops) > 0 && col.Enabled() {
		defer func(t0 time.Time) { col.AddTriageFastPath(time.Since(t0)) }(time.Now())
	}
	var (
		groups []*sigGroup
		index  map[race.Signature]int
	)
	for _, cop := range cops {
		confirmed := false
		if triage {
			if tier := lad.Tier(cop.A, cop.B, d.top); tier != "" {
				col.CountTriageConfirmed(tier)
				confirmed = true
			} else {
				col.CountTriageDispatched()
			}
		}
		sig := race.SigOf(w, cop.A, cop.B)
		gi, ok := index[sig]
		if !ok {
			if index == nil {
				index = make(map[race.Signature]int)
			}
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, &sigGroup{sig: sig})
		}
		groups[gi].cops = append(groups[gi].cops, cop)
		if triage {
			groups[gi].confirmed = append(groups[gi].confirmed, confirmed)
		}
	}
	return groups
}
