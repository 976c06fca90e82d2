// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with a pluggable theory hook, forming the propositional engine of
// the DPLL(T) SMT solver in internal/smt.
//
// The paper solves its race constraints with Z3 or Yices restricted to
// Integer Difference Logic; Go has no usable bindings to either, so this
// repository re-implements the needed solver stack from scratch (see
// DESIGN.md, substitutions). The solver is deliberately classical:
// two-watched-literal propagation, first-UIP conflict analysis with clause
// learning and non-chronological backjumping, VSIDS-style variable activity,
// phase saving, and Luby restarts.
package sat

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Var is a propositional variable index, starting at 0.
type Var int32

// Lit is a literal: variable 2*v for the positive polarity, 2*v+1 for the
// negation. The zero Lit is the positive literal of variable 0; use
// MkLit/Neg to construct and transform literals.
type Lit int32

// MkLit returns the literal of v with the given polarity (true = positive).
func MkLit(v Var, positive bool) Lit {
	l := Lit(v << 1)
	if !positive {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Positive reports whether l is a positive literal.
func (l Lit) Positive() bool { return l&1 == 0 }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders the literal as "x3" or "¬x3".
func (l Lit) String() string {
	if l.Positive() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("¬x%d", l.Var())
}

// Value is a three-valued assignment.
type Value int8

// Truth values.
const (
	Unknown Value = iota
	True
	False
)

func (v Value) neg() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// Theory is the interface between the SAT core and a theory solver, in the
// DPLL(T) style. The solver informs the theory of every assignment to a
// theory-relevant literal, in trail order, and asks it to validate partial
// and full assignments. All methods are called from Solve only.
type Theory interface {
	// Relevant reports whether assignments to v concern the theory. The
	// solver only forwards relevant literals to Assert.
	Relevant(v Var) bool

	// Assert notifies the theory that lit became true. If the assertion is
	// inconsistent with previously asserted literals, Assert returns a
	// non-nil conflict: a set of literals, all currently asserted (lit may
	// be among them), that are jointly theory-inconsistent. The solver
	// learns the clause ¬c1 ∨ … ∨ ¬cn.
	Assert(lit Lit) (conflict []Lit)

	// Push marks a backtracking point, corresponding to a new decision
	// level in the SAT core.
	Push()

	// Pop undoes the given number of Push marks, retracting every literal
	// asserted since.
	Pop(levels int)

	// Check performs a final consistency check on a full assignment. A nil
	// conflict means the theory accepts the model; since the solver
	// backtracks (and hence pops the theory) before Solve returns, a theory
	// wishing to expose model values should snapshot them during the
	// successful Check call.
	Check() (conflict []Lit)
}

// ErrUnsat is returned by AddClause when the clause set became trivially
// unsatisfiable at the root level.
var ErrUnsat = errors.New("sat: formula is unsatisfiable at root level")

type clause struct {
	lits []Lit
	act  float64
	// idx is the clause's position in Solver.clauses (problem clauses
	// only): the key of its checkpointed literal order and watches.
	idx     int32
	learned bool
	// inline stores the literals of a binary problem clause (most of a
	// window encoding), so lits shares the header's allocation and cache
	// line; it fits in the struct's size class for free.
	inline [2]Lit
}

type watcher struct {
	c *clause
	// blocker is a literal of c; if true, the clause is satisfied and the
	// watch need not be inspected further.
	blocker Lit
}

// Stats aggregates solver counters for benchmarks and diagnostics.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	TheoryProps  int64
	TheoryConfl  int64
}

// Add accumulates other into s (used when rolling several solvers' stats
// into one telemetry total).
func (s *Stats) Add(other Stats) {
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Conflicts += other.Conflicts
	s.Restarts += other.Restarts
	s.Learned += other.Learned
	s.TheoryProps += other.TheoryProps
	s.TheoryConfl += other.TheoryConfl
}

// AbortCause says why a Solve call returned Aborted.
type AbortCause int8

// Abort causes.
const (
	// AbortNone: the most recent Solve did not abort.
	AbortNone AbortCause = iota
	// AbortConflicts: the MaxConflicts budget was exhausted.
	AbortConflicts
	// AbortDeadline: the wall-clock Deadline passed.
	AbortDeadline
	// AbortCancelled: the Cancel poll reported cooperative cancellation.
	AbortCancelled
)

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New. A Solver may be reused for multiple Solve calls with growing clause
// sets (incremental use), but is not safe for concurrent use.
type Solver struct {
	clauses []*clause // problem clauses
	learnts []*clause // learned clauses

	watches [][]watcher // indexed by Lit

	assign []Value // indexed by Var
	level  []int32 // decision level per var
	reason []*clause
	phase  []bool // saved phase per var

	trail    []Lit
	trailLim []int // trail length at each decision level
	qhead    int   // propagation queue head
	thead    int   // theory assertion queue head

	activity []float64
	varInc   float64
	heap     varHeap

	clauseInc float64

	// assumps holds the literals assumed for the current Solve call; they
	// are decided first, one per decision level.
	assumps []Lit

	theory Theory

	// MaxConflicts, when > 0, bounds the total number of conflicts for one
	// Solve call; exceeding it makes Solve return Aborted.
	MaxConflicts int64

	// Deadline, when non-zero, aborts the search at the first conflict
	// after the given wall-clock instant (the per-COP solving timeout of
	// Section 4).
	Deadline time.Time

	// Cancel, when non-nil, is polled on Solve entry and in the conflict
	// loop (at the same cadence as Deadline); returning true aborts the
	// search with AbortCancelled. It is the cooperative-cancellation hook
	// the detectors wire to a context, so a run can be stopped mid-solve
	// and still return a well-formed partial result.
	Cancel func() bool

	Stats Stats

	abortCause AbortCause
	rootUnsat  bool
	model      []Value

	// learntLimit is the learned-clause count that triggers reduceDB
	// (maxLearnts; tests lower it to exercise the reduction).
	learntLimit int

	// litMark is AddClause's per-literal scratch mark (all false between
	// calls); addBuf is its reusable normalisation buffer.
	litMark []bool
	addBuf  []Lit

	// Change tracking against the latest checkpoint ck (nil before the
	// first Checkpoint), so Rollback restores only what changed. Each is a
	// bitset over ck's objects: watchDirty marks the watch lists (by Lit)
	// whose contents differ from ck's, clauseDirty the checkpointed
	// problem clauses (by index) whose literal order does, actDirty the
	// variables whose activity does. Rollback scans them in index order,
	// so the restore walks the snapshot arenas forwards.
	ck          *Checkpoint
	watchDirty  bitset
	clauseDirty bitset
	actDirty    bitset
}

// New returns an empty solver. If theory is nil the solver is a plain SAT
// solver.
func New(theory Theory) *Solver {
	s := &Solver{varInc: 1, clauseInc: 1, theory: theory, learntLimit: maxLearnts}
	s.heap.activity = &s.activity
	return s
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(s.assign, Unknown)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.litMark = append(s.litMark, false, false)
	s.heap.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem clauses (excluding learned).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the current learned-clause count.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// SetPhase sets v's initial decision polarity. Phase saving overwrites it
// as the search assigns v; a good initial phase (e.g. from a known
// near-model) steers the first descent.
func (s *Solver) SetPhase(v Var, phase bool) { s.phase[v] = phase }

// value returns the literal's current value.
func (s *Solver) value(l Lit) Value {
	v := s.assign[l.Var()]
	if !l.Positive() {
		v = v.neg()
	}
	return v
}

// AddClause adds a clause at the root level. Duplicate literals are merged
// and tautologies dropped. Returns ErrUnsat if the formula became
// unsatisfiable at the root level (empty clause, or unit propagation from
// it conflicts immediately).
func (s *Solver) AddClause(lits ...Lit) error {
	if s.rootUnsat {
		return ErrUnsat
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above root level")
	}
	// Normalise: sort-free dedup and tautology/falsified-literal removal,
	// keeping first occurrences in order. litMark flags the literals
	// kept so far, so the check is O(len(lits)) and allocation-free.
	out := s.addBuf[:0]
	drop := false
	for _, l := range lits {
		if int(l.Var()) >= len(s.assign) {
			s.unmark(out)
			panic("sat: literal references unallocated variable")
		}
		if s.litMark[l] || s.value(l) == False {
			continue // duplicate, or cannot contribute
		}
		if s.litMark[l.Neg()] || s.value(l) == True {
			drop = true // tautology, or already satisfied at root
			break
		}
		s.litMark[l] = true
		out = append(out, l)
	}
	s.unmark(out)
	s.addBuf = out
	if drop {
		return nil
	}
	switch len(out) {
	case 0:
		s.rootUnsat = true
		return ErrUnsat
	case 1:
		s.enqueue(out[0], nil)
		if s.propagate() != nil {
			s.rootUnsat = true
			return ErrUnsat
		}
		return nil
	}
	c := &clause{idx: int32(len(s.clauses))}
	if len(out) <= len(c.inline) {
		c.lits = c.inline[:len(out)]
		copy(c.lits, out)
	} else {
		c.lits = append([]Lit(nil), out...)
	}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return nil
}

// unmark clears AddClause's literal marks.
func (s *Solver) unmark(lits []Lit) {
	for _, l := range lits {
		s.litMark[l] = false
	}
}

func (s *Solver) watchClause(c *clause) {
	// Watch the first two literals.
	w0, w1 := c.lits[0].Neg(), c.lits[1].Neg()
	s.watches[w0] = append(s.watches[w0], watcher{c: c, blocker: c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c: c, blocker: c.lits[0]})
	s.touchWatch(w0)
	s.touchWatch(w1)
}

// touchWatch records that watch list l no longer matches the latest
// checkpoint, so the next Rollback restores it.
func (s *Solver) touchWatch(l Lit) {
	if s.ck != nil && int(l) < 2*s.ck.nVars {
		s.watchDirty.set(int(l))
	}
}

// touchClause records that c's literal order changed; the next Rollback
// restores it if c is a checkpointed problem clause (learned and
// post-checkpoint clauses are discarded instead).
func (s *Solver) touchClause(c *clause) {
	if s.ck != nil && !c.learned && int(c.idx) < s.ck.nClauses {
		s.clauseDirty.set(int(c.idx))
	}
}

// touchActivity records that v's activity changed.
func (s *Solver) touchActivity(v Var) {
	if s.ck != nil && int(v) < s.ck.nVars {
		s.actDirty.set(int(v))
	}
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// enqueue assigns l true with the given reason clause and puts it on the
// propagation queue. The caller must ensure l is currently unassigned.
func (s *Solver) enqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Positive() {
		s.assign[v] = True
	} else {
		s.assign[v] = False
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = l.Positive()
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint; it returns the conflicting
// clause, or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; scan watchers of p (lit.Neg()==p watch list index p)
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		changed := false // list p differs from how the scan found it
		var conflict *clause
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if conflict != nil {
				kept = append(kept, ws[wi:]...)
				break
			}
			if s.value(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the false literal (¬p) is lits[1].
			np := p.Neg()
			if c.lits[0] == np {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
				s.touchClause(c)
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == True {
				kept = append(kept, watcher{c: c, blocker: first})
				changed = true
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.touchClause(c)
					nw := c.lits[1].Neg()
					s.watches[nw] = append(s.watches[nw], watcher{c: c, blocker: first})
					s.touchWatch(nw)
					moved = true
					break
				}
			}
			if moved {
				changed = true
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c: c, blocker: first})
			if first != w.blocker {
				changed = true
			}
			if s.value(first) == False {
				conflict = c
				s.qhead = len(s.trail)
			} else {
				s.enqueue(first, c)
			}
		}
		s.watches[p] = kept
		if changed {
			s.touchWatch(p)
		}
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// assertTheory forwards newly assigned theory-relevant literals to the
// theory. It returns a theory conflict as a clause of negated asserted
// literals, or nil.
func (s *Solver) assertTheory() *clause {
	if s.theory == nil {
		s.thead = len(s.trail)
		return nil
	}
	for s.thead < len(s.trail) {
		l := s.trail[s.thead]
		s.thead++
		if !s.theory.Relevant(l.Var()) {
			continue
		}
		s.Stats.TheoryProps++
		if confl := s.theory.Assert(l); confl != nil {
			s.Stats.TheoryConfl++
			return s.conflictClause(confl)
		}
	}
	return nil
}

// conflictClause converts a theory conflict (a set of true literals) into a
// clause asserting their negation.
func (s *Solver) conflictClause(confl []Lit) *clause {
	lits := make([]Lit, len(confl))
	for i, l := range confl {
		if s.value(l) != True {
			panic("sat: theory conflict contains non-asserted literal " + l.String())
		}
		lits[i] = l.Neg()
	}
	return &clause{lits: lits, learned: true}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	seen := make(map[Var]bool)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	reasonLits := func(c *clause, skipFirst bool) []Lit {
		if skipFirst {
			return c.lits[1:]
		}
		return c.lits
	}

	c := confl
	skip := false
	for {
		if c.learned {
			s.bumpClause(c)
		}
		for _, q := range reasonLits(c, skip) {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next trail literal at the current decision level that is
		// marked seen.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
		if c == nil {
			panic("sat: decision literal reached before first UIP")
		}
		skip = c.lits[0] == p
		if !skip {
			// Theory-learned reasons may not have p first; locate and move.
			for i, l := range c.lits {
				if l == p {
					c.lits[0], c.lits[i] = c.lits[i], c.lits[0]
					s.touchClause(c)
					break
				}
			}
			skip = true
		}
	}
	learnt[0] = p.Neg()

	// Conflict clause minimisation: drop literals whose negations are
	// implied by the remainder of the clause through their reasons.
	minimised := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q, learnt) {
			minimised = append(minimised, q)
		}
	}
	learnt = minimised

	// Compute backjump level: highest level among learnt[1:].
	var back int32
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = s.level[learnt[1].Var()]
	}
	return learnt, back
}

// redundant reports whether literal q of a learned clause is implied by the
// other literals, by checking that its reason's literals are all already in
// the clause (one-step self-subsumption).
func (s *Solver) redundant(q Lit, learnt []Lit) bool {
	c := s.reason[q.Var()]
	if c == nil {
		return false
	}
	inClause := func(v Var) bool {
		for _, l := range learnt {
			if l.Var() == v {
				return true
			}
		}
		return false
	}
	for _, l := range c.lits {
		if l.Var() == q.Var() {
			continue
		}
		if s.level[l.Var()] == 0 {
			continue
		}
		if !inClause(l.Var()) {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	s.touchActivity(v)
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
			s.touchActivity(Var(i))
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayVarActivity() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c *clause) {
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayClauseActivity() { s.clauseInc /= 0.999 }

// maxLearnts bounds the learned-clause database for long-lived solvers
// (one window's solver serves many conflicting-pair queries).
const maxLearnts = 20000

// reduceDB removes the lower-activity half of the learned clauses,
// keeping binary clauses and clauses currently locked as reasons.
func (s *Solver) reduceDB() {
	if len(s.learnts) < s.learntLimit {
		return
	}
	locked := make(map[*clause]bool, len(s.trail))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil {
			locked[r] = true
		}
	}
	sorted := append([]*clause(nil), s.learnts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].act > sorted[j].act })
	keep := make(map[*clause]bool, len(sorted)/2)
	for i, c := range sorted {
		if i < len(sorted)/2 || len(c.lits) == 2 || locked[c] {
			keep[c] = true
		}
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if keep[c] {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	// Rebuild all watch lists (simpler than surgical removal and amortised
	// over maxLearnts conflicts).
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
		s.touchWatch(Lit(i))
	}
	for _, c := range s.clauses {
		s.watchClause(c)
	}
	for _, c := range s.learnts {
		s.watchClause(c)
	}
}

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	if s.theory != nil {
		s.theory.Pop(int(s.decisionLevel() - level))
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.assign[v] = Unknown
		s.reason[v] = nil
		s.heap.push(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = limit
	if s.thead > limit {
		s.thead = limit
	}
}

// pickBranchLit selects the unassigned variable with highest activity,
// using its saved phase.
func (s *Solver) pickBranchLit() (Lit, bool) {
	for {
		v, ok := s.heap.popMax()
		if !ok {
			return 0, false
		}
		if s.assign[v] == Unknown {
			return MkLit(v, s.phase[v]), true
		}
	}
}

// luby computes the Luby restart sequence element for index i (1-based).
func luby(i int64) int64 {
	// Find the finite subsequence containing index i.
	var k int64 = 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for (1<<uint(k))-1 != i {
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
	return 1 << uint(k-1)
}

// Result is the outcome of a Solve call.
type Result int8

// Solve outcomes.
const (
	// Unsat means the formula (with the theory) has no model.
	Unsat Result = iota
	// Sat means a model was found; read it with ModelValue.
	Sat
	// Aborted means the conflict budget was exhausted.
	Aborted
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	}
	return "aborted"
}

// Solve runs the CDCL search and returns Sat, Unsat or (if MaxConflicts was
// exceeded) Aborted.
func (s *Solver) Solve() Result { return s.SolveAssuming(nil) }

// SolveAssuming runs the search with the given literals assumed true for
// this call only. Assumptions are decided first, one per decision level;
// clauses learned during the call remain valid for future calls, which is
// what makes one long-lived solver per analysis window efficient across
// many queries. An Unsat result under assumptions does not poison the
// solver: later calls with different assumptions may succeed.
func (s *Solver) SolveAssuming(assumptions []Lit) Result {
	s.assumps = assumptions
	s.abortCause = AbortNone
	defer func() { s.assumps = nil }()
	if s.rootUnsat {
		return Unsat
	}
	if s.Cancel != nil && s.Cancel() {
		s.abortCause = AbortCancelled
		return Aborted
	}
	if c := s.propagate(); c != nil {
		s.rootUnsat = true
		return Unsat
	}
	if c := s.assertTheory(); c != nil {
		// A theory conflict at root level over root-level assignments.
		s.rootUnsat = true
		return Unsat
	}

	var conflicts int64
	restartBase := int64(100)
	restartNum := int64(1)
	budget := restartBase * luby(restartNum)

	for {
		confl := s.propagate()
		if confl == nil {
			confl = s.assertTheory()
		}
		if confl == nil {
			if dl := int(s.decisionLevel()); dl < len(s.assumps) {
				// Establish the next assumption as a decision.
				p := s.assumps[dl]
				switch s.value(p) {
				case True:
					// Already implied: open a dummy level to keep the
					// assumption-index/decision-level correspondence.
					s.trailLim = append(s.trailLim, len(s.trail))
					if s.theory != nil {
						s.theory.Push()
					}
				case False:
					// The assumptions are jointly inconsistent with the
					// clause set: unsat under these assumptions only.
					s.backtrack(0)
					return Unsat
				default:
					s.Stats.Decisions++
					s.trailLim = append(s.trailLim, len(s.trail))
					if s.theory != nil {
						s.theory.Push()
					}
					s.enqueue(p, nil)
				}
				continue
			}
			l, ok := s.pickBranchLit()
			if !ok {
				// Full assignment; ask the theory for a final verdict.
				if s.theory != nil {
					if tc := s.theory.Check(); tc != nil {
						s.Stats.TheoryConfl++
						confl = s.conflictClause(tc)
					}
				}
				if confl == nil {
					s.model = append(s.model[:0], s.assign...)
					s.backtrack(0)
					return Sat
				}
			} else {
				s.Stats.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				if s.theory != nil {
					s.theory.Push()
				}
				s.enqueue(l, nil)
				continue
			}
		}

		// Conflict handling. Theory conflicts need not involve the current
		// decision level; back off to the highest level present in the
		// clause so analyze always finds a current-level literal.
		conflicts++
		s.Stats.Conflicts++
		var top int32
		for _, l := range confl.lits {
			if s.level[l.Var()] > top {
				top = s.level[l.Var()]
			}
		}
		if top == 0 {
			s.rootUnsat = true
			return Unsat
		}
		s.backtrack(top)
		learnt, back := s.analyze(confl)
		s.backtrack(back)
		s.learn(learnt)
		s.decayVarActivity()
		s.decayClauseActivity()
		if s.MaxConflicts > 0 && conflicts >= s.MaxConflicts {
			s.abortCause = AbortConflicts
			s.backtrack(0)
			return Aborted
		}
		if conflicts%64 == 1 {
			if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
				s.abortCause = AbortDeadline
				s.backtrack(0)
				return Aborted
			}
			if s.Cancel != nil && s.Cancel() {
				s.abortCause = AbortCancelled
				s.backtrack(0)
				return Aborted
			}
		}
		if conflicts >= budget {
			s.Stats.Restarts++
			restartNum++
			budget = conflicts + restartBase*luby(restartNum)
			s.backtrack(0)
			// Restarts return to level 0, where the watch lists can be
			// rebuilt safely; trim the learned-clause database if needed.
			s.reduceDB()
		}
	}
}

// learn records a learned clause (asserting literal first) and enqueues its
// asserting literal.
func (s *Solver) learn(lits []Lit) {
	s.Stats.Learned++
	if len(lits) == 1 {
		s.enqueue(lits[0], nil)
		return
	}
	c := &clause{lits: lits, learned: true}
	s.learnts = append(s.learnts, c)
	s.watchClause(c)
	s.enqueue(lits[0], c)
}

// LastAbortCause reports why the most recent Solve call returned Aborted
// (AbortNone if it returned Sat or Unsat). The telemetry layer uses it to
// split the paper's single "gave up" bucket into timeout versus
// conflict-budget exhaustion.
func (s *Solver) LastAbortCause() AbortCause { return s.abortCause }

// Checkpoint is a snapshot of a solver's search-relevant root-level state,
// taken with Solver.Checkpoint and restored with Solver.Rollback. It
// exists for the replica-solver architecture of the race detector's pair
// scheduler: one base formula is asserted once, checkpointed, and every
// query group is solved from the exact same canonical state, so the
// models found — and hence the extracted witnesses — are bit-identical no
// matter which worker solves which group in which order.
//
// The snapshot is flat, a few arrays per solver rather than one
// allocation per clause: clause literal orders and watch lists are each
// one arena plus offsets. A watch list stores only clause indices; its
// blockers follow from the canonical literal order (list ¬lits[0] has
// blocker lits[1], list ¬lits[1] has blocker lits[0]).
type Checkpoint struct {
	nVars    int
	nClauses int
	// lits holds every problem clause's literal order, concatenated:
	// clause i is lits[litOff[i]:litOff[i+1]]. Propagation permanently
	// swaps watched literals inside clauses, so rolled-back clauses must
	// get their snapshot order (and thus watch pairs) back.
	lits   []Lit
	litOff []int32
	// watchIdx holds the canonical watch lists as clause indices,
	// concatenated by literal: list l is watchIdx[watchOff[l]:watchOff[l+1]].
	watchIdx  []int32
	watchOff  []int32
	heapData  []Var
	heapPos   []int32
	nTrail    int // the root trail, which later root units only extend
	qhead     int
	thead     int
	level     []int32
	phase     []bool
	activity  []float64
	varInc    float64
	clauseInc float64
	rootUnsat bool
}

// Checkpoint snapshots the solver's complete state and makes it the
// solver's one rollback target, replacing any earlier checkpoint. It must
// be taken at the root level (decision level 0), i.e. outside any Solve
// call — the normal state between AddClause batches. Taking a checkpoint
// first canonicalises the live state: learned clauses are dropped, every
// watch list is rebuilt in clause order and the decision heap holds every
// variable pushed in index order. That canonical state is what Rollback
// reproduces, so the first query after Checkpoint starts from the same
// state as every query after a Rollback. Checkpoint costs O(clauses +
// variables), once per solver.
func (s *Solver) Checkpoint() *Checkpoint {
	if s.decisionLevel() != 0 {
		panic("sat: Checkpoint above root level")
	}
	s.ck = nil // the canonical rebuild below is not a change to track
	s.learnts = s.learnts[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.watchClause(c)
	}
	s.heap.data = s.heap.data[:0]
	for i := range s.heap.pos {
		s.heap.pos[i] = -1
	}
	for v := range s.assign {
		s.heap.push(Var(v))
	}
	s.model = s.model[:0]
	s.abortCause = AbortNone

	ck := &Checkpoint{
		nVars:     len(s.assign),
		nClauses:  len(s.clauses),
		litOff:    make([]int32, len(s.clauses)+1),
		watchOff:  make([]int32, len(s.watches)+1),
		watchIdx:  make([]int32, 0, 2*len(s.clauses)),
		heapData:  append([]Var(nil), s.heap.data...),
		heapPos:   append([]int32(nil), s.heap.pos...),
		nTrail:    len(s.trail),
		qhead:     s.qhead,
		thead:     s.thead,
		level:     append([]int32(nil), s.level...),
		phase:     append([]bool(nil), s.phase...),
		activity:  append([]float64(nil), s.activity...),
		varInc:    s.varInc,
		clauseInc: s.clauseInc,
		rootUnsat: s.rootUnsat,
	}
	n := 0
	for i, c := range s.clauses {
		n += len(c.lits)
		ck.litOff[i+1] = int32(n)
	}
	ck.lits = make([]Lit, 0, n)
	for _, c := range s.clauses {
		ck.lits = append(ck.lits, c.lits...)
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			ck.watchIdx = append(ck.watchIdx, w.c.idx)
		}
		ck.watchOff[l+1] = int32(len(ck.watchIdx))
	}
	s.watchDirty = s.watchDirty.reset(len(s.watches))
	s.clauseDirty = s.clauseDirty.reset(len(s.clauses))
	s.actDirty = s.actDirty.reset(len(s.assign))
	s.ck = ck
	return ck
}

// Rollback restores the state captured by ck: variables and clauses added
// since are discarded, learned clauses dropped, assignments, phases,
// activities, the decision heap and the theory-assertion queue restored,
// and every watch list and clause literal order that changed since the
// checkpoint put back. It must be called at the root level, and ck must
// be the solver's latest checkpoint; rolling back to any other panics.
// The restored state is byte-for-byte the state Checkpoint left behind,
// so repeated Rollback/solve cycles are deterministic.
//
// The cost is proportional to what changed, not to the formula: levels,
// phases and the heap are copied back whole (a full descent changes them
// for nearly every variable anyway), while assignments, activities, watch
// lists and clause literal orders are restored only where the search
// changed them since the checkpoint.
func (s *Solver) Rollback(ck *Checkpoint) {
	if ck != s.ck {
		panic("sat: Rollback to a checkpoint other than the latest")
	}
	if s.decisionLevel() != 0 {
		panic("sat: Rollback above root level")
	}
	// Variables. Backtracking to the root already unassigned everything
	// above it, and the checkpoint's root assignments are still in place,
	// so only the root-level assignments made since are undone; only the
	// conflicts' bumped activities are put back, while levels and phases
	// change for nearly every variable in a descent and are copied back
	// whole.
	for _, l := range s.trail[ck.nTrail:] {
		s.assign[l.Var()] = Unknown
		s.reason[l.Var()] = nil
	}
	s.assign = s.assign[:ck.nVars]
	s.reason = s.reason[:ck.nVars]
	s.level = append(s.level[:0], ck.level...)
	s.phase = append(s.phase[:0], ck.phase...)
	for wi, w := range s.actDirty {
		for ; w != 0; w &= w - 1 {
			v := wi<<6 | bits.TrailingZeros64(w)
			s.activity[v] = ck.activity[v]
		}
		s.actDirty[wi] = 0
	}
	s.activity = s.activity[:ck.nVars]
	s.varInc, s.clauseInc = ck.varInc, ck.clauseInc
	s.rootUnsat = ck.rootUnsat
	s.litMark = s.litMark[:2*ck.nVars]
	// Clauses: drop post-checkpoint ones and every learned clause (they
	// may mention discarded variables, and a canonical restart state must
	// not depend on earlier searches), and restore the literal order of
	// the clauses the search reordered. The watch lists below read their
	// blockers from these restored orders.
	s.clauses = s.clauses[:ck.nClauses]
	s.learnts = s.learnts[:0]
	for wi, w := range s.clauseDirty {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			lits := s.clauses[i].lits
			for j, l := range ck.lits[ck.litOff[i]:ck.litOff[i+1]] {
				lits[j] = l // a loop, not copy: clauses are short
			}
		}
		s.clauseDirty[wi] = 0
	}
	// Trail and queues: the checkpoint's root assignments are the
	// trail's unchanged prefix.
	s.trail = s.trail[:ck.nTrail]
	s.trailLim = s.trailLim[:0]
	s.qhead, s.thead = ck.qhead, ck.thead
	// Watch lists: truncate to the checkpoint's variables and rebuild the
	// changed ones from the arena.
	s.watches = s.watches[:2*ck.nVars]
	for wi, w := range s.watchDirty {
		for ; w != 0; w &= w - 1 {
			s.restoreWatches(Lit(wi<<6 | bits.TrailingZeros64(w)))
		}
		s.watchDirty[wi] = 0
	}
	// Decision heap: the canonical shape Checkpoint built.
	s.heap.data = append(s.heap.data[:0], ck.heapData...)
	s.heap.pos = append(s.heap.pos[:0], ck.heapPos...)
	s.model = s.model[:0]
	s.abortCause = AbortNone
}

// restoreWatches rebuilds watch list l from the latest checkpoint's
// arena. Blockers follow from the canonical literal order, so the clauses
// must already be restored: list ¬lits[0] has blocker lits[1] and list
// ¬lits[1] has blocker lits[0].
func (s *Solver) restoreWatches(l Lit) {
	ck := s.ck
	ws := s.watches[l][:0]
	for _, ci := range ck.watchIdx[ck.watchOff[l]:ck.watchOff[l+1]] {
		c := s.clauses[ci]
		blocker := c.lits[0]
		if blocker.Neg() == l {
			blocker = c.lits[1]
		}
		ws = append(ws, watcher{c: c, blocker: blocker})
	}
	s.watches[l] = ws
}

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// reset returns an empty set with room for n members, reusing b's storage.
func (b bitset) reset(n int) bitset {
	words := (n + 63) / 64
	b = slices.Grow(b[:0], words)[:words]
	clear(b)
	return b
}

// ModelValue returns the value of v in the most recent Sat model.
func (s *Solver) ModelValue(v Var) Value {
	if int(v) >= len(s.model) {
		return Unknown
	}
	return s.model[v]
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	data     []Var
	pos      []int32 // var -> index in data, -1 if absent
	activity *[]float64
}

func (h *varHeap) less(i, j int) bool {
	return (*h.activity)[h.data[i]] > (*h.activity)[h.data[j]]
}

func (h *varHeap) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.pos[h.data[i]] = int32(i)
	h.pos[h.data[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *varHeap) push(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = int32(len(h.data) - 1)
	h.up(int(h.pos[v]))
}

func (h *varHeap) popMax() (Var, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := len(h.data) - 1
	h.swap(0, last)
	h.data = h.data[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v Var) {
	if int(v) < len(h.pos) && h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
	}
}
