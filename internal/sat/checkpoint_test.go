package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCheckpointRollbackRestoresState checks that Rollback returns the
// solver to its checkpointed shape: variable/clause counts, no learned
// clauses, and a clean abort cause.
func TestCheckpointRollbackRestoresState(t *testing.T) {
	s := New(nil)
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], true), MkLit(vars[1], true))
	s.AddClause(MkLit(vars[1], false), MkLit(vars[2], true))
	s.AddClause(MkLit(vars[3], true), MkLit(vars[4], true), MkLit(vars[5], true))

	ck := s.Checkpoint()
	baseVars, baseClauses := s.NumVars(), s.NumClauses()

	g := s.NewVar()
	s.AddClause(MkLit(g, false), MkLit(vars[0], false))
	s.AddClause(MkLit(g, false), MkLit(vars[3], false), MkLit(vars[4], false))
	if r := s.SolveAssuming([]Lit{MkLit(g, true)}); r != Sat {
		t.Fatalf("SolveAssuming = %v, want sat", r)
	}

	s.Rollback(ck)
	if s.NumVars() != baseVars {
		t.Errorf("NumVars after rollback = %d, want %d", s.NumVars(), baseVars)
	}
	if s.NumClauses() != baseClauses {
		t.Errorf("NumClauses after rollback = %d, want %d", s.NumClauses(), baseClauses)
	}
	if s.NumLearnts() != 0 {
		t.Errorf("NumLearnts after rollback = %d, want 0", s.NumLearnts())
	}
	if s.LastAbortCause() != AbortNone {
		t.Errorf("LastAbortCause after rollback = %v, want AbortNone", s.LastAbortCause())
	}
	// The solver must still work from the restored state.
	if r := s.Solve(); r != Sat {
		t.Fatalf("Solve after rollback = %v, want sat", r)
	}
}

// TestCheckpointCanonicalReplay is the property the pair scheduler relies
// on: solving a query from a checkpointed base, rolling back, and solving
// the same query again — even after unrelated intervening queries — must
// produce the identical verdict AND the identical model, because the search
// (decision order, phases, learned clauses) restarts from the exact same
// state every time.
func TestCheckpointCanonicalReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(nil)
	const nVars = 60
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Random 3-SAT base, sparse enough to stay satisfiable with high
	// probability but dense enough to force real search.
	for i := 0; i < 150; i++ {
		a, b, c := rng.Intn(nVars), rng.Intn(nVars), rng.Intn(nVars)
		s.AddClause(MkLit(vars[a], rng.Intn(2) == 0),
			MkLit(vars[b], rng.Intn(2) == 0),
			MkLit(vars[c], rng.Intn(2) == 0))
	}
	ck := s.Checkpoint()

	type query struct{ lits [][3]int } // var index, polarity flag per clause
	mkQuery := func() query {
		q := query{}
		for i := 0; i < 20; i++ {
			q.lits = append(q.lits, [3]int{rng.Intn(nVars), rng.Intn(nVars), rng.Intn(2)})
		}
		return q
	}
	runQuery := func(q query) (Result, []Value) {
		g := s.NewVar()
		for _, cl := range q.lits {
			s.AddClause(MkLit(g, false), MkLit(vars[cl[0]], cl[2] == 0), MkLit(vars[cl[1]], cl[2] == 1))
		}
		r := s.SolveAssuming([]Lit{MkLit(g, true)})
		m := make([]Value, nVars)
		if r == Sat {
			for i, v := range vars {
				m[i] = s.ModelValue(v)
			}
		}
		return r, m
	}

	q1, q2 := mkQuery(), mkQuery()
	r1, m1 := runQuery(q1)
	s.Rollback(ck)
	runQuery(q2) // unrelated intervening query
	s.Rollback(ck)
	r2, m2 := runQuery(q1)
	s.Rollback(ck)
	r3, m3 := runQuery(q1)

	if r1 != r2 || r1 != r3 {
		t.Fatalf("verdicts differ across replays: %v %v %v", r1, r2, r3)
	}
	for i := range m1 {
		if m1[i] != m2[i] || m1[i] != m3[i] {
			t.Fatalf("model for var %d differs across replays: %v %v %v", i, m1[i], m2[i], m3[i])
		}
	}
}

// TestRollbackStaleCheckpointPanics pins the latest-checkpoint-only
// contract: change tracking is kept against the newest checkpoint, so
// rolling back to an older one must fail loudly rather than restore a
// mix of both.
func TestRollbackStaleCheckpointPanics(t *testing.T) {
	s := New(nil)
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true))
	stale := s.Checkpoint()
	s.NewVar()
	s.Checkpoint()
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback to a superseded checkpoint did not panic")
		}
	}()
	s.Rollback(stale)
}

// TestCheckpointRollbackMatchesFresh is the state-identity property behind
// dirty-tracked rollback: after any query sequence — new variables and
// clauses, conflicts, learned clauses, root-level units, learned-clause
// reduction, activity rescaling — Rollback leaves the solver field for field equal to an
// identically built solver right after Checkpoint.
func TestCheckpointRollbackMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cov ckCoverage
	for iter := 0; iter < 300; iter++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		cov.add(checkpointProperty(t, data))
	}
	if cov.conflicts == 0 || cov.learnts == 0 || cov.rootUnits == 0 || cov.reductions == 0 || cov.newClauses == 0 {
		t.Fatalf("query sequences missed a case: %+v", cov)
	}
}

// FuzzCheckpointRollback checks the same property over fuzzer-chosen base
// formulas and operation sequences.
func FuzzCheckpointRollback(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		data := make([]byte, 32+rng.Intn(256))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkpointProperty(t, data)
	})
}

// ckCoverage counts the solver behaviours a property run exercised.
type ckCoverage struct {
	conflicts, learnts, rootUnits, reductions, newClauses int64
}

func (c *ckCoverage) add(o ckCoverage) {
	c.conflicts += o.conflicts
	c.learnts += o.learnts
	c.rootUnits += o.rootUnits
	c.reductions += o.reductions
	c.newClauses += o.newClauses
}

// byteSrc turns a byte string into bounded choices; an exhausted source
// yields zeros.
type byteSrc struct{ b []byte }

func (s *byteSrc) n(m int) int {
	if m <= 0 || len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % m
}

func (s *byteSrc) lit(nVars int) Lit { return MkLit(Var(s.n(nVars)), s.n(2) == 0) }

// checkpointProperty decodes a base CNF and a query sequence from data,
// runs the sequence on a checkpointed solver with a rollback after every
// round, and compares each rolled-back state against a fresh solver built
// from the same base and checkpointed.
func checkpointProperty(t *testing.T, data []byte) ckCoverage {
	t.Helper()
	src := &byteSrc{b: data}
	nBase := 2 + src.n(30)
	base := [][]Lit{
		// Deciding x0 false conflicts at once, so a solve that does so
		// learns the root-level unit x0.
		{MkLit(0, true), MkLit(1, true)},
		{MkLit(0, true), MkLit(1, false)},
	}
	for i, m := 0, src.n(3*nBase); i < m; i++ {
		cl := make([]Lit, 1+src.n(4))
		for j := range cl {
			cl[j] = src.lit(nBase)
		}
		base = append(base, cl)
	}
	// A query before the checkpoint leaves activities, phases and learned
	// clauses for Checkpoint to snapshot or canonicalise away.
	pre := []Lit{src.lit(nBase), src.lit(nBase)}
	build := func() *Solver {
		s := New(nil)
		for i := 0; i < nBase; i++ {
			s.NewVar()
		}
		for _, cl := range base {
			s.AddClause(cl...)
		}
		s.SolveAssuming(pre)
		return s
	}
	want := build()
	want.Checkpoint()
	s := build()
	ck := s.Checkpoint()
	assertSameState(t, s, want)
	s.learntLimit = 2 // every restart reduces the learned-clause database

	var cov ckCoverage
	for round, rounds := 0, 1+src.n(6); round < rounds; round++ {
		st0 := s.Stats
		for op, ops := 0, 1+src.n(12); op < ops; op++ {
			switch src.n(6) {
			case 0: // post-checkpoint variable
				s.NewVar()
			case 1: // post-checkpoint clause over any variables
				cl := make([]Lit, 1+src.n(5))
				for j := range cl {
					cl[j] = src.lit(s.NumVars())
				}
				s.AddClause(cl...)
				cov.newClauses++
			case 2: // query under random assumptions
				as := make([]Lit, src.n(4))
				for j := range as {
					as[j] = src.lit(s.NumVars())
				}
				s.SolveAssuming(as)
			case 3: // plain solve (root-level learning)
				before := len(s.trail)
				s.Solve()
				if len(s.trail) > before {
					cov.rootUnits++
				}
			case 4: // hard guarded query: pigeonhole behind a fresh guard,
				// with base assumptions so the search moves base watches
				// before the restarts rebuild every list.
				g := s.NewVar()
				guardedPHP(s, g, 5)
				as := []Lit{MkLit(g, true)}
				for j, m := 0, src.n(4); j < m; j++ {
					as = append(as, src.lit(nBase))
				}
				s.SolveAssuming(as)
			case 5: // the next conflict rescales every activity
				s.varInc = 2e100
			}
		}
		cov.conflicts += s.Stats.Conflicts - st0.Conflicts
		cov.learnts += int64(s.NumLearnts())
		cov.reductions += s.Stats.Restarts - st0.Restarts
		s.Rollback(ck)
		assertSameState(t, s, want)
	}
	return cov
}

// guardedPHP adds the pigeonhole instance PHP(n) over fresh variables,
// every clause guarded by ¬g: unsat under g, and hard enough for
// restarts.
func guardedPHP(s *Solver, g Var, n int) {
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = make([]Var, n)
		for h := range p[i] {
			p[i][h] = s.NewVar()
		}
	}
	for i := range p {
		cl := []Lit{MkLit(g, false)}
		for h := 0; h < n; h++ {
			cl = append(cl, MkLit(p[i][h], true))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for i := range p {
			for j := i + 1; j < len(p); j++ {
				s.AddClause(MkLit(g, false), MkLit(p[i][h], false), MkLit(p[j][h], false))
			}
		}
	}
}

// assertSameState compares two solvers field by field: clause literal
// orders, every watch list in order (clause index and blocker), the
// decision heap, the per-variable arrays, the trail and its queues.
func assertSameState(t *testing.T, got, want *Solver) {
	t.Helper()
	if len(got.clauses) != len(want.clauses) || len(got.learnts) != 0 || len(want.learnts) != 0 {
		t.Fatalf("clauses = %d (+%d learned), want %d (+%d learned)",
			len(got.clauses), len(got.learnts), len(want.clauses), len(want.learnts))
	}
	for i := range got.clauses {
		g, w := got.clauses[i], want.clauses[i]
		if !slices.Equal(g.lits, w.lits) || g.idx != w.idx {
			t.Fatalf("clause %d = %v (idx %d), want %v (idx %d)", i, g.lits, g.idx, w.lits, w.idx)
		}
	}
	if len(got.watches) != len(want.watches) {
		t.Fatalf("watch lists = %d, want %d", len(got.watches), len(want.watches))
	}
	for l := range got.watches {
		g, w := got.watches[l], want.watches[l]
		if len(g) != len(w) {
			t.Fatalf("watch list %v has %d watchers, want %d", Lit(l), len(g), len(w))
		}
		for k := range g {
			if g[k].c.learned || g[k].c.idx != w[k].c.idx || g[k].blocker != w[k].blocker {
				t.Fatalf("watch list %v[%d] = clause %d blocker %v, want clause %d blocker %v",
					Lit(l), k, g[k].c.idx, g[k].blocker, w[k].c.idx, w[k].blocker)
			}
		}
	}
	reasons := func(s *Solver) []int32 {
		out := make([]int32, len(s.reason))
		for v, c := range s.reason {
			out[v] = -1
			if c != nil {
				out[v] = c.idx
			}
		}
		return out
	}
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"heap.data", slices.Equal(got.heap.data, want.heap.data)},
		{"heap.pos", slices.Equal(got.heap.pos, want.heap.pos)},
		{"assign", slices.Equal(got.assign, want.assign)},
		{"level", slices.Equal(got.level, want.level)},
		{"reason", slices.Equal(reasons(got), reasons(want))},
		{"phase", slices.Equal(got.phase, want.phase)},
		{"activity", slices.Equal(got.activity, want.activity)},
		{"trail", slices.Equal(got.trail, want.trail)},
		{"trailLim", len(got.trailLim) == 0},
		{"qhead", got.qhead == want.qhead},
		{"thead", got.thead == want.thead},
		{"varInc", got.varInc == want.varInc},
		{"clauseInc", got.clauseInc == want.clauseInc},
		{"rootUnsat", got.rootUnsat == want.rootUnsat},
		{"watchDirty", !slices.ContainsFunc(got.watchDirty, func(w uint64) bool { return w != 0 })},
		{"clauseDirty", !slices.ContainsFunc(got.clauseDirty, func(w uint64) bool { return w != 0 })},
		{"actDirty", !slices.ContainsFunc(got.actDirty, func(w uint64) bool { return w != 0 })},
		{"litMark", !slices.Contains(got.litMark, true)},
	} {
		if !f.eq {
			t.Fatalf("%s differs from the freshly checkpointed solver", f.name)
		}
	}
}

// TestRollbackAfterReduceDB pins the reduction case the random sequences
// rarely reach: a query moves one watch of a base clause, and a later
// query's learned-clause reduction rebuilds every watch list, giving the
// clause's untouched other list a new blocker. Rollback must restore that
// list too.
func TestRollbackAfterReduceDB(t *testing.T) {
	build := func() *Solver {
		s := New(nil)
		x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddClause(MkLit(x, true), MkLit(y, true), MkLit(z, true))
		return s
	}
	want := build()
	want.Checkpoint()
	s := build()
	ck := s.Checkpoint()
	s.learntLimit = 2
	// ¬y moves the clause's y watch to z. Both queries keep x true, so
	// list ¬x is never scanned and only the reduction changes it.
	notY, isX := MkLit(1, false), MkLit(0, true)
	if r := s.SolveAssuming([]Lit{notY, isX}); r != Sat {
		t.Fatalf("first query = %v, want sat", r)
	}
	g := s.NewVar()
	guardedPHP(s, g, 5)
	restarts := s.Stats.Restarts
	if r := s.SolveAssuming([]Lit{MkLit(g, true), notY, isX}); r != Unsat {
		t.Fatalf("pigeonhole query = %v, want unsat", r)
	}
	if s.Stats.Restarts == restarts {
		t.Fatal("pigeonhole query never restarted, so never reduced the database")
	}
	s.Rollback(ck)
	assertSameState(t, s, want)
}
