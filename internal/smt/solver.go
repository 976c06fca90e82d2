package smt

import (
	"time"

	"repro/internal/idl"
	"repro/internal/sat"
)

// Solver decides boolean combinations of IDL atoms by DPLL(T). In the
// race-detection pipeline one long-lived solver serves each window
// replica: the window's base constraints are asserted once and
// checkpointed, every query adds a guard-conditional constraint and
// solves under its guard, and the solver rolls back to the checkpoint
// between signature groups. Only the merged-variable ablation builds a
// solver per COP.
type Solver struct {
	sat   *sat.Solver
	idl   *idl.Solver
	th    *theory
	atoms map[Atom]sat.Var     // interned atoms
	enc   map[*Formula]sat.Lit // Tseitin encodings of composite nodes

	// atomLog and encLog record map insertions in order, so Rollback can
	// delete exactly the entries added since a Checkpoint without
	// iterating the whole map.
	atomLog []Atom
	encLog  []*Formula

	estats EncodeStats

	// model snapshot (potentials) captured at the successful theory check
	model []int64
}

// EncodeStats counts the work of the formula-to-clause translation,
// mirroring sat.Stats (search) and idl.Stats (theory) for the encoding
// layer: distinct IDL atoms interned as SAT variables, auxiliary Tseitin
// variables allocated for shared composite nodes, and the clauses those
// nodes expanded to. Because composite nodes are encoded once per shared
// pointer, TseitinVars is exactly the number of distinct AND/OR DAG nodes
// reaching the solver — the deduplicated formula size.
type EncodeStats struct {
	InternedAtoms  int64 // distinct IDL atoms given SAT variables
	TseitinVars    int64 // auxiliary variables for composite nodes
	TseitinClauses int64 // clauses emitted by the Tseitin translation
}

// Add accumulates other into s.
func (s *EncodeStats) Add(other EncodeStats) {
	s.InternedAtoms += other.InternedAtoms
	s.TseitinVars += other.TseitinVars
	s.TseitinClauses += other.TseitinClauses
}

// NewSolver returns an empty SMT solver.
func NewSolver() *Solver {
	s := &Solver{
		idl:   idl.New(),
		atoms: make(map[Atom]sat.Var),
		enc:   make(map[*Formula]sat.Lit),
	}
	s.th = &theory{s: s}
	s.sat = sat.New(s.th)
	return s
}

// SetMaxConflicts bounds the CDCL search; 0 means unbounded.
func (s *Solver) SetMaxConflicts(n int64) { s.sat.MaxConflicts = n }

// SetDeadline aborts the search at the first conflict past t.
func (s *Solver) SetDeadline(t time.Time) { s.sat.Deadline = t }

// SetCancel installs a cooperative-cancellation poll: f is checked on
// Solve entry and periodically in the conflict loop; returning true aborts
// the search with sat.AbortCancelled. Pass nil to clear.
func (s *Solver) SetCancel(f func() bool) { s.sat.Cancel = f }

// Stats exposes the SAT core's search counters.
func (s *Solver) Stats() sat.Stats { return s.sat.Stats }

// TheoryStats exposes the IDL theory solver's counters.
func (s *Solver) TheoryStats() idl.Stats { return s.idl.Stats }

// EncStats exposes the formula-translation counters.
func (s *Solver) EncStats() EncodeStats { return s.estats }

// LastAbortCause reports why the most recent Solve returned sat.Aborted
// (sat.AbortNone otherwise): wall-clock deadline or conflict budget.
func (s *Solver) LastAbortCause() sat.AbortCause { return s.sat.LastAbortCause() }

// Size reports the encoding size so far: boolean variables, problem
// clauses and currently retained learned clauses.
func (s *Solver) Size() (vars, clauses, learnts int) {
	return s.sat.NumVars(), s.sat.NumClauses(), s.sat.NumLearnts()
}

// IntVar allocates a fresh integer variable.
func (s *Solver) IntVar() IntVar { return s.idl.NewVar() }

// IntVarAt allocates a fresh integer variable whose initial theory value
// is hint; constraints satisfied by the hints assert in constant time (see
// idl.Solver.NewVarAt).
func (s *Solver) IntVarAt(hint int64) IntVar { return s.idl.NewVarAt(hint) }

// NumIntVars returns the number of allocated integer variables.
func (s *Solver) NumIntVars() int { return s.idl.NumVars() }

// atomVar interns the atom, allocating and registering its SAT variable.
// The variable's initial decision phase is the atom's truth value under
// the current theory assignment (the seeded potentials): when the encoder
// seeds order variables with the observed trace positions, the first
// descent of the search follows the original schedule — a near-model of
// every constraint except the race condition — instead of fighting it.
func (s *Solver) atomVar(a Atom) sat.Var {
	if v, ok := s.atoms[a]; ok {
		return v
	}
	v := s.sat.NewVar()
	s.sat.SetPhase(v, s.idl.Value(a.X)-s.idl.Value(a.Y) <= a.C)
	s.atoms[a] = v
	s.atomLog = append(s.atomLog, a)
	s.th.register(v, a)
	s.estats.InternedAtoms++
	return v
}

// encode returns a literal equivalent (for positive occurrences) to f,
// emitting implication clauses for composite nodes once per shared node.
func (s *Solver) encode(f *Formula) sat.Lit {
	switch f.kind {
	case kAtom:
		return sat.MkLit(s.atomVar(f.atom), true)
	case kLit:
		return f.lit
	case kAnd, kOr:
		if l, ok := s.enc[f]; ok {
			return l
		}
		p := sat.MkLit(s.sat.NewVar(), true)
		s.enc[f] = p
		s.encLog = append(s.encLog, f)
		s.estats.TseitinVars++
		if f.kind == kAnd {
			// p → k for each conjunct.
			for _, k := range f.kids {
				s.estats.TseitinClauses++
				if err := s.sat.AddClause(p.Neg(), s.encode(k)); err != nil {
					// Clause (¬p ∨ l) can only fail if the solver is
					// already root-unsat; propagate via a poisoned lit is
					// unnecessary — the final Solve reports Unsat.
					return p
				}
			}
		} else {
			// p → k1 ∨ … ∨ kn.
			cl := make([]sat.Lit, 0, len(f.kids)+1)
			cl = append(cl, p.Neg())
			for _, k := range f.kids {
				cl = append(cl, s.encode(k))
			}
			s.estats.TseitinClauses++
			if err := s.sat.AddClause(cl...); err != nil {
				return p
			}
		}
		return p
	}
	panic("smt: constant formula reached encode (constructors must fold)")
}

// Assert conjoins f to the solver's constraints. It returns sat.ErrUnsat
// if the problem became trivially unsatisfiable while adding clauses.
func (s *Solver) Assert(f *Formula) error {
	switch f.kind {
	case kTrue:
		return nil
	case kFalse:
		return s.sat.AddClause() // records root unsat
	case kAnd:
		for _, k := range f.kids {
			if err := s.Assert(k); err != nil {
				return err
			}
		}
		return nil
	case kAtom:
		return s.sat.AddClause(sat.MkLit(s.atomVar(f.atom), true))
	case kLit:
		return s.sat.AddClause(f.lit)
	case kOr:
		cl := make([]sat.Lit, 0, len(f.kids))
		for _, k := range f.kids {
			cl = append(cl, s.encode(k))
		}
		return s.sat.AddClause(cl...)
	}
	panic("smt: unknown formula kind")
}

// Solve decides the asserted constraints.
func (s *Solver) Solve() sat.Result {
	s.model = nil
	return s.sat.Solve()
}

// SolveAssuming decides the asserted constraints with the given literals
// assumed true for this call only. Combined with NewBoolLit and Implies
// this supports the one-solver-per-window architecture: window-wide
// constraints are asserted once, each query adds guard-conditional
// constraints (guard → constraint) and solves assuming its guard.
func (s *Solver) SolveAssuming(lits ...sat.Lit) sat.Result {
	s.model = nil
	return s.sat.SolveAssuming(lits)
}

// Value returns x's integer value in the model found by the last
// successful Solve. Valid only after Solve returned Sat.
func (s *Solver) Value(x IntVar) int64 {
	if s.model == nil {
		panic("smt: Value called without a model")
	}
	return s.model[x]
}

// theory adapts the IDL solver to the sat.Theory interface. Positive
// literals assert their atom x − y ≤ c; negative literals assert the
// integer complement y − x ≤ −c − 1.
type theory struct {
	s        *Solver
	relevant []bool // per sat.Var
	atomOf   []Atom // per sat.Var
}

func (t *theory) register(v sat.Var, a Atom) {
	for int(v) >= len(t.relevant) {
		t.relevant = append(t.relevant, false)
		t.atomOf = append(t.atomOf, Atom{})
	}
	t.relevant[v] = true
	t.atomOf[v] = a
}

func (t *theory) Relevant(v sat.Var) bool {
	return int(v) < len(t.relevant) && t.relevant[v]
}

func (t *theory) Assert(l sat.Lit) []sat.Lit {
	a := t.atomOf[l.Var()]
	var tags []idl.Tag
	if l.Positive() {
		tags = t.s.idl.Assert(a.X, a.Y, a.C, idl.Tag(l))
	} else {
		tags = t.s.idl.Assert(a.Y, a.X, -a.C-1, idl.Tag(l))
	}
	if tags == nil {
		return nil
	}
	confl := make([]sat.Lit, len(tags))
	for i, tg := range tags {
		confl[i] = sat.Lit(tg)
	}
	return confl
}

func (t *theory) Push() { t.s.idl.Push() }

func (t *theory) Pop(n int) { t.s.idl.Pop(n) }

func (t *theory) Check() []sat.Lit {
	// The IDL solver is assertion-complete: every inconsistency is caught
	// eagerly, so a full boolean assignment is always theory-consistent
	// here. Snapshot the feasible assignment as the model.
	n := t.s.idl.NumVars()
	m := make([]int64, n)
	for i := 0; i < n; i++ {
		m[i] = t.s.idl.Value(idl.VarID(i))
	}
	t.s.model = m
	return nil
}

// Checkpoint is a snapshot of the full SMT solver state — the CDCL core,
// the IDL theory, and the atom/Tseitin interning tables — taken with
// Solver.Checkpoint and restored with Solver.Rollback. See sat.Checkpoint
// and idl.Checkpoint for the layer-by-layer guarantees; together they
// make every solve from a rolled-back state canonical: identical queries
// encoded after identical rollbacks produce identical verdicts and
// identical models.
type Checkpoint struct {
	sat    *sat.Checkpoint
	idl    *idl.Checkpoint
	nVars  int
	nAtoms int
	nEnc   int
}

// Checkpoint snapshots the solver. It must be taken between queries (not
// inside a Solve call); the typical use asserts a base formula once,
// checkpoints, and then alternates query encoding/solving with Rollback.
func (s *Solver) Checkpoint() *Checkpoint {
	return &Checkpoint{
		sat:    s.sat.Checkpoint(),
		idl:    s.idl.Checkpoint(),
		nVars:  s.sat.NumVars(),
		nAtoms: len(s.atomLog),
		nEnc:   len(s.encLog),
	}
}

// Rollback restores the state captured by ck: every variable, clause,
// atom and Tseitin node added since the checkpoint is discarded, and the
// solver is byte-for-byte back in its checkpointed state (cumulative
// statistics excepted — they keep counting across rollbacks).
func (s *Solver) Rollback(ck *Checkpoint) {
	s.sat.Rollback(ck.sat)
	s.idl.Rollback(ck.idl)
	for _, a := range s.atomLog[ck.nAtoms:] {
		delete(s.atoms, a)
	}
	s.atomLog = s.atomLog[:ck.nAtoms]
	for _, f := range s.encLog[ck.nEnc:] {
		delete(s.enc, f)
	}
	s.encLog = s.encLog[:ck.nEnc]
	if len(s.th.relevant) > ck.nVars {
		s.th.relevant = s.th.relevant[:ck.nVars]
		s.th.atomOf = s.th.atomOf[:ck.nVars]
	}
	s.model = nil
}

// NewBoolLit allocates a fresh boolean literal for knot-tying recursive
// definitions (see Ref). The literal is unconstrained until defined with
// Implies.
func (s *Solver) NewBoolLit() sat.Lit {
	return sat.MkLit(s.sat.NewVar(), true)
}

// Implies adds the one-directional definition p → f, clause by clause.
// Together with Ref this supports cyclic definition graphs: a cycle of
// mutually-implying literals can only be satisfied all-true if the
// underlying order atoms admit it, which is exactly the semantics the
// cf(e) encoding needs (cyclic read-from justifications are contradictory
// in the order theory and therefore excluded by the IDL constraints).
func (s *Solver) Implies(p sat.Lit, f *Formula) error {
	switch f.kind {
	case kTrue:
		return nil
	case kFalse:
		return s.sat.AddClause(p.Neg())
	case kAnd:
		for _, k := range f.kids {
			if err := s.Implies(p, k); err != nil {
				return err
			}
		}
		return nil
	default:
		return s.sat.AddClause(p.Neg(), s.encode(f))
	}
}
