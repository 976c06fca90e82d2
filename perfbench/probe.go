package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/encode"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/syncp"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/internal/wcp"
	"repro/trace"
)

// solveTimeout is the per-query budget the default options give the
// detector (rvpredict.Options' zero SolveTimeout).
const solveTimeout = 60 * time.Second

// probe replays analysis windows through the public stage functions of
// each layer, in the order internal/core calls them under default
// options (sequential pair scheduler, syncp triage ladder, pruning on, no
// witnesses), and records one span per stage and the stage's counts.
// The fidelity check compares those counts with the program's own
// telemetry, so the per-layer times describe the pipeline the program
// actually runs.
type probe struct {
	// ctx cancels the replay's solver queries, as the run's context
	// cancels the program's.
	ctx    context.Context
	l      *ledger
	parent int
	// seen is the cross-window signature state of the sequential batch
	// and streaming paths; nil replays every window with fresh state, as
	// the out-of-core reader and fleet paths do.
	seen map[race.Signature]bool
}

// group is the probe's signature group: every surviving instance of one
// signature in enumeration order, with its triage verdicts.
type group struct {
	sig       race.Signature
	cops      []race.COP
	confirmed []bool
}

func (p *probe) stage(name string, parent int, f func()) {
	id := p.l.begin(name, parent, -1)
	f()
	p.l.end(id)
}

// window replays one analysis window.
func (p *probe) window(w *trace.Trace, widx int) {
	win := p.l.begin("probe.window", p.parent, widx)
	defer p.l.end(win)
	seen := p.seen
	if seen == nil {
		seen = make(map[race.Signature]bool)
	}
	l := p.l

	type cand struct {
		cop race.COP
		sig race.Signature
	}
	var cands []cand
	dedup := 0
	var ncops int
	p.stage("race.enumerate", win, func() {
		cops := race.EnumerateCOPs(w)
		ncops = len(cops)
		for _, c := range cops {
			sig := race.SigOf(w, c.A, c.B)
			if seen[sig] {
				dedup++
				continue
			}
			cands = append(cands, cand{c, sig})
		}
	})
	l.add("race.cops", int64(ncops))
	l.add("race.sig_dedup", int64(dedup))
	if len(cands) == 0 {
		return
	}

	var mhb *vc.MHB
	p.stage("vc.mhb", win, func() { mhb = vc.ComputeMHB(w) })
	defer mhb.Release()
	var surv []cand
	p.stage("lockset.quick_check", win, func() {
		sets := lockset.ComputeWith(w, mhb)
		for _, c := range cands {
			if sets.Pass(c.cop.A, c.cop.B) {
				surv = append(surv, c)
			}
		}
	})
	l.add("lockset.survivors", int64(len(surv)))
	if len(surv) == 0 {
		return
	}

	confirmed := make([]bool, len(surv))
	open := 0
	p.stage("hb.shb", win, func() {
		shb := hb.SHBClocks(w)
		for i, c := range surv {
			if syncp.ConfirmSHB(shb, c.cop.A, c.cop.B) {
				confirmed[i] = true
				l.add("triage.shb", 1)
			} else {
				open++
			}
		}
		shb.Release()
	})
	if open > 0 {
		p.stage("syncp.witness", win, func() {
			sr := hb.SRClocks(w)
			sidx := syncp.NewIndex(w, sr)
			wrel := wcp.ComputeWith(w, sr)
			for i, c := range surv {
				switch {
				case confirmed[i]:
				case !sidx.Check(c.cop.A, c.cop.B):
					l.add("triage.dispatched", 1)
				case !wrel.Ordered(c.cop.A, c.cop.B):
					confirmed[i] = true
					l.add("triage.wcp", 1)
				default:
					confirmed[i] = true
					l.add("triage.syncp", 1)
				}
			}
			sr.Release()
		})
	}

	var groups []*group
	index := make(map[race.Signature]int)
	dispatched := 0
	for i, c := range surv {
		gi, ok := index[c.sig]
		if !ok {
			gi = len(groups)
			index[c.sig] = gi
			groups = append(groups, &group{sig: c.sig})
		}
		groups[gi].cops = append(groups[gi].cops, c.cop)
		groups[gi].confirmed = append(groups[gi].confirmed, confirmed[i])
		if !confirmed[i] {
			dispatched++
		}
	}
	l.add("pairsched.groups", int64(len(groups)))
	p.solve(w, mhb, win, groups, dispatched, seen)
}

// solve replays the pair scheduler's single worker: the window solver's
// base encoding (Φ_mhb, Φ_lock), the control-flow definitions of every
// instance, the checkpoint, then each group from the checkpointed state.
func (p *probe) solve(w *trace.Trace, mhb *vc.MHB, win int, groups []*group, dispatched int, seen map[race.Signature]bool) {
	l := p.l
	var (
		s   *smt.Solver
		enc *encode.Encoder
		cf  *encode.CF
		bad bool
		ck  *smt.Checkpoint
	)
	p.stage("encode.base", win, func() {
		s = smt.NewSolver()
		s.SetCancel(func() bool { return p.ctx.Err() != nil })
		enc = encode.New(w, s, mhb, -1, -1)
		enc.Pruning = true
		cf = encode.NewCF(enc, s, 0)
		if enc.AssertMHB() != nil {
			bad = true
		}
		if enc.AssertLocks() != nil {
			bad = true
		}
	})
	if !bad {
		p.stage("encode.cf", win, func() {
			for _, g := range groups {
				for _, c := range g.cops {
					cf.ControlFlow(c.A)
					cf.ControlFlow(c.B)
				}
			}
		})
	}
	p.stage("smt.checkpoint", win, func() { ck = s.Checkpoint() })
	if dispatched == 0 {
		l.add("encode.idle_replicas", 1)
	}

	dirty := false
	for _, g := range groups {
		if dirty {
			p.stage("smt.rollback", win, func() { s.Rollback(ck) })
			l.add("smt.rollbacks", 1)
			dirty = false
		}
		isRace := false
		for k, c := range g.cops {
			if isRace {
				continue
			}
			if g.confirmed[k] {
				isRace = true
				continue
			}
			dirty = true
			l.add("smt.queries", 1)
			var guard sat.Lit
			ok := !bad
			if ok {
				p.stage("encode.cf", win, func() {
					guard = s.NewBoolLit()
					ok = s.Implies(guard, enc.Adjacent(c.A, c.B)) == nil &&
						s.Implies(guard, cf.ControlFlow(c.A)) == nil &&
						s.Implies(guard, cf.ControlFlow(c.B)) == nil
				})
			}
			if !ok {
				l.add("smt.unsat", 1)
				continue
			}
			s.SetDeadline(time.Now().Add(solveTimeout))
			var v sat.Result
			p.stage("smt.solve", win, func() { v = s.SolveAssuming(guard) })
			switch v {
			case sat.Sat:
				l.add("smt.sat", 1)
				isRace = true
			case sat.Aborted:
				l.add("smt.aborted", 1)
			default:
				l.add("smt.unsat", 1)
			}
		}
		if isRace {
			seen[g.sig] = true
		}
	}
	st := s.Stats()
	l.add("sat.decisions", st.Decisions)
	l.add("sat.conflicts", st.Conflicts)
	_, clauses, _ := s.Size()
	l.add("encode.clauses", int64(clauses))
}

// probeStages are the stage spans the probe records, in core's order;
// core.unattributed_s is the window callback time they do not explain.
var probeStages = []string{
	"race.enumerate", "vc.mhb", "lockset.quick_check", "hb.shb", "syncp.witness",
	"encode.base", "encode.cf", "smt.checkpoint", "smt.rollback", "smt.solve",
}

// fidelity compares the probe's counts with the program's telemetry
// snapshot for the same trace and execution mode and returns one line
// per disagreement.
func fidelity(l *ledger, m *telemetry.Metrics) []string {
	if m == nil {
		return []string{"program telemetry snapshot missing"}
	}
	o := m.Outcomes
	want := []struct {
		name string
		got  int64
		tele int64
	}{
		{"COPs enumerated", l.count("race.cops"), o.Enumerated},
		{"signature dedup hits", l.count("race.sig_dedup"), o.SigDedupHits},
		{"quick-check survivors", l.count("lockset.survivors"), o.Enumerated - o.QuickCheckFiltered - o.SigDedupHits - o.MHBFiltered},
		{"shb confirmations", l.count("triage.shb"), m.Triage.Confirmed},
		{"wcp confirmations", l.count("triage.wcp"), m.Triage.WCPConfirmed},
		{"syncp confirmations", l.count("triage.syncp"), m.Triage.SyncPConfirmed},
		{"cp confirmations", 0, m.Triage.CPConfirmed},
		{"dispatched queries", l.count("triage.dispatched"), m.Triage.Dispatched},
		{"signature groups", l.count("pairsched.groups"), m.PairSched.Groups},
		{"solver queries", l.count("smt.queries"), o.Solved},
		{"sat verdicts", l.count("smt.sat"), o.Sat},
		{"unsat verdicts", l.count("smt.unsat"), o.Unsat},
		{"aborted queries", l.count("smt.aborted"), o.Timeout + o.ConflictBudget + o.Cancelled},
		{"rollbacks", l.count("smt.rollbacks"), m.PairSched.Rollbacks},
		{"sat decisions", l.count("sat.decisions"), m.Solver.Decisions},
		{"sat conflicts", l.count("sat.conflicts"), m.Solver.Conflicts},
		{"clauses", l.count("encode.clauses"), m.Solver.Clauses},
	}
	var bad []string
	for _, c := range want {
		if c.got != c.tele {
			bad = append(bad, fmt.Sprintf("%s: probe %d, program telemetry %d", c.name, c.got, c.tele))
		}
	}
	return bad
}
