package rvpredict_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/rvpredict"
	"repro/trace"
)

// resumeFixture builds a four-window racy trace: each 8-event block holds
// a write/read race and a write/write race at block-unique locations, so
// with WindowSize 8 every window contributes verdicts and the journal has
// several records to lose and replay.
func resumeFixture() *trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < 4; i++ {
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

// runOpts is the shared result-affecting configuration: the journal
// fingerprint covers exactly these, so every matrix combination below can
// resume the same journal.
func runOpts() rvpredict.Options {
	return rvpredict.Options{
		WindowSize: 8,
		Witness:    true,
		Telemetry:  true,
	}
}

// tornJournal runs one complete journaled run of the fixture and returns
// the journal bytes with the final record's tail torn off, simulating a
// crash between the last record's first byte and its fsync.
func tornJournal(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "full.journal")
	opt := runOpts()
	opt.Journal = path
	if _, err := rvpredict.Run(nil, resumeFixture(), opt); err != nil {
		t.Fatalf("journaled run failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("journal implausibly small: %d bytes", len(data))
	}
	return data[:len(data)-3]
}

// TestResumeMatrixBitIdentical is the PR's acceptance test: a journal torn
// mid-record, resumed under every parallelism × triage combination, must
// produce a report identical to that combination's uninterrupted run —
// replaying the intact windows without re-entering the solver.
func TestResumeMatrixBitIdentical(t *testing.T) {
	torn := tornJournal(t)
	tr := resumeFixture()

	type combo struct {
		name         string
		par, pairPar int
		noTriage     bool
		level        string
		fullCompare  bool // parallel merges share verdicts, so PairsChecked may differ
	}
	var combos []combo
	for _, par := range []int{0, 2} {
		for _, pairPar := range []int{0, 2} {
			for _, tri := range []struct {
				name     string
				noTriage bool
				level    string
			}{
				{name: "triage"}, {name: "notriage", noTriage: true},
				{name: "shb", level: "shb"}, {name: "wcp", level: "wcp"},
				{name: "syncp", level: "syncp"}, {name: "cp", level: "cp"},
			} {
				combos = append(combos, combo{
					name: tri.name, par: par, pairPar: pairPar,
					noTriage: tri.noTriage, level: tri.level,
					fullCompare: par <= 1,
				})
			}
		}
	}

	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			base := runOpts()
			base.Parallelism, base.PairParallelism = c.par, c.pairPar
			base.NoTriage, base.TriageLevel = c.noTriage, c.level
			clean, err := rvpredict.Run(nil, tr, base)
			if err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			if len(clean.Races) == 0 {
				t.Fatal("expected races in the fixture")
			}

			path := filepath.Join(t.TempDir(), "torn.journal")
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Journal = path
			opt.Resume = true
			resumed, err := rvpredict.Run(nil, tr, opt)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}

			// Journal bookkeeping: the torn record was truncated, the
			// intact windows replayed, and the lost window re-journaled.
			jm := resumed.Telemetry.Journal
			if jm.TornTailTruncated < 1 {
				t.Errorf("par %d × pairPar %d: torn_tail_truncated = %d, want ≥ 1", c.par, c.pairPar, jm.TornTailTruncated)
			}
			if jm.WindowsReplayed != 3 {
				t.Errorf("par %d × pairPar %d: windows_replayed = %d, want 3", c.par, c.pairPar, jm.WindowsReplayed)
			}
			if jm.RecordsWritten < 1 {
				t.Errorf("par %d × pairPar %d: records_written = %d, want ≥ 1 (the lost window re-journals)", c.par, c.pairPar, jm.RecordsWritten)
			}

			// Replayed windows never re-enter the solver. Triage can
			// legitimately drive live queries to zero, so the strict
			// comparison runs where the solver is guaranteed busy.
			if c.noTriage {
				cs, rs := clean.Telemetry.Outcomes.Solved, resumed.Telemetry.Outcomes.Solved
				if cs == 0 {
					t.Fatal("clean NoTriage run issued no solver queries (fixture drifted)")
				}
				if rs >= cs {
					t.Errorf("par %d × pairPar %d: resume solved %d queries, want strictly fewer than the clean run's %d",
						c.par, c.pairPar, rs, cs)
				}
			}

			// Races from the three replayed windows must say so; the
			// re-analysed window's must not. The flag is operational
			// metadata — it records how this run obtained the verdict, not
			// the verdict itself — so it is normalised away before the
			// identity comparison below.
			for _, r := range resumed.Races {
				wantReplay := r.Provenance.Window < 3
				if r.Provenance.Replayed != wantReplay {
					t.Errorf("par %d × pairPar %d: race %d,%d replayed = %t, want %t",
						c.par, c.pairPar, r.First, r.Second, r.Provenance.Replayed, wantReplay)
				}
			}

			// The report itself must match the uninterrupted run exactly.
			// Telemetry and Elapsed differ by design (fewer queries, less
			// time); with window parallelism the cross-window verdict
			// sharing makes PairsChecked timing-dependent, so those combos
			// compare the verdict surface instead of every counter.
			cleanCmp, resumedCmp := clean, resumed
			cleanCmp.Telemetry, resumedCmp.Telemetry = nil, nil
			cleanCmp.Elapsed, resumedCmp.Elapsed = 0, 0
			resumedCmp.Races = append([]rvpredict.Race(nil), resumed.Races...)
			for i := range resumedCmp.Races {
				resumedCmp.Races[i].Provenance.Replayed = false
			}
			if c.fullCompare {
				if !reflect.DeepEqual(resumedCmp, cleanCmp) {
					t.Errorf("par %d × pairPar %d: resumed report differs:\n got %+v\nwant %+v",
						c.par, c.pairPar, resumedCmp, cleanCmp)
				}
			} else {
				if !reflect.DeepEqual(resumedCmp.Races, cleanCmp.Races) {
					t.Errorf("par %d × pairPar %d: resumed races differ:\n got %+v\nwant %+v",
						c.par, c.pairPar, resumedCmp.Races, cleanCmp.Races)
				}
				if resumedCmp.Windows != cleanCmp.Windows ||
					!reflect.DeepEqual(resumedCmp.WindowFailures, cleanCmp.WindowFailures) {
					t.Errorf("par %d × pairPar %d: resumed window accounting differs: %+v vs %+v",
						c.par, c.pairPar, resumedCmp, cleanCmp)
				}
			}

			// After the resume the journal must be whole again: every
			// window recorded, no torn tail left behind.
			_, info, err := journal.Inspect(path)
			if err != nil {
				t.Fatalf("recovering the post-resume journal: %v", err)
			}
			if len(info.Outcomes) != clean.Windows || info.TornTail {
				t.Errorf("post-resume journal holds %d outcomes (torn=%t), want %d intact",
					len(info.Outcomes), info.TornTail, clean.Windows)
			}
		})
	}
}

// TestResumeFingerprintMismatch: a journal written under one
// result-affecting configuration must refuse to resume under another —
// silently mixing verdicts from different option sets would be unsound.
func TestResumeFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.journal")
	opt := runOpts()
	opt.Journal = path
	if _, err := rvpredict.Run(nil, resumeFixture(), opt); err != nil {
		t.Fatalf("journaled run failed: %v", err)
	}

	t.Run("different options", func(t *testing.T) {
		bad := opt
		bad.Resume = true
		bad.Witness = false // result-affecting: witnesses are part of each verdict
		_, err := rvpredict.Run(nil, resumeFixture(), bad)
		if !errors.Is(err, journal.ErrFingerprint) {
			t.Fatalf("error = %v, want journal.ErrFingerprint", err)
		}
		if err == nil || !strings.Contains(err.Error(), "options") {
			t.Errorf("error %q does not say the options differ", err)
		}
	})

	t.Run("different trace", func(t *testing.T) {
		bad := opt
		bad.Resume = true
		other := trace.NewBuilder().At(1).Write(1, 99, 1).Trace()
		_, err := rvpredict.Run(nil, other, bad)
		if !errors.Is(err, journal.ErrFingerprint) {
			t.Fatalf("error = %v, want journal.ErrFingerprint", err)
		}
		if err == nil || !strings.Contains(err.Error(), "trace") {
			t.Errorf("error %q does not say the trace differs", err)
		}
	})

	t.Run("observational options resume fine", func(t *testing.T) {
		ok := opt
		ok.Resume = true
		ok.Parallelism, ok.PairParallelism = 2, 2
		ok.NoTriage = true
		ok.JournalGroupCommit = 1 // sync every append
		if _, err := rvpredict.Run(nil, resumeFixture(), ok); err != nil {
			t.Fatalf("resume under different observational options failed: %v", err)
		}
	})
}

// TestResumeMissingJournal: resuming a path that does not exist is an
// explicit error, not a silent fresh start — the caller asked for state
// that is not there.
func TestResumeMissingJournal(t *testing.T) {
	opt := runOpts()
	opt.Journal = filepath.Join(t.TempDir(), "nope.journal")
	opt.Resume = true
	if _, err := rvpredict.Run(nil, resumeFixture(), opt); err == nil {
		t.Fatal("resume from a missing journal succeeded, want an error")
	}
}
