package rvpredict_test

import (
	"errors"
	"testing"

	"repro/internal/fixtures"
	"repro/rvpredict"
)

// TestValidateRejectsEachBadCombination: every undefined Options
// combination is rejected with an *OptionsError naming the offending
// field, both from Validate directly and from Run (which must refuse to
// start detection).
func TestValidateRejectsEachBadCombination(t *testing.T) {
	cases := []struct {
		name  string
		opt   rvpredict.Options
		field string
	}{
		{"window size below -1", rvpredict.Options{WindowSize: -2}, "WindowSize"},
		{"negative parallelism", rvpredict.Options{Parallelism: -1}, "Parallelism"},
		{"negative pair parallelism", rvpredict.Options{PairParallelism: -3}, "PairParallelism"},
		{"negative first-pass timeout", rvpredict.Options{FirstPassTimeout: -1}, "FirstPassTimeout"},
		{"negative global budget", rvpredict.Options{GlobalBudget: -1}, "GlobalBudget"},
		{"negative conflict budget", rvpredict.Options{MaxConflicts: -1}, "MaxConflicts"},
		{"unknown triage level", rvpredict.Options{TriageLevel: "hb"}, "TriageLevel"},
		{"triage level with triage disabled", rvpredict.Options{NoTriage: true, TriageLevel: "syncp"}, "TriageLevel"},
		{"resume without a journal", rvpredict.Options{Resume: true}, "Resume"},
		{"journal on a non-RV algorithm", rvpredict.Options{Journal: "j", Algorithm: rvpredict.HappensBefore}, "Journal"},
		{"negative group-commit interval", rvpredict.Options{Journal: "j", JournalGroupCommit: -1}, "JournalGroupCommit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(src string, err error) {
				var oe *rvpredict.OptionsError
				if !errors.As(err, &oe) {
					t.Fatalf("%s: error = %v, want *OptionsError", src, err)
				}
				if oe.Field != tc.field {
					t.Errorf("%s: Field = %q, want %q", src, oe.Field, tc.field)
				}
				if oe.Reason == "" {
					t.Errorf("%s: Reason is empty", src)
				}
			}
			check("Validate", tc.opt.Validate())
			_, err := rvpredict.Run(nil, fixtures.Figure1(), tc.opt)
			check("Run", err)
		})
	}
}

// TestValidateAcceptsDefinedOptions: the documented sentinel values —
// zero defaults, -1 for a single whole-trace window, negative solve
// timeout for an unbounded solver — must pass validation; rejecting them
// would break existing callers.
func TestValidateAcceptsDefinedOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  rvpredict.Options
	}{
		{"zero value", rvpredict.Options{}},
		{"whole-trace window", rvpredict.Options{WindowSize: -1}},
		{"unbounded solver", rvpredict.Options{SolveTimeout: -1}},
		{"journal with defaults", rvpredict.Options{Journal: "j"}},
		{"resume with journal", rvpredict.Options{Journal: "j", Resume: true}},
		{"full parallel matrix", rvpredict.Options{Parallelism: 8, PairParallelism: 8, TriageLevel: "cp"}},
		{"explicit default rung", rvpredict.Options{TriageLevel: "syncp"}},
		{"lowest rung", rvpredict.Options{TriageLevel: "shb"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

// TestCoreOptionsKeepsNormalisedSentinels: CoreOptions maps normalised
// options as they are. Normalising a second time would turn the
// whole-trace window (-1 → 0) into the default 10000-event window and an
// unbounded solver (-1 → 0) into the 60 s default.
func TestCoreOptionsKeepsNormalisedSentinels(t *testing.T) {
	c := rvpredict.Options{WindowSize: -1, SolveTimeout: -1, TriageLevel: "shb"}.Normalised().CoreOptions(nil)
	if c.WindowSize != 0 || c.SolveTimeout != 0 || c.TriageLevel != "shb" {
		t.Errorf("CoreOptions = window %d, solve %v, triage %q; want 0, 0, \"shb\"",
			c.WindowSize, c.SolveTimeout, c.TriageLevel)
	}
}
