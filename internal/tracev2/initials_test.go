package tracev2_test

import (
	"math/rand"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/trace"
)

// fullCopyInitials is the reference the window-scoped rule replaced:
// every window's initial values are all declared initials overlaid with
// the last write of every address in all earlier windows.
func fullCopyInitials(tr *trace.Trace, declared map[trace.Addr]int64, size int) []map[trace.Addr]int64 {
	carried := make(map[trace.Addr]int64)
	var out []map[trace.Addr]int64
	for lo := 0; lo < tr.Len() || lo == 0; lo += size {
		hi := lo + size
		if size <= 0 || hi > tr.Len() {
			hi = tr.Len()
		}
		m := make(map[trace.Addr]int64)
		for a, v := range declared {
			m[a] = v
		}
		for a, v := range carried {
			m[a] = v
		}
		out = append(out, m)
		for _, e := range tr.Events()[lo:hi] {
			if e.Op == trace.OpWrite {
				carried[e.Addr] = e.Value
			}
		}
		if hi == tr.Len() {
			break
		}
	}
	return out
}

// initialsTrace is a random trace with declared initial values on its
// locations, on its locks (never written) and on a read-only location
// 30 that only some stretches of the trace touch.
func initialsTrace(seed int64) (*trace.Trace, map[trace.Addr]int64) {
	rng := rand.New(rand.NewSource(seed))
	src := fixtures.Random(rng, 40+rng.Intn(120))
	declared := map[trace.Addr]int64{30: 33}
	for _, a := range []trace.Addr{1, 2, 3, 4, 7, 8, 9} {
		if v := int64(rng.Intn(3)); v != 0 {
			declared[a] = 5 * v
		}
	}
	tr := trace.New(src.Len())
	for _, e := range src.Events() {
		tr.Append(e)
		if e.Op.IsAccess() && rng.Intn(9) == 0 {
			tr.Append(trace.Event{Tid: e.Tid, Op: trace.OpRead, Addr: 30, Value: 33, Loc: 40})
		}
	}
	for a, v := range declared {
		tr.SetInitial(a, v)
	}
	for a := range declared {
		if src.Volatile(a) {
			tr.SetVolatile(a)
		}
	}
	return tr, declared
}

// TestWindowInitialsMatchFullCopy: for every address a window's events
// name, both windowers (race.WindowSlices and the chunked reader) answer
// Initial exactly as the full-copy rule did, and for every other address
// with a declared or carried value they answer 0 — a window cut from a
// longer trace holds nothing from outside itself.
func TestWindowInitialsMatchFullCopy(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tr, declared := initialsTrace(seed)
		for _, size := range []int{1, 5, 64, tr.Len()} {
			want := fullCopyInitials(tr, declared, size)
			// whole is set for race.WindowSlices' one-window case, which
			// hands back the trace itself with its declared map intact.
			check := func(who string, w *trace.Trace, widx int, whole bool) {
				if widx >= len(want) {
					t.Fatalf("seed %d size %d %s: window %d past the reference's %d", seed, size, who, widx, len(want))
				}
				named := make(map[trace.Addr]bool)
				for _, e := range w.Events() {
					if e.Op.IsAccess() || e.Op == trace.OpAcquire || e.Op == trace.OpRelease {
						named[e.Addr] = true
					}
				}
				for a, ref := range want[widx] {
					exp := ref
					if !named[a] {
						if whole {
							continue
						}
						exp = 0
					}
					if got := w.Initial(a); got != exp {
						t.Errorf("seed %d size %d %s window %d: Initial(%d) = %d, want %d (named %t)",
							seed, size, who, widx, a, got, exp, named[a])
					}
				}
				for a := range named {
					if _, ok := want[widx][a]; !ok && w.Initial(a) != 0 {
						t.Errorf("seed %d size %d %s window %d: Initial(%d) = %d, want 0",
							seed, size, who, widx, a, w.Initial(a))
					}
				}
			}
			slices := race.WindowSlices(tr, size)
			if len(slices) != len(want) {
				t.Fatalf("seed %d size %d: %d windows, reference has %d", seed, size, len(slices), len(want))
			}
			for widx, s := range slices {
				check("WindowSlices", s.Trace, widx, s.Trace == tr)
			}
			if err := chunkedReader(t, tr, 16).Windows(size, func(w *trace.Trace, widx, _ int) error {
				check("Reader", w, widx, false)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
