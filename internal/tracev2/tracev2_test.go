package tracev2_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/journal"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/workloads"
	"repro/trace"
)

// chunkedReader writes tr in the chunked format and opens a reader over
// the bytes.
func chunkedReader(t *testing.T, tr *trace.Trace, chunkSize int) *tracev2.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tracev2.WriteTrace(&buf, tr, chunkSize); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	r, err := tracev2.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

// encodeLegacy renders a trace in the canonical legacy encoding — the
// byte-identity yardstick for windows and whole traces.
func encodeLegacy(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func testTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	spec := workloads.Rows()[4] // bufwriter: locks, volatiles, wait/notify
	wl, _ := workloads.Build(spec)
	empty := trace.NewBuilder().Trace()
	meta := trace.NewBuilder()
	meta.Volatile(7)
	meta.Initial(5, 42)
	meta.AtNamed(3, "Server.java:120").Write(1, 5, 42)
	meta.At(4).ReadV(2, 7, 0)
	meta.Acquire(1, 9)
	meta.Wait(1, 9, func(b *trace.Builder) int {
		n := b.Mark()
		b.Write(2, 5, 1)
		return n
	})
	meta.Release(1, 9)
	return map[string]*trace.Trace{
		"figure1":  fixtures.Figure1(),
		"workload": wl,
		"empty":    empty,
		"metadata": meta.Trace(),
	}
}

func TestRoundTrip(t *testing.T) {
	for name, tr := range testTraces(t) {
		for _, chunkSize := range []int{1, 7, 64, tracev2.DefaultChunkSize} {
			r := chunkedReader(t, tr, chunkSize)
			if r.NumEvents() != tr.Len() {
				t.Fatalf("%s/%d: NumEvents = %d, want %d", name, chunkSize, r.NumEvents(), tr.Len())
			}
			got, err := r.ReadAll()
			if err != nil {
				t.Fatalf("%s/%d: ReadAll: %v", name, chunkSize, err)
			}
			// The materialised trace must re-encode to the exact canonical
			// legacy bytes: events, links, volatiles, initials and names
			// all survived the columnar round trip.
			if want, have := encodeLegacy(t, tr), encodeLegacy(t, got); !bytes.Equal(want, have) {
				t.Errorf("%s/%d: round-tripped trace re-encodes differently", name, chunkSize)
			}
			if r.Stats() != tr.ComputeStats() {
				t.Errorf("%s/%d: Stats = %+v, want %+v", name, chunkSize, r.Stats(), tr.ComputeStats())
			}
			fp, err := journal.TraceFingerprint(tr)
			if err != nil {
				t.Fatalf("TraceFingerprint: %v", err)
			}
			if r.ContentHash() != fp {
				t.Errorf("%s/%d: ContentHash does not match journal.TraceFingerprint", name, chunkSize)
			}
		}
	}
}

func TestRandomAccess(t *testing.T) {
	tr := testTraces(t)["workload"]
	r := chunkedReader(t, tr, 64)
	col := telemetry.NewCollector()
	r.AttachTelemetry(col)
	// Strided access across chunks, then a dense re-read that must hit
	// the cache.
	for i := 0; i < tr.Len(); i += 97 {
		e, err := r.Event(i)
		if err != nil {
			t.Fatalf("Event(%d): %v", i, err)
		}
		if e != tr.Event(i) {
			t.Fatalf("Event(%d) = %v, want %v", i, e, tr.Event(i))
		}
	}
	misses := col.ChunkCacheMisses()
	if misses == 0 {
		t.Fatal("expected chunk cache misses from strided access")
	}
	for i := 0; i < 64 && i < tr.Len(); i++ {
		if _, err := r.Event(i); err != nil {
			t.Fatalf("Event(%d): %v", i, err)
		}
	}
	if col.ChunkCacheHits() == 0 {
		t.Error("dense re-read produced no cache hits")
	}
}

// TestWindowsMatchWindowSlices is the core equivalence: the chunked
// reader's streamed windows must be byte-identical (per-window legacy
// encoding, carried initial state included) to race.WindowSlices over
// the materialised trace — the invariant that makes reader-path
// detection results interchangeable with batch results.
func TestWindowsMatchWindowSlices(t *testing.T) {
	for name, tr := range testTraces(t) {
		for _, chunkSize := range []int{3, 64} {
			for _, winSize := range []int{0, 1, 5, 64, 1000, tr.Len(), tr.Len() + 1} {
				r := chunkedReader(t, tr, chunkSize)
				want := race.WindowSlices(tr, winSize)
				var got []struct {
					enc    []byte
					offset int
				}
				err := r.Windows(winSize, func(w *trace.Trace, widx, offset int) error {
					if widx != len(got) {
						t.Fatalf("window index %d, want %d", widx, len(got))
					}
					got = append(got, struct {
						enc    []byte
						offset int
					}{encodeLegacy(t, w), offset})
					return nil
				})
				if err != nil {
					t.Fatalf("%s cs=%d ws=%d: Windows: %v", name, chunkSize, winSize, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s cs=%d ws=%d: %d windows, want %d", name, chunkSize, winSize, len(got), len(want))
				}
				for i, w := range want {
					if got[i].offset != w.Offset {
						t.Errorf("%s cs=%d ws=%d window %d: offset %d, want %d", name, chunkSize, winSize, i, got[i].offset, w.Offset)
					}
					if !bytes.Equal(got[i].enc, encodeLegacy(t, w.Trace)) {
						t.Errorf("%s cs=%d ws=%d window %d: bytes differ from WindowSlices", name, chunkSize, winSize, i)
					}
				}
			}
		}
	}
}

// TestMemReaderMatchesReader: the in-memory adapter and the chunked
// file reader must stream identical windows — they are interchangeable
// behind rvpredict's TraceReader.
func TestMemReaderMatchesReader(t *testing.T) {
	tr := testTraces(t)["workload"]
	mem := tracev2.FromTrace(tr)
	r := chunkedReader(t, tr, 64)
	if mem.ContentHash() != r.ContentHash() {
		t.Fatal("ContentHash differs between MemReader and Reader")
	}
	if mem.Stats() != r.Stats() {
		t.Fatal("Stats differ between MemReader and Reader")
	}
	for _, winSize := range []int{0, 100} {
		var a, b [][]byte
		if err := mem.Windows(winSize, func(w *trace.Trace, _, _ int) error {
			a = append(a, encodeLegacy(t, w))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := r.Windows(winSize, func(w *trace.Trace, _, _ int) error {
			b = append(b, encodeLegacy(t, w))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("ws=%d: %d vs %d windows", winSize, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("ws=%d window %d differs", winSize, i)
			}
		}
	}
}

// TestConvertMatchesWriteTrace: streaming a legacy file through Convert
// must produce byte-identical output to WriteTrace over the decoded
// trace — one chunked encoding, whichever path produced it.
func TestConvertMatchesWriteTrace(t *testing.T) {
	for name, tr := range testTraces(t) {
		legacy := encodeLegacy(t, tr)
		var converted bytes.Buffer
		stats, err := tracev2.Convert(&converted, bytes.NewReader(legacy), 64)
		if err != nil {
			t.Fatalf("%s: Convert: %v", name, err)
		}
		var direct bytes.Buffer
		if err := tracev2.WriteTrace(&direct, tr, 64); err != nil {
			t.Fatalf("%s: WriteTrace: %v", name, err)
		}
		if !bytes.Equal(converted.Bytes(), direct.Bytes()) {
			t.Errorf("%s: Convert and WriteTrace disagree", name)
		}
		if stats != tr.ComputeStats() {
			t.Errorf("%s: Convert stats = %+v, want %+v", name, stats, tr.ComputeStats())
		}
	}
}

func TestOpenMmap(t *testing.T) {
	tr := testTraces(t)["workload"]
	path := filepath.Join(t.TempDir(), "t.rvc2")
	var buf bytes.Buffer
	if err := tracev2.WriteTrace(&buf, tr, 64); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := tracev2.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(encodeLegacy(t, got), encodeLegacy(t, tr)) {
		t.Error("mmapped read differs from original")
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestDumpMatchesTracefileDump(t *testing.T) {
	tr := testTraces(t)["metadata"]
	r := chunkedReader(t, tr, 2)
	var want, got bytes.Buffer
	if err := tracefile.Dump(&want, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracev2.Dump(&got, r); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("dump differs:\nlegacy:\n%s\nchunked:\n%s", want.String(), got.String())
	}
}
