package introspect

import (
	"os"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestMetricsDocumented is the drift guard for the metrics reference
// table in doc/observability.md: every family MetricNames() exports must
// appear in the doc (as `rvpredict_...` in a table row), so adding a
// metric without documenting it fails CI. Likewise every phase label of
// rvpredict_phase_seconds_total must have its `<phase>_ns` row in the
// phase table. The reverse direction — documented names that no longer
// exist — is checked too, so renames cannot leave stale rows behind.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../doc/observability.md")
	if err != nil {
		t.Fatalf("doc/observability.md unreadable: %v", err)
	}
	text := string(doc)

	names := MetricNames()
	if len(names) == 0 {
		t.Fatal("MetricNames returned nothing")
	}
	known := make(map[string]bool, len(names))
	for _, name := range names {
		known[name] = true
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("metric %s is exported by /metrics but missing from doc/observability.md", name)
		}
	}

	// Every phase label of rvpredict_phase_seconds_total must have its
	// `<phase>_ns` row in the doc's phase table.
	phases := 0
	for _, def := range metricDefs {
		if def.name != "rvpredict_phase_seconds_total" {
			continue
		}
		for _, smp := range def.collect(nil, &telemetry.Metrics{}) {
			phases++
			phase := strings.TrimSuffix(strings.TrimPrefix(smp.labels, `{phase="`), `"}`)
			if !strings.Contains(text, "`"+phase+"_ns`") {
				t.Errorf("phase %s is exported by /metrics but missing from the doc/observability.md phase table", phase)
			}
		}
	}
	if phases == 0 {
		t.Error("rvpredict_phase_seconds_total exported no phase samples")
	}

	// Scan the doc for rvpredict_-prefixed code spans and flag any that
	// /metrics no longer exports.
	for _, line := range strings.Split(text, "\n") {
		for {
			i := strings.Index(line, "`rvpredict_")
			if i < 0 {
				break
			}
			rest := line[i+1:]
			j := strings.IndexByte(rest, '`')
			if j < 0 {
				break
			}
			name := rest[:j]
			line = rest[j+1:]
			// Only metric families end in _total, _seconds_total, _info,
			// _in_flight or _queued; other rvpredict_ spans in the doc
			// (CLI flags, JSON paths) don't match these suffixes.
			if !known[name] &&
				(strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_info") ||
					strings.HasSuffix(name, "_in_flight") || strings.HasSuffix(name, "_queued") ||
					strings.HasSuffix(name, "_seconds")) {
				t.Errorf("doc/observability.md documents %s, which /metrics does not export", name)
			}
		}
	}
}
