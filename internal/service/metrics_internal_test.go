package service

import (
	"bytes"
	"strings"
	"testing"

	"grade10/internal/obs"
	"grade10/internal/stream"
)

// scrapeProfile renders the live-profile families of one snapshot.
func scrapeProfile(t *testing.T, snap stream.Snapshot) string {
	t.Helper()
	reg := obs.NewRegistry()
	newProfileMetrics(reg).update(&snap, 0)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsLabelEscaping pins the exposition-format escaping contract for
// label values on the live-profile families: backslash, double quote, and
// newline must be escaped exactly once. Hostile phase and resource names
// (which ultimately come from engine logs) must not corrupt /metrics.
func TestMetricsLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"cpu@0", `instance="cpu@0"`},
		{`back\slash`, `instance="back\\slash"`},
		{`say "hi"`, `instance="say \"hi\""`},
		{"line\nbreak", `instance="line\nbreak"`},
		{"all\\three\"\nat once", `instance="all\\three\"\nat once"`},
	}
	for _, c := range cases {
		body := scrapeProfile(t, stream.Snapshot{Instances: []stream.InstanceSummary{{Key: c.in, Utilization: 0.5}}})
		if want := "grade10_resource_utilization{" + c.want + "} 0.5\n"; !strings.Contains(body, want) {
			t.Errorf("instance %q: missing %q in\n%s", c.in, want, body)
		}
	}
	// The historical bug: wrapping an escaped value with %q re-escapes the
	// backslashes. Guard against its return.
	body := scrapeProfile(t, stream.Snapshot{Bottlenecks: []stream.BottleneckSummary{
		{TypePath: "/a", Resource: `a\b`, Kind: "blocking", Seconds: 1},
	}})
	if strings.Contains(body, `\\\\`) {
		t.Errorf("label value double-escaped:\n%s", body)
	}
}

// TestMetricsHostileNames drives the bottleneck family with hostile phase
// and resource names and checks the rendered exposition lines.
func TestMetricsHostileNames(t *testing.T) {
	body := scrapeProfile(t, stream.Snapshot{Bottlenecks: []stream.BottleneckSummary{
		{TypePath: "Superstep \"0\"\nGC", Resource: `disk\scratch`, Kind: "blocking", Seconds: 1.5},
	}})
	want := "# HELP grade10_bottleneck_seconds_total Virtual seconds of detected bottleneck per phase type, resource, and kind.\n" +
		"# TYPE grade10_bottleneck_seconds_total counter\n" +
		`grade10_bottleneck_seconds_total{type_path="Superstep \"0\"\nGC",resource="disk\\scratch",kind="blocking"} 1.5` + "\n"
	if !strings.Contains(body, want) {
		t.Errorf("/metrics output:\n%s\nwant:\n%s", body, want)
	}
}
