package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegressWatchdog validates the end-to-end regression story: injecting
// heavy background CPU noise (cluster.Noise) must flip the diff verdict to
// regressed AND the localization must name the compute leaf × cpu — the
// phase and resource the injection actually loads.
func TestRegressWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulated runs; skipped in -short")
	}
	r, err := Regress()
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Verdict != "regressed" {
		t.Errorf("verdict = %s, want regressed (makespan %+.1f%%)",
			r.Report.Verdict, r.Report.MakespanRelChange*100)
	}
	if !r.Localized {
		t.Errorf("top regression = %+v, want .../compute/thread × cpu", r.Report.TopRegression)
	}
	if r.Report.A.ID == r.Report.B.ID {
		t.Error("baseline and noisy runs share a content ID")
	}

	var buf bytes.Buffer
	PrintRegress(&buf, r)
	out := buf.String()
	for _, want := range []string{"verdict=regressed", "localized=true",
		"/compute/thread × cpu", "REGRESSED"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintRegress output missing %q", want)
		}
	}
}
