package profdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"grade10/internal/vtime"
)

// WriteJSON renders the report as indented JSON with a trailing newline.
// The encoding is stable: struct field order plus pre-sorted slices.
func WriteJSON(w io.Writer, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText renders the ranked human-readable delta report.
func WriteText(w io.Writer, rep *Report) error {
	var b strings.Builder

	fmt.Fprintf(&b, "profile diff: %s -> %s\n", describeRun(rep.A), describeRun(rep.B))
	fmt.Fprintf(&b, "verdict: %s  (makespan %s -> %s, %s, %s; thresholds ±%.0f%%)\n",
		strings.ToUpper(string(rep.Verdict)),
		vtime.Duration(rep.A.MakespanNS), vtime.Duration(rep.B.MakespanNS),
		signedDur(rep.MakespanDeltaNS), signedPct(rep.MakespanRelChange),
		rep.RegressThreshold*100)
	for _, n := range rep.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if rep.TopRegression != nil {
		writeLocalization(&b, "top regression", rep.TopRegression)
	}
	if rep.TopImprovement != nil {
		writeLocalization(&b, "top improvement", rep.TopImprovement)
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintf(&b, "\nphases (by |delta|):\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  status\tphase type\tmachine\ta\tb\tdelta\trel\n")
		for _, d := range rep.Phases {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				d.Status, d.TypePath, machineLabel(d.Machine),
				vtime.Duration(d.ATotalNS), vtime.Duration(d.BTotalNS),
				signedDur(d.DeltaNS), signedPct(d.RelChange))
		}
		tw.Flush()
		if rep.PhasesOmitted > 0 {
			fmt.Fprintf(&b, "  (%d rows under the noise floor omitted)\n", rep.PhasesOmitted)
		}
	}

	if len(rep.Bottlenecks) > 0 {
		fmt.Fprintf(&b, "\nbottlenecks:\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  status\tphase type\tresource\tkind\ta\tb\tdelta\n")
		for _, d := range rep.Bottlenecks {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				d.Status, d.TypePath, d.Resource, d.Kind,
				vtime.Duration(d.ATotalNS), vtime.Duration(d.BTotalNS),
				signedDur(d.DeltaNS))
		}
		tw.Flush()
		fmt.Fprintf(&b, "  evidence pointers (paste into grade10 -explain '...' on either run):\n")
		for _, d := range rep.Bottlenecks {
			fmt.Fprintf(&b, "    %s\n", d.ExplainQuery)
		}
	}

	if len(rep.Issues) > 0 {
		fmt.Fprintf(&b, "\nissues (estimated impact):\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  status\tkind\ttarget\ta\tb\tdelta\n")
		for _, d := range rep.Issues {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%.1f%%\t%.1f%%\t%s\n",
				d.Status, d.Kind, d.Target,
				d.AImpact*100, d.BImpact*100, signedPct(d.DeltaImpact))
		}
		tw.Flush()
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func writeLocalization(b *strings.Builder, title string, l *Localization) {
	fmt.Fprintf(b, "%s: %s × %s on %s (%s, %s)\n", title,
		l.TypePath, l.Resource, machineLabel(l.Machine),
		signedDur(l.DeltaNS), signedPct(l.RelChange))
	fmt.Fprintf(b, "  evidence: blocked %+.3fs, bottleneck %+.3fs, attributed %+.3f capacity·s\n",
		l.BlockedDeltaSeconds, l.BottleneckDeltaSeconds, l.AttributedDeltaCapSec)
	if l.ExplainQuery != "" {
		fmt.Fprintf(b, "  explain: %s\n", l.ExplainQuery)
	}
}

func describeRun(r RunRef) string {
	s := r.ID
	if r.Label != "" {
		s += " (" + r.Label + ")"
	}
	return s
}

func machineLabel(m int) string {
	if m < 0 {
		return "-"
	}
	return fmt.Sprintf("m%d", m)
}

func signedDur(ns int64) string {
	if ns < 0 {
		return "-" + vtime.Duration(-ns).String()
	}
	return "+" + vtime.Duration(ns).String()
}

func signedPct(rel float64) string {
	return fmt.Sprintf("%+.1f%%", rel*100)
}
