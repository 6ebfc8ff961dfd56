package alert

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// parseOne parses a one-rule file through ParseRules, the path LoadRules
// takes.
func parseOne(text string) (Rule, error) {
	rules, err := ParseRules(strings.NewReader(text))
	if err != nil {
		return Rule{}, err
	}
	if len(rules) != 1 {
		return Rule{}, fmt.Errorf("%d rules in %q, want 1", len(rules), text)
	}
	return rules[0], nil
}

func TestParseRuleForms(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{
			in: "alert lag when lag_seconds > 2.5",
			want: Rule{Name: "lag", Severity: SeverityWarning, For: 1,
				Cond: ThresholdCond{Metric: "lag_seconds", Op: ">", Value: 2.5}},
		},
		{
			in: "alert hot-cpu severity critical when utilization[cpu@0] >= 0.95 for 3 windows",
			want: Rule{Name: "hot-cpu", Severity: SeverityCritical, For: 3,
				Cond: ThresholdCond{Metric: "utilization", Key: "cpu@0", Op: ">=", Value: 0.95}},
		},
		{
			in: "alert low-cov severity info when coverage < 0.5 for 2 windows",
			want: Rule{Name: "low-cov", Severity: SeverityInfo, For: 2,
				Cond: ThresholdCond{Metric: "coverage", Op: "<", Value: 0.5}},
		},
		{
			// No explicit quantity: resource without machine defaults to attributed.
			in: "alert regress when phase=/a/b resource=cpu regressed > 10% vs baseline",
			want: Rule{Name: "regress", Severity: SeverityWarning, For: 1,
				Cond: BaselineCond{PhasePath: "/a/b", Machine: -1, Resource: "cpu",
					Quantity: QuantityAttributed, Pct: 10}},
		},
		{
			// No resource defaults to duration.
			in: "alert slow severity critical when phase=/a/b duration regressed > 25% vs baseline for 2 windows",
			want: Rule{Name: "slow", Severity: SeverityCritical, For: 2,
				Cond: BaselineCond{PhasePath: "/a/b", Machine: -1,
					Quantity: QuantityDuration, Pct: 25}},
		},
		{
			// Machine + resource defaults to blocked.
			in: "alert blk when phase=/a/b machine=1 resource=net-in regressed > 50% vs baseline",
			want: Rule{Name: "blk", Severity: SeverityWarning, For: 1,
				Cond: BaselineCond{PhasePath: "/a/b", Machine: 1, HasMachine: true,
					Resource: "net-in", Quantity: QuantityBlocked, Pct: 50}},
		},
		{
			in: "alert btl when phase=/a/b resource=cpu bottleneck regressed > 30% vs baseline",
			want: Rule{Name: "btl", Severity: SeverityWarning, For: 1,
				Cond: BaselineCond{PhasePath: "/a/b", Machine: -1, Resource: "cpu",
					Quantity: QuantityBottleneck, Pct: 30}},
		},
	}
	for _, tc := range cases {
		got, err := parseOne(tc.in)
		if err != nil {
			t.Fatalf("parseOne(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("parseOne(%q)\n got %+v\nwant %+v", tc.in, got, tc.want)
		}
		// Canonical round-trip: rendering and reparsing is a fixed point.
		re, err := parseOne(got.String())
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", got.String(), tc.in, err)
		}
		if re.String() != got.String() {
			t.Errorf("round-trip of %q: %q != %q", tc.in, re.String(), got.String())
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"rule x when coverage < 1", `must start with "alert"`},
		{"alert", "missing rule name"},
		{"alert bad/name when coverage < 1", "invalid rule name"},
		{"alert x severity loud when coverage < 1", "unknown severity"},
		{"alert x coverage < 1", `expected "when"`},
		{"alert x when", "missing condition"},
		{"alert x when bogus_metric > 1", "unknown metric"},
		{"alert x when coverage[cpu@0] > 1", "does not take an instance selector"},
		{"alert x when utilization > 1", "needs an instance selector"},
		{"alert x when coverage ~ 1", "unknown comparison"},
		{"alert x when coverage > pizza", "invalid threshold"},
		{"alert x when coverage > NaN", "invalid threshold"},
		{"alert x when coverage > 1 for 0 windows", "invalid window count"},
		{"alert x when resource=cpu regressed > 10% vs baseline", `needs a "phase=" selector`},
		{"alert x when phase=relative resource=cpu regressed > 10% vs baseline", "invalid phase path"},
		{"alert x when phase=/a machine=-2 resource=cpu regressed > 10% vs baseline", "invalid machine"},
		{"alert x when phase=/a resource=cpu duration regressed > 10% vs baseline", "no resource dimension"},
		{"alert x when phase=/a blocked regressed > 10% vs baseline", `need a "resource=" selector`},
		{"alert x when phase=/a machine=0 resource=cpu attributed regressed > 10% vs baseline", "aggregate over machines"},
		{"alert x when phase=/a resource=cpu regressed > 10 vs baseline", "must end with"},
		{"alert x when phase=/a resource=cpu regressed > -5% vs baseline", "invalid regression percentage"},
	}
	for _, tc := range cases {
		_, err := parseOne(tc.in)
		if err == nil {
			t.Errorf("parseOne(%q): wanted error containing %q, got nil", tc.in, tc.wantSub)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("parseOne(%q): error %T is not *ParseError", tc.in, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("parseOne(%q): error %q does not contain %q", tc.in, err, tc.wantSub)
		}
	}
}

func TestParseRulesFile(t *testing.T) {
	src := `
# Comment lines and blanks are ignored.
alert a when coverage < 0.5

alert b severity critical when parse_errors > 0 for 2 windows
`
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	if len(rules) != 2 || rules[0].Name != "a" || rules[1].Name != "b" {
		t.Fatalf("rules = %+v", rules)
	}

	// Comment and blank lines still count toward the line numbers errors
	// report.
	_, err = ParseRules(strings.NewReader(src + "alert a when events > 0\n"))
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "duplicate rule name") {
		t.Fatalf("duplicate names: err = %v, want duplicate-name *ParseError", err)
	}
	if pe.Line != 6 || !strings.Contains(pe.Msg, "first defined on line 3") {
		t.Errorf("duplicate error line = %d (%q), want 6, first defined on line 3", pe.Line, pe.Msg)
	}
}

// TestParseRulesLongLine: a line over the scanner's 64 KiB limit is a
// *ParseError naming that line, like every other rules-file error.
func TestParseRulesLongLine(t *testing.T) {
	text := "alert a when coverage < 1\nalert " + strings.Repeat("x", 64<<10) + " when events > 0\n"
	_, err := ParseRules(strings.NewReader(text))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("over-long line: err = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("over-long line error line = %d, want 2", pe.Line)
	}
}

func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"alert lag when lag_seconds > 2.5",
		"alert hot severity critical when utilization[cpu@0] >= 0.95 for 3 windows",
		"alert r when phase=/a/b resource=cpu regressed > 10% vs baseline",
		"alert d when phase=/a/b duration regressed > 25% vs baseline for 2 windows",
		"alert b when phase=/a machine=1 resource=net-in blocked regressed > 50% vs baseline",
		"alert x when coverage <",
		"alert [ when ] > 1",
		"# comment",
		"",
		"alert x when phase=/ regressed > 1e309% vs baseline",
		"alert a when coverage < 1\n# two rules\nalert b when events > 0 for 2 windows\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseRules(strings.NewReader(text))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseRules(%q): non-typed error %T: %v", text, err, err)
			}
			return
		}
		// Every accepted rule must render canonically and reparse to a fixed
		// point.
		for _, rule := range rules {
			canon := rule.String()
			re, err := parseOne(canon)
			if err != nil {
				t.Fatalf("canonical %q (from %q) does not reparse: %v", canon, text, err)
			}
			if re.String() != canon {
				t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, re.String())
			}
			if rule.For < 1 {
				t.Fatalf("parsed For = %d < 1 from %q", rule.For, text)
			}
		}
	})
}
