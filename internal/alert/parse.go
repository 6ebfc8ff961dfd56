package alert

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ParseError is a typed rules-file syntax error with its source position.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("alert: rules line %d: %s", e.Line, e.Msg)
	}
	return "alert: " + e.Msg
}

// scalarMetrics are the keyless observation metrics a threshold rule may
// reference. Window observations carry the engine counters; record
// observations carry the run-level summary scalars.
var scalarMetrics = map[string]bool{
	"coverage":               true,
	"lag_seconds":            true,
	"parse_errors":           true,
	"truncated_lines":        true,
	"invalid_events":         true,
	"late_events":            true,
	"invalid_samples":        true,
	"gaps_filled":            true,
	"ignored_samples":        true,
	"forced_closures":        true,
	"events":                 true,
	"samples":                true,
	"windows_flushed":        true,
	"open_phases":            true,
	"makespan_seconds":       true,
	"stragglers":             true,
	"underutilized_fraction": true,
}

// keyedMetrics require an instance selector: "utilization[cpu@0]".
var keyedMetrics = map[string]bool{
	"utilization":        true,
	"saturated_slices":   true,
	"bottleneck_seconds": true,
}

// LoadRules parses the rules file at path; errors name the file.
func LoadRules(path string) ([]Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, err := ParseRules(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

// ParseRules reads a rules file: one rule per line, blank lines and
// #-comments ignored. Rule names must be unique. Returns the rules in file
// order (the deterministic evaluation order) or a *ParseError.
func ParseRules(r io.Reader) ([]Rule, error) {
	var rules []Rule
	seen := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rule, err := parseRuleLine(text, line)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[rule.Name]; dup {
			return nil, &ParseError{Line: line,
				Msg: fmt.Sprintf("duplicate rule name %q (first defined on line %d)", rule.Name, prev)}
		}
		seen[rule.Name] = line
		rules = append(rules, rule)
	}
	if err := sc.Err(); err != nil {
		// The line the scanner could not return, e.g. one over 64 KiB.
		return nil, &ParseError{Line: line + 1, Msg: err.Error()}
	}
	return rules, nil
}

func parseRuleLine(text string, line int) (Rule, error) {
	fail := func(format string, args ...any) (Rule, error) {
		return Rule{}, &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	toks := strings.Fields(text)
	if len(toks) == 0 {
		return fail("empty rule")
	}
	if toks[0] != "alert" {
		return fail("rule must start with %q, got %q", "alert", toks[0])
	}
	if len(toks) < 2 {
		return fail("missing rule name after %q", "alert")
	}
	rule := Rule{Name: toks[1], Severity: SeverityWarning, For: 1}
	if !validName(rule.Name) {
		return fail("invalid rule name %q (want letters, digits, and [_:.-])", rule.Name)
	}
	toks = toks[2:]

	if len(toks) >= 2 && toks[0] == "severity" {
		switch Severity(toks[1]) {
		case SeverityInfo, SeverityWarning, SeverityCritical:
			rule.Severity = Severity(toks[1])
		default:
			return fail("unknown severity %q (want info, warning, or critical)", toks[1])
		}
		toks = toks[2:]
	}
	if len(toks) == 0 || toks[0] != "when" {
		return fail("expected %q before the condition", "when")
	}
	toks = toks[1:]

	// Optional trailing "for N windows" clause.
	if n := len(toks); n >= 3 && toks[n-3] == "for" && toks[n-1] == "windows" {
		k, err := strconv.Atoi(toks[n-2])
		if err != nil || k < 1 {
			return fail("invalid window count %q in %q clause (want an integer >= 1)", toks[n-2], "for")
		}
		rule.For = k
		toks = toks[:n-3]
	}
	if len(toks) == 0 {
		return fail("missing condition after %q", "when")
	}

	var err error
	if strings.HasPrefix(toks[0], "phase=") || strings.HasPrefix(toks[0], "machine=") ||
		strings.HasPrefix(toks[0], "resource=") {
		rule.Cond, err = parseBaselineCond(toks, line)
	} else {
		rule.Cond, err = parseThresholdCond(toks, line)
	}
	if err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func parseThresholdCond(toks []string, line int) (Cond, error) {
	fail := func(format string, args ...any) (Cond, error) {
		return nil, &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	if len(toks) != 3 {
		return fail("threshold condition must be %q, got %q",
			"<metric> <op> <number>", strings.Join(toks, " "))
	}
	c := ThresholdCond{Metric: toks[0], Op: toks[1]}
	if i := strings.IndexByte(c.Metric, '['); i >= 0 {
		if !strings.HasSuffix(c.Metric, "]") || i+1 >= len(c.Metric)-1 {
			return fail("malformed instance selector in %q (want %q)", toks[0], "metric[key]")
		}
		c.Key = c.Metric[i+1 : len(c.Metric)-1]
		c.Metric = c.Metric[:i]
	}
	switch {
	case keyedMetrics[c.Metric]:
		if c.Key == "" {
			return fail("metric %q needs an instance selector, e.g. %q", c.Metric, c.Metric+"[cpu@0]")
		}
	case scalarMetrics[c.Metric]:
		if c.Key != "" {
			return fail("metric %q does not take an instance selector", c.Metric)
		}
	default:
		return fail("unknown metric %q", c.Metric)
	}
	switch c.Op {
	case ">", "<", ">=", "<=":
	default:
		return fail("unknown comparison %q (want >, <, >=, or <=)", c.Op)
	}
	v, err := parseNumber(toks[2])
	if err != nil {
		return fail("invalid threshold %q: %v", toks[2], err)
	}
	c.Value = v
	return c, nil
}

func parseBaselineCond(toks []string, line int) (Cond, error) {
	fail := func(format string, args ...any) (Cond, error) {
		return nil, &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	c := BaselineCond{Machine: -1}
	i := 0
	for ; i < len(toks); i++ {
		t := toks[i]
		switch {
		case strings.HasPrefix(t, "phase="):
			if c.PhasePath != "" {
				return fail("duplicate %q selector", "phase=")
			}
			c.PhasePath = t[len("phase="):]
			if c.PhasePath == "" || !strings.HasPrefix(c.PhasePath, "/") {
				return fail("invalid phase path %q (want an absolute /type/path)", c.PhasePath)
			}
		case strings.HasPrefix(t, "machine="):
			m, err := strconv.Atoi(t[len("machine="):])
			if err != nil || m < 0 {
				return fail("invalid machine %q (want an integer >= 0)", t[len("machine="):])
			}
			c.Machine, c.HasMachine = m, true
		case strings.HasPrefix(t, "resource="):
			c.Resource = t[len("resource="):]
			if c.Resource == "" {
				return fail("empty %q selector", "resource=")
			}
		default:
			goto selectorsDone
		}
	}
selectorsDone:
	if c.PhasePath == "" {
		return fail("baseline condition needs a %q selector", "phase=")
	}
	// Optional quantity; the default follows from the selectors given.
	c.Quantity = QuantityDuration
	if c.Resource != "" {
		c.Quantity = QuantityAttributed
		if c.HasMachine {
			c.Quantity = QuantityBlocked
		}
	}
	if i < len(toks) {
		switch toks[i] {
		case QuantityDuration, QuantityBlocked, QuantityAttributed, QuantityBottleneck:
			c.Quantity = toks[i]
			i++
		}
	}
	switch c.Quantity {
	case QuantityDuration:
		if c.Resource != "" {
			return fail("%s baselines have no resource dimension; drop %q", c.Quantity, "resource=")
		}
	case QuantityBlocked:
		if c.Resource == "" {
			return fail("%s baselines need a %q selector", c.Quantity, "resource=")
		}
	case QuantityAttributed, QuantityBottleneck:
		if c.Resource == "" {
			return fail("%s baselines need a %q selector", c.Quantity, "resource=")
		}
		if c.HasMachine {
			return fail("%s baselines aggregate over machines; drop %q (or use %q)",
				c.Quantity, "machine=", QuantityBlocked)
		}
	}

	rest := toks[i:]
	if len(rest) != 5 || rest[0] != "regressed" || rest[1] != ">" ||
		rest[3] != "vs" || rest[4] != "baseline" || !strings.HasSuffix(rest[2], "%") {
		return fail("baseline condition must end with %q", "regressed > <pct>% vs baseline")
	}
	pct, err := parseNumber(strings.TrimSuffix(rest[2], "%"))
	if err != nil || pct <= 0 {
		return fail("invalid regression percentage %q (want a positive number)", rest[2])
	}
	c.Pct = pct
	return c, nil
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '-' || c == ':' || c == '.':
		default:
			return false
		}
	}
	return true
}

func parseNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("must be finite")
	}
	return v, nil
}
