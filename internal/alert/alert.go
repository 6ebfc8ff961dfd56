// Package alert is the deterministic alerting engine: SLO rules parsed from
// a small line-oriented language, baselines learned from the profstore
// archive with robust statistics (median/MAD, EWMA), and a full alert
// lifecycle (pending → firing → resolved) with fingerprint deduplication and
// a bounded transition history.
//
// The evaluator is driven by virtual time only — window indexes and
// virtual-nanosecond instants from the characterized run — never by the wall
// clock, so evaluating the same run produces byte-identical alert state at
// every -parallelism setting. Wall time appears only in the outbound webhook
// notifier, where the clock is injectable for tests.
//
// Rules evaluate at two kinds of tick:
//
//   - window observations, built by the stream engine on every window flush
//     (threshold conditions over live scalars and per-instance metrics);
//   - record observations, built from an archived profstore.Record on
//     archive ingest or batch post-run (threshold conditions over run-level
//     scalars plus "vs baseline" regression conditions over the
//     (phase-path × machine × resource) cells the record carries).
package alert

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Severity ranks a rule's importance.
type Severity string

const (
	SeverityInfo     Severity = "info"
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// State is one alert instance's lifecycle position. Instances are born
// pending, promote to firing after the rule's "for" count of consecutive
// true evaluations, and resolve when the condition clears. A resolved
// instance re-enters pending if its condition recurs — same fingerprint, so
// the flap is visible as one deduplicated series.
type State string

const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// rank orders states for display: firing first.
func (s State) rank() int {
	switch s {
	case StateFiring:
		return 0
	case StatePending:
		return 1
	case StateResolved:
		return 2
	}
	return 3
}

// Quantity names the baseline-comparable value of one record cell.
const (
	QuantityDuration   = "duration"   // phase seconds per (phase type, machine)
	QuantityBlocked    = "blocked"    // blocked seconds per (phase type, machine, resource)
	QuantityAttributed = "attributed" // attributed unit·seconds per (phase type, resource)
	QuantityBottleneck = "bottleneck" // bottleneck seconds per (phase type, resource)
)

// Cond is one rule condition: a threshold over an observed metric or a
// regression test against the learned baseline.
type Cond interface {
	render() string
}

// ThresholdCond compares one observed metric against a constant:
// "coverage < 0.5", "utilization[cpu@0] > 0.95".
type ThresholdCond struct {
	// Metric is the observation scalar ("coverage") or keyed family
	// ("utilization"); Key selects the instance for keyed families.
	Metric string
	Key    string
	Op     string // ">", "<", ">=", "<="
	Value  float64
}

func (c ThresholdCond) render() string {
	m := c.Metric
	if c.Key != "" {
		m += "[" + c.Key + "]"
	}
	return fmt.Sprintf("%s %s %s", m, c.Op, formatFloat(c.Value))
}

// holds reports whether the observed value satisfies the comparison.
func (c ThresholdCond) holds(v float64) bool {
	switch c.Op {
	case ">":
		return v > c.Value
	case "<":
		return v < c.Value
	case ">=":
		return v >= c.Value
	case "<=":
		return v <= c.Value
	}
	return false
}

// BaselineCond fires when a record cell exceeds its archive-learned baseline
// median by more than Pct percent (guarded by the MAD, see MADGuard):
// "phase=/x/y resource=cpu attributed regressed > 10% vs baseline".
type BaselineCond struct {
	PhasePath string
	// Machine is the cell's machine; HasMachine false means the
	// machine-aggregated cell (Machine -1).
	Machine    int
	HasMachine bool
	// Resource is empty for the duration quantity.
	Resource string
	Quantity string
	Pct      float64
}

func (c BaselineCond) render() string {
	var sb strings.Builder
	sb.WriteString("phase=" + c.PhasePath)
	if c.HasMachine {
		sb.WriteString(" machine=" + strconv.Itoa(c.Machine))
	}
	if c.Resource != "" {
		sb.WriteString(" resource=" + c.Resource)
	}
	sb.WriteString(" " + c.Quantity)
	sb.WriteString(" regressed > " + formatFloat(c.Pct) + "% vs baseline")
	return sb.String()
}

// Rule is one parsed alerting rule.
type Rule struct {
	Name     string
	Severity Severity
	// For is the number of consecutive true evaluations before the alert
	// promotes from pending to firing; minimum (and default) 1.
	For  int
	Cond Cond
	// Line is the 1-based source line in the rules file.
	Line int
}

// String renders the rule in canonical form; parsing the result yields an
// identical rule (the fuzz round-trip contract).
func (r Rule) String() string {
	s := fmt.Sprintf("alert %s severity %s when %s", r.Name, r.Severity, r.Cond.render())
	if r.For > 1 {
		s += fmt.Sprintf(" for %d windows", r.For)
	}
	return s
}

// RuleInfo is the JSON view of one loaded rule.
type RuleInfo struct {
	Name     string   `json:"name"`
	Severity Severity `json:"severity"`
	For      int      `json:"for_windows"`
	Expr     string   `json:"expr"`
}

// formatFloat renders a number the way the canonical rule text spells it.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fingerprint derives the deduplication identity of one alert instance from
// its rule name and sorted identity labels.
func fingerprint(rule string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte(rule))
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write([]byte(labels[k]))
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
