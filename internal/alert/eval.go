package alert

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"grade10/internal/core"
	"grade10/internal/explain"
	"grade10/internal/profstore"
)

// Obs is one evaluation tick's input. Everything in it is derived from the
// characterized run's virtual time and deterministic pipeline output — no
// wall clock — so evaluation is byte-identical at every -parallelism.
type Obs struct {
	// Tick is the strictly increasing evaluation index (window index for
	// window observations, ingest sequence for record observations).
	Tick int
	// TimeNS is the virtual instant of the tick: the window end, or the
	// run's makespan for record observations.
	TimeNS int64
	// Record marks a run-complete observation (archive ingest or batch
	// post-run) — the only tick kind baseline conditions evaluate on.
	Record bool
	// Run annotates the observation with a run name in fleet mode. It is an
	// annotation, not an identity label: successive runs evaluate the same
	// alert instances, so a regression introduced by one run resolves when a
	// later run comes in clean.
	Run string
	// Scalars and Keyed carry the threshold-rule metrics present at this
	// tick; a rule whose metric is absent is simply not evaluated.
	Scalars map[string]float64
	Keyed   map[string]map[string]float64
	// Cells carry the baseline-comparable record cells (record ticks only).
	Cells []CellValue
}

// ObsFromRecord builds a record observation from an archived run summary.
func ObsFromRecord(rec *profstore.Record, run string) Obs {
	o := Obs{
		TimeNS: rec.MakespanNS,
		Record: true,
		Run:    run,
		Scalars: map[string]float64{
			"makespan_seconds":       float64(rec.MakespanNS) / 1e9,
			"stragglers":             float64(rec.Stragglers),
			"underutilized_fraction": rec.UnderutilizedFraction,
		},
		Cells: recordCells(rec),
	}
	util := make(map[string]float64, len(rec.Resources))
	for _, rs := range rec.Resources {
		util[rs.Key] = rs.AvgUtilization
	}
	if len(util) > 0 {
		o.Keyed = map[string]map[string]float64{"utilization": util}
	}
	return o
}

// Instance is one deduplicated alert series: the lifecycle state of one rule
// over one target.
type Instance struct {
	Fingerprint string            `json:"fingerprint"`
	Rule        string            `json:"rule"`
	Severity    Severity          `json:"severity"`
	Expr        string            `json:"expr"`
	Labels      map[string]string `json:"labels,omitempty"`
	State       State             `json:"state"`
	// SinceNS is the virtual instant the instance entered its current state.
	SinceNS int64 `json:"since_ns"`
	// Value and Threshold are the last evaluated observation and the bound
	// it was compared against (for baseline rules, median·(1+pct/100)).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Baseline carries the learned statistic behind a baseline rule.
	Baseline *Stat `json:"baseline,omitempty"`
	// ExplainQuery is the explain query evidencing the alert, paste-able
	// into `grade10 -explain` or GET /explain?q=.
	ExplainQuery string `json:"explain_query,omitempty"`
	// Run is the last run evaluated against this instance (fleet mode).
	Run string `json:"run,omitempty"`

	streak int
}

// Event is one lifecycle transition, the unit of the history ring, the SSE
// alert frame, and the webhook payload.
type Event struct {
	Tick         int               `json:"tick"`
	TimeNS       int64             `json:"time_ns"`
	Fingerprint  string            `json:"fingerprint"`
	Rule         string            `json:"rule"`
	Severity     Severity          `json:"severity"`
	From         State             `json:"from"`
	To           State             `json:"to"`
	Value        float64           `json:"value"`
	Threshold    float64           `json:"threshold"`
	Labels       map[string]string `json:"labels,omitempty"`
	ExplainQuery string            `json:"explain_query,omitempty"`
	Run          string            `json:"run,omitempty"`
}

// MADGuard suppresses baseline alerts within MADGuard·MAD of the median, so
// a noisy cell needs a genuinely unusual value, not just pct drift.
const MADGuard = 3

// maxHistory bounds the transition-event ring.
const maxHistory = 256

// Evaluator applies a rule set to a stream of observations and maintains the
// alert lifecycle. Safe for concurrent use; evaluation is serialized.
type Evaluator struct {
	rules []Rule
	base  *Baselines

	mu          sync.Mutex
	insts       map[string]*Instance
	order       []string // fingerprints in first-seen order
	history     []Event
	eventsTotal int64
	lastTick    int
	ticks       int64
}

// NewEvaluator builds an evaluator over the given rules and learned
// baselines (nil baselines: baseline rules never fire).
func NewEvaluator(rules []Rule, base *Baselines) *Evaluator {
	return &Evaluator{rules: rules, base: base, insts: map[string]*Instance{}}
}

// Rules returns the loaded rules in evaluation order.
func (e *Evaluator) Rules() []Rule { return e.rules }

// Eval applies every rule to one observation, in rule order, and returns the
// lifecycle transitions it caused (nil when nothing changed).
func (e *Evaluator) Eval(o Obs) []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	e.lastTick = o.Tick
	var events []Event
	for _, rule := range e.rules {
		var ev *Event
		switch c := rule.Cond.(type) {
		case ThresholdCond:
			ev = e.evalThresholdLocked(rule, c, o)
		case BaselineCond:
			ev = e.evalBaselineLocked(rule, c, o)
		}
		if ev != nil {
			events = append(events, *ev)
		}
	}
	for _, ev := range events {
		e.history = append(e.history, ev)
		e.eventsTotal++
	}
	if over := len(e.history) - maxHistory; over > 0 {
		e.history = append([]Event(nil), e.history[over:]...)
	}
	return events
}

// EvalRecord evaluates one archived run summary (the archive-ingest and
// batch post-run hook). The tick continues the evaluator's sequence.
func (e *Evaluator) EvalRecord(rec *profstore.Record, run string) []Event {
	e.mu.Lock()
	tick := e.lastTick + 1
	e.mu.Unlock()
	o := ObsFromRecord(rec, run)
	o.Tick = tick
	return e.Eval(o)
}

func (e *Evaluator) evalThresholdLocked(rule Rule, c ThresholdCond, o Obs) *Event {
	var v float64
	var present bool
	if c.Key == "" {
		v, present = o.Scalars[c.Metric]
	} else if m := o.Keyed[c.Metric]; m != nil {
		v, present = m[c.Key]
	}
	if !present {
		return nil
	}
	labels := map[string]string{}
	explainQ := ""
	if c.Key != "" {
		labels["instance"] = c.Key
		explainQ = keyExplainQuery(c.Metric, c.Key)
	}
	return e.transitionLocked(rule, labels, o, c.holds(v), v, c.Value, nil, explainQ)
}

func (e *Evaluator) evalBaselineLocked(rule Rule, c BaselineCond, o Obs) *Event {
	if !o.Record {
		return nil
	}
	k := Key{Quantity: c.Quantity, PhasePath: c.PhasePath, Machine: -1, Resource: c.Resource}
	if c.HasMachine {
		k.Machine = c.Machine
	}
	stat, ok := e.base.Lookup(k)
	if !ok {
		return nil
	}
	v := 0.0
	for _, cell := range o.Cells {
		if cell.Key == k {
			v = cell.Value
			break
		}
	}
	threshold := stat.Median * (1 + c.Pct/100)
	// A zero-median baseline means the cell never carried weight before: any
	// positive value is an unbounded regression.
	holds := v > threshold && v-stat.Median > MADGuard*stat.MAD
	if stat.Median <= 0 {
		holds = v > 0
	}
	labels := map[string]string{"phase": c.PhasePath, "quantity": c.Quantity}
	if c.HasMachine {
		labels["machine"] = strconv.Itoa(c.Machine)
	}
	if c.Resource != "" {
		labels["resource"] = c.Resource
	}
	st := stat
	return e.transitionLocked(rule, labels, o, holds, v, threshold, &st, baselineExplainQuery(c))
}

// transitionLocked advances one instance's state machine and returns the
// transition event, or nil when the state did not change.
func (e *Evaluator) transitionLocked(rule Rule, labels map[string]string, o Obs,
	holds bool, value, threshold float64, stat *Stat, explainQ string) *Event {
	fp := fingerprint(rule.Name, labels)
	inst := e.insts[fp]
	if inst == nil {
		if !holds {
			return nil // never seen and clean: no instance to track
		}
		inst = &Instance{
			Fingerprint: fp, Rule: rule.Name, Severity: rule.Severity,
			Expr: rule.Cond.render(), Labels: labels, State: StateInactive,
		}
		e.insts[fp] = inst
		e.order = append(e.order, fp)
	}
	inst.Value, inst.Threshold, inst.Baseline, inst.Run = value, threshold, stat, o.Run
	if explainQ != "" {
		inst.ExplainQuery = explainQ
	}

	from := inst.State
	to := from
	if holds {
		inst.streak++
		if inst.streak >= rule.For {
			to = StateFiring
		} else if from != StateFiring {
			to = StatePending
		}
	} else {
		inst.streak = 0
		switch from {
		case StatePending:
			to = StateInactive
		case StateFiring:
			to = StateResolved
		}
	}
	if to == from {
		return nil
	}
	inst.State, inst.SinceNS = to, o.TimeNS
	return &Event{
		Tick: o.Tick, TimeNS: o.TimeNS, Fingerprint: fp, Rule: rule.Name,
		Severity: rule.Severity, From: from, To: to, Value: value,
		Threshold: threshold, Labels: labels, ExplainQuery: inst.ExplainQuery,
		Run: o.Run,
	}
}

// keyExplainQuery renders the explain query evidencing a keyed threshold
// alert from its instance key ("cpu@0" → "machine=0 resource=cpu"); a bare
// resource name (bottleneck_seconds) or a global instance names no machine.
func keyExplainQuery(metric, key string) string {
	if metric != "utilization" && metric != "saturated_slices" && metric != "bottleneck_seconds" {
		return ""
	}
	q := explain.Query{Resource: key}
	if res, m, ok := core.ParseInstanceKey(key); ok {
		q = explain.Query{Resource: res, Machine: m, HasMachine: m != core.GlobalMachine}
	}
	return q.String()
}

// baselineExplainQuery renders the explain query evidencing a baseline alert.
func baselineExplainQuery(c BaselineCond) string {
	return explain.Query{Phase: c.PhasePath, Machine: c.Machine, HasMachine: c.HasMachine,
		Resource: c.Resource}.String()
}

// Snapshot is the full /alerts view: loaded rules, lifecycle instances, and
// the bounded transition history.
type Snapshot struct {
	Rules        []RuleInfo `json:"rules"`
	BaselineRuns int        `json:"baseline_runs"`
	BaselineKeys int        `json:"baseline_keys"`
	Firing       int        `json:"firing"`
	Pending      int        `json:"pending"`
	Resolved     int        `json:"resolved"`
	Instances    []Instance `json:"instances"`
	History      []Event    `json:"history"`
	EventsTotal  int64      `json:"events_total"`
	LastTick     int        `json:"last_tick"`
	Ticks        int64      `json:"ticks"`
}

// Snapshot captures the evaluator state. Instances sort firing first, then
// pending, then resolved, then by rule and fingerprint — stable across
// snapshots of the same state.
func (e *Evaluator) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := Snapshot{
		BaselineRuns: e.base.Runs(),
		BaselineKeys: e.base.Len(),
		History:      append([]Event(nil), e.history...),
		EventsTotal:  e.eventsTotal,
		LastTick:     e.lastTick,
		Ticks:        e.ticks,
	}
	for _, r := range e.rules {
		snap.Rules = append(snap.Rules, RuleInfo{
			Name: r.Name, Severity: r.Severity, For: r.For, Expr: r.Cond.render(),
		})
	}
	for _, fp := range e.order {
		inst := *e.insts[fp]
		if inst.State == StateInactive {
			continue
		}
		switch inst.State {
		case StateFiring:
			snap.Firing++
		case StatePending:
			snap.Pending++
		case StateResolved:
			snap.Resolved++
		}
		snap.Instances = append(snap.Instances, inst)
	}
	sort.SliceStable(snap.Instances, func(i, j int) bool {
		a, b := snap.Instances[i], snap.Instances[j]
		if a.State.rank() != b.State.rank() {
			return a.State.rank() < b.State.rank()
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Fingerprint < b.Fingerprint
	})
	return snap
}

// FiringCount returns the number of instances currently firing (the
// grade10_alerts_firing gauge).
func (e *Evaluator) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, inst := range e.insts {
		if inst.State == StateFiring {
			n++
		}
	}
	return n
}

// EventsTotal returns the lifetime transition count.
func (e *Evaluator) EventsTotal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.eventsTotal
}

// WriteText renders a snapshot as the CLI alert report.
func WriteText(w io.Writer, snap Snapshot) {
	fmt.Fprintf(w, "alerts: %d firing, %d pending, %d resolved (%d rules, baselines from %d runs / %d cells)\n",
		snap.Firing, snap.Pending, snap.Resolved, len(snap.Rules), snap.BaselineRuns, snap.BaselineKeys)
	for _, inst := range snap.Instances {
		fmt.Fprintf(w, "  [%s] %s (%s) %s: value %.6g vs threshold %.6g",
			strings.ToUpper(string(inst.State)), inst.Rule, inst.Severity, inst.Expr,
			inst.Value, inst.Threshold)
		if inst.Baseline != nil {
			fmt.Fprintf(w, " (baseline median %.6g mad %.6g ewma %.6g n=%d)",
				inst.Baseline.Median, inst.Baseline.MAD, inst.Baseline.EWMA, inst.Baseline.N)
		}
		fmt.Fprintln(w)
		if inst.ExplainQuery != "" {
			fmt.Fprintf(w, "      evidence: -explain '%s'\n", inst.ExplainQuery)
		}
	}
}
