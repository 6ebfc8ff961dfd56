package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"grade10/internal/attribution"
	"grade10/internal/attribution/reference"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// maxTextCells caps the per-phase cell rows printed by WriteText; WriteJSON
// always carries the full chain.
const maxTextCells = 12

// EvalError is the typed failure of Explain: the query parsed but
// cannot be answered against this profile.
type EvalError struct {
	Reason string
}

func (e *EvalError) Error() string { return "explain: " + e.Reason }

func evalErr(format string, args ...any) error {
	return &EvalError{Reason: fmt.Sprintf(format, args...)}
}

// Derivation is the full answer to one explain query: per instance, per
// phase, the recomputed chain rule → demand → upsample → share for every
// selected cell, with the profile's own numbers alongside as a cross-check.
type Derivation struct {
	Query string `json:"query"`
	// SpanStartNS/SpanEndNS bound the explained window (clipped to the
	// profile span); Slices counts the timeslices covered.
	SpanStartNS int64 `json:"span_start_ns"`
	SpanEndNS   int64 `json:"span_end_ns"`
	Slices      int   `json:"slices"`

	Instances []*InstanceDerivation `json:"instances,omitempty"`
	Blocking  []*BlockingDerivation `json:"blocking,omitempty"`

	// AttributedUnitSeconds sums the derivation chain; ProfileUnitSeconds
	// sums the profile cells it explains. Equal (to float residue) when the
	// provenance is complete.
	AttributedUnitSeconds float64 `json:"attributed_unit_seconds"`
	ProfileUnitSeconds    float64 `json:"profile_unit_seconds"`
	// DroppedRows counts provenance rows lost to the memory bound; non-zero
	// means chains may be partial.
	DroppedRows int64 `json:"dropped_rows,omitempty"`
}

// InstanceDerivation groups the explained cells of one resource instance.
type InstanceDerivation struct {
	Key      string  `json:"instance"`
	Resource string  `json:"resource"`
	Machine  int     `json:"machine"`
	Capacity float64 `json:"capacity"`

	Phases []*PhaseDerivation `json:"phases"`
}

// PhaseDerivation is the derivation chain of one phase instance on one
// resource instance.
type PhaseDerivation struct {
	Path     string `json:"path"`
	TypePath string `json:"type_path"`
	Machine  int    `json:"machine"`

	RuleKind   string  `json:"rule_kind"`
	RuleAmount float64 `json:"rule_amount"`

	Cells []CellDerivation `json:"cells"`

	// AttributedUnitSeconds is Σ cell share × slice seconds — the number the
	// chain derives. ProfileUnitSeconds is the same cell range read back from
	// the profile's 3-D array.
	AttributedUnitSeconds float64 `json:"attributed_unit_seconds"`
	ProfileUnitSeconds    float64 `json:"profile_unit_seconds"`
}

// CellDerivation explains one (phase, timeslice) cell: the demand estimated
// from the rule, the slice's upsampled consumption and competing demand
// pools, the scarcity split, and the share this phase received.
type CellDerivation struct {
	Slice   int   `json:"slice"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`

	// Activity is the phase's active fraction of the slice; Demand is
	// rule.Amount × Activity (units).
	Activity float64 `json:"activity"`
	Demand   float64 `json:"demand"`

	// Consumption is the slice's upsampled rate; TotalExact / TotalVarW the
	// competing Exact and Variable demand pools; ExactScale the scarcity
	// factor applied to Exact shares; Remainder what Variable phases split.
	Consumption float64 `json:"consumption"`
	TotalExact  float64 `json:"total_exact"`
	TotalVarW   float64 `json:"total_var_weight"`
	ExactScale  float64 `json:"exact_scale"`
	Remainder   float64 `json:"remainder"`
	Saturated   bool    `json:"saturated"`

	// ShareRate is the attributed rate (units); UnitSeconds is ShareRate ×
	// slice seconds, the cell's contribution to the attributed total.
	ShareRate   float64 `json:"share_rate"`
	UnitSeconds float64 `json:"unit_seconds"`

	// Upsample lists the monitoring measurements whose mass reached this
	// slice, with the unit·seconds each allocated.
	Upsample []UpsampleContribution `json:"upsample,omitempty"`
}

// UpsampleContribution is one monitoring measurement's allocation into a
// slice (§III-D2).
type UpsampleContribution struct {
	StartNS          int64   `json:"start_ns"`
	EndNS            int64   `json:"end_ns"`
	Avg              float64 `json:"avg"`
	AllocUnitSeconds float64 `json:"alloc_unit_seconds"`
}

// BlockingDerivation explains a blocking (non-consumable) resource: the
// stall intervals logged against matching phases. Blocking resources have no
// attribution cells; their evidence is the trace itself.
type BlockingDerivation struct {
	Resource string          `json:"resource"`
	Phases   []*BlockedPhase `json:"phases"`
	// TotalSeconds sums the clipped stall time across phases (overlaps
	// between phases not unioned — same accounting as the report).
	TotalSeconds float64 `json:"total_seconds"`
}

// BlockedPhase lists one phase's stalls on a blocking resource within the
// queried window.
type BlockedPhase struct {
	Path      string          `json:"path"`
	TypePath  string          `json:"type_path"`
	Machine   int             `json:"machine"`
	Intervals []StallInterval `json:"intervals"`
	Seconds   float64         `json:"seconds"`
}

// StallInterval is one clipped blocking interval.
type StallInterval struct {
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Explain answers a query about a finalized attribution profile, recomputing
// its derivation chains from the profile's own inputs: the trace, rules,
// slices and samples are re-read on every call, so concurrent calls are
// safe. It returns *EvalError when the query names a phase or resource
// absent from this profile, or a window outside the analyzed span.
func Explain(prof *attribution.Profile, q Query) (*Derivation, error) {
	return explain(prof, q, DefaultMaxCellsPerInstance)
}

// explain answers q, keeping at most maxRows rows per instance.
func explain(prof *attribution.Profile, q Query, maxRows int) (*Derivation, error) {
	slices := prof.Slices
	first, last := 0, slices.Count
	t0, t1 := slices.Start, slices.End
	if q.HasRange {
		t0, t1 = vtime.Max(q.T0, slices.Start), vtime.Min(q.T1, slices.End)
		if t1 <= t0 {
			return nil, evalErr("time range %s..%s is outside the analyzed span %s..%s",
				q.T0, q.T1, slices.Start, slices.End)
		}
		first, last = slices.Range(t0, t1)
		if first == last {
			return nil, evalErr("time range %s..%s covers no timeslice", q.T0, q.T1)
		}
	}
	st0, _ := slices.Bounds(first)
	_, st1 := slices.Bounds(last - 1)
	d := &Derivation{
		Query:       q.String(),
		SpanStartNS: int64(st0),
		SpanEndNS:   int64(st1),
		Slices:      last - first,
	}

	// Whether the query's names are known is decided over the whole
	// profile, not the queried range or machine: a range holding no
	// evidence answers with an empty derivation, not an unknown name.
	phaseKnown, stalled := traceHas(prof.Trace, q.Phase, q.Resource)
	consumable := false

	// Re-attribute only the selected instances, through the oracle that
	// emits the derivation callbacks; instances are independent, so each
	// chain is the one the full pass would have produced.
	var selected []*attribution.InstanceProfile
	sub := core.NewResourceTrace()
	for _, ip := range prof.Instances {
		ri := ip.Instance
		if q.Resource != "" && ri.Resource.Name != q.Resource {
			continue
		}
		consumable = true
		if q.HasMachine && ri.Machine != q.Machine {
			continue
		}
		if err := sub.Add(ri.Resource, ri.Machine, ri.Samples); err != nil {
			return nil, err
		}
		selected = append(selected, ip)
	}
	if q.Resource != "" && !consumable && !stalled {
		return nil, evalErr("unknown resource %q: not a consumable instance of this profile and no phase was blocked on it", q.Resource)
	}
	if !phaseKnown {
		return nil, evalErr("phase type %q matches no phase in this profile", q.Phase)
	}
	rec := &recorder{phase: q.Phase, first: first, last: last, maxRows: maxRows,
		insts: map[string]*instanceRecorder{}}
	if len(selected) > 0 {
		if _, err := reference.Attribute(prof.Trace.Leaves(), sub, prof.Rules,
			slices, rec); err != nil {
			return nil, err
		}
	}
	for _, ip := range selected {
		ir := rec.insts[ip.Instance.Key()]
		d.DroppedRows += ir.dropped
		inst := ir.answer(ip, slices)
		if q.Phase != "" {
			// Drop phase-filtered instances with no evidence; resource-only
			// queries keep them even when no phase had demand here.
			if len(inst.Phases) == 0 {
				continue
			}
		}
		d.Instances = append(d.Instances, inst)
		for _, pd := range inst.Phases {
			d.AttributedUnitSeconds += pd.AttributedUnitSeconds
			d.ProfileUnitSeconds += pd.ProfileUnitSeconds
		}
	}

	// Blocking resources have no consumable instance; answer them (and
	// phase-only queries' stalls) from the trace's blocking intervals.
	if q.Resource == "" || !consumable {
		d.Blocking = explainBlocking(prof.Trace, q, t0, t1)
	}
	return d, nil
}

// traceHas reports whether the trace holds a phase of type phase (true
// when phase is empty) and whether any phase stalls on resource, anywhere
// in the run.
func traceHas(trace *core.ExecutionTrace, phase, resource string) (phaseKnown, stalled bool) {
	phaseKnown = phase == ""
	trace.Root.Walk(func(p *core.Phase) {
		if !phaseKnown && p.Type != nil && p.Type.Path() == phase {
			phaseKnown = true
		}
		for _, b := range p.Blocked {
			stalled = stalled || (resource != "" && b.Resource == resource)
		}
	})
	return phaseKnown, stalled
}

// explainBlocking resolves stall evidence for blocking resources from the
// trace: every phase interval blocked on the (optionally named) resource
// inside [t0, t1).
func explainBlocking(trace *core.ExecutionTrace, q Query, t0, t1 vtime.Time) []*BlockingDerivation {
	byResource := map[string]*BlockingDerivation{}
	trace.Root.Walk(func(p *core.Phase) {
		if q.HasMachine && p.Machine != q.Machine {
			return
		}
		if q.Phase != "" && (p.Type == nil || p.Type.Path() != q.Phase) {
			return
		}
		var bp *BlockedPhase
		for _, b := range p.Blocked {
			if q.Resource != "" && b.Resource != q.Resource {
				continue
			}
			lo, hi := vtime.Max(b.Start, t0), vtime.Min(b.End, t1)
			if hi <= lo {
				continue
			}
			bd := byResource[b.Resource]
			if bd == nil {
				bd = &BlockingDerivation{Resource: b.Resource}
				byResource[b.Resource] = bd
			}
			if bp == nil || bp != lastPhase(bd, p.Path) {
				bp = &BlockedPhase{Path: p.Path, Machine: p.Machine}
				if p.Type != nil {
					bp.TypePath = p.Type.Path()
				}
				bd.Phases = append(bd.Phases, bp)
			}
			sec := hi.Sub(lo).Seconds()
			bp.Intervals = append(bp.Intervals, StallInterval{StartNS: int64(lo), EndNS: int64(hi)})
			bp.Seconds += sec
			bd.TotalSeconds += sec
		}
	})
	names := make([]string, 0, len(byResource))
	for name := range byResource {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*BlockingDerivation, 0, len(names))
	for _, name := range names {
		out = append(out, byResource[name])
	}
	return out
}

// lastPhase returns the most recently appended BlockedPhase of bd when it
// belongs to path, else nil — one phase can stall on several resources, and
// its intervals must land on its own entry per resource.
func lastPhase(bd *BlockingDerivation, path string) *BlockedPhase {
	if n := len(bd.Phases); n > 0 && bd.Phases[n-1].Path == path {
		return bd.Phases[n-1]
	}
	return nil
}

// WriteJSON writes the full derivation as indented JSON.
func (d *Derivation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteText writes a human-readable derivation chain. Per-phase cell rows
// are capped at maxTextCells (the JSON format carries all of them); every
// printed number traces one step of §III-D, and the per-phase and total
// sums are printed next to the profile's own values so the reader can see
// the chain reproduce the attributed result.
func (d *Derivation) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("explain %s\n", d.Query)
	bw.printf("window: %s..%s (%d slices)\n",
		vtime.Time(d.SpanStartNS), vtime.Time(d.SpanEndNS), d.Slices)
	if d.DroppedRows > 0 {
		bw.printf("warning: %d provenance rows dropped by the memory bound; chains may be partial\n", d.DroppedRows)
	}
	for _, inst := range d.Instances {
		bw.printf("\ninstance %s (capacity %s units)\n", inst.Key, trimFloat(inst.Capacity))
		if len(inst.Phases) == 0 {
			bw.printf("  no phase demand recorded in this window\n")
			continue
		}
		for _, pd := range inst.Phases {
			bw.printf("  phase %s\n", pd.Path)
			bw.printf("    rule %s(%s) on %s\n", pd.RuleKind, trimFloat(pd.RuleAmount), inst.Resource)
			shown := len(pd.Cells)
			if shown > maxTextCells {
				shown = maxTextCells
			}
			for _, c := range pd.Cells[:shown] {
				sat := ""
				if c.Saturated {
					sat = " SATURATED"
				}
				bw.printf("    slice %d [%s..%s) activity=%.3f demand=%s consumption=%s/%s exactScale=%.3f remainder=%s share=%s → %s unit·s%s\n",
					c.Slice, vtime.Time(c.StartNS), vtime.Time(c.EndNS),
					c.Activity, trimFloat(c.Demand), trimFloat(c.Consumption),
					trimFloat(inst.Capacity), c.ExactScale, trimFloat(c.Remainder),
					trimFloat(c.ShareRate), trimFloat(c.UnitSeconds), sat)
				for _, u := range c.Upsample {
					bw.printf("      upsample: measurement [%s..%s) avg=%s allocated %s unit·s here\n",
						vtime.Time(u.StartNS), vtime.Time(u.EndNS), trimFloat(u.Avg),
						trimFloat(u.AllocUnitSeconds))
				}
			}
			if rest := len(pd.Cells) - shown; rest > 0 {
				bw.printf("    ... %d more cells (use -format json for all)\n", rest)
			}
			bw.printf("    chain sum: %.6f unit·s over %d cells (profile: %.6f unit·s)\n",
				pd.AttributedUnitSeconds, len(pd.Cells), pd.ProfileUnitSeconds)
		}
	}
	for _, bd := range d.Blocking {
		bw.printf("\nblocking resource %s: %.3fs stalled\n", bd.Resource, bd.TotalSeconds)
		for _, bp := range bd.Phases {
			bw.printf("  phase %s blocked %.3fs over %d interval(s):", bp.Path, bp.Seconds, len(bp.Intervals))
			shown := len(bp.Intervals)
			if shown > maxTextCells {
				shown = maxTextCells
			}
			for _, iv := range bp.Intervals[:shown] {
				bw.printf(" [%s..%s)", vtime.Time(iv.StartNS), vtime.Time(iv.EndNS))
			}
			if rest := len(bp.Intervals) - shown; rest > 0 {
				bw.printf(" … %d more", rest)
			}
			bw.printf("\n")
		}
	}
	if len(d.Instances) > 0 {
		bw.printf("\ntotal: derivation chain sums to %.6f unit·s; profile holds %.6f unit·s\n",
			d.AttributedUnitSeconds, d.ProfileUnitSeconds)
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// trimFloat renders a float compactly (no trailing zeros) for the text
// derivation chain.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
