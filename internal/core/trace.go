package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"grade10/internal/enginelog"
	"grade10/internal/vtime"
)

// BlockInterval is one blocking event: the phase was stalled on Resource
// during [Start, End).
type BlockInterval struct {
	Resource string
	Start    vtime.Time
	End      vtime.Time
}

// Duration returns the interval length.
func (b BlockInterval) Duration() vtime.Duration { return b.End.Sub(b.Start) }

// Phase is one phase instance extracted from an execution log.
type Phase struct {
	// Path is the instance path, e.g. "/pr/execute/superstep.2/worker.0".
	Path string
	// Type is the phase type from the execution model; nil only for the
	// synthetic trace root.
	Type *PhaseType
	// Parent and Children form the instance tree.
	Parent   *Phase
	Children []*Phase
	// Start and End bound the execution.
	Start vtime.Time
	End   vtime.Time
	// Machine hosting the phase, inherited from the parent when the log did
	// not bind one; -1 when unbound anywhere in the ancestry.
	Machine int
	// Blocked lists the blocking events logged against this phase, sorted by
	// start time.
	Blocked []BlockInterval
}

// Duration returns End-Start.
func (p *Phase) Duration() vtime.Duration { return p.End.Sub(p.Start) }

// IsLeaf reports whether the phase has no children. Attribution operates on
// leaves; parents aggregate.
func (p *Phase) IsLeaf() bool { return len(p.Children) == 0 }

// Index returns the instance index of the final path segment, or -1.
func (p *Phase) Index() int {
	segs := enginelog.Split(p.Path)
	if len(segs) == 0 {
		return -1
	}
	return enginelog.SegmentIndex(segs[len(segs)-1])
}

// BlockedTime returns the total time blocked on the named resource, or on
// any resource when name is empty. Overlapping intervals are unioned.
func (p *Phase) BlockedTime(resource string) vtime.Duration {
	var total vtime.Duration
	var lastEnd vtime.Time
	for _, b := range p.Blocked {
		if resource != "" && b.Resource != resource {
			continue
		}
		s, e := b.Start, b.End
		if s < lastEnd {
			s = lastEnd
		}
		if e > s {
			total += e.Sub(s)
			lastEnd = e
		}
	}
	return total
}

// BlockedWithin returns the unioned blocking time of this phase and its
// ancestors inside the window [t0, t1), restricted to the named resource
// (empty = any): if a parent is stalled, its running children are stalled
// too.
func (p *Phase) BlockedWithin(resource string, t0, t1 vtime.Time) vtime.Duration {
	var intervals []BlockInterval
	for q := p; q != nil; q = q.Parent {
		for _, b := range q.Blocked {
			if resource != "" && b.Resource != resource {
				continue
			}
			if b.End > t0 && b.Start < t1 {
				intervals = append(intervals, BlockInterval{
					Start: vtime.Max(b.Start, t0), End: vtime.Min(b.End, t1),
				})
			}
		}
	}
	if len(intervals) == 0 {
		return 0
	}
	sort.Slice(intervals, func(i, j int) bool { return intervals[i].Start < intervals[j].Start })
	var total vtime.Duration
	var lastEnd vtime.Time = t0
	for _, b := range intervals {
		s := b.Start
		if s < lastEnd {
			s = lastEnd
		}
		if b.End > s {
			total += b.End.Sub(s)
			lastEnd = b.End
		}
	}
	return total
}

// ActiveTime returns the time within [t0, t1) during which the phase was
// running and not blocked (own or ancestor blocking events): the paper's
// notion of a phase being "active" in a timeslice.
func (p *Phase) ActiveTime(t0, t1 vtime.Time) vtime.Duration {
	lo := vtime.Max(p.Start, t0)
	hi := vtime.Min(p.End, t1)
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo) - p.BlockedWithin("", lo, hi)
}

// ActiveFraction returns ActiveTime normalized by the window length.
func (p *Phase) ActiveFraction(t0, t1 vtime.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return p.ActiveTime(t0, t1).Seconds() / t1.Sub(t0).Seconds()
}

// Walk visits the phase and all descendants depth-first in child order.
func (p *Phase) Walk(fn func(*Phase)) {
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// ExecutionTrace is the parsed, validated phase-instance tree of one workload
// execution.
type ExecutionTrace struct {
	// Root is a synthetic node whose children are the logged top-level
	// phases (normally exactly one: the application).
	Root *Phase
	// ByPath indexes every real phase instance.
	ByPath map[string]*Phase
	// Start and End bound the whole execution.
	Start vtime.Time
	End   vtime.Time
}

// BuildExecutionTrace parses an engine log against an execution model: it
// feeds every event to a TreeBuilder and finishes the tree.
func BuildExecutionTrace(log *enginelog.Log, model *ExecutionModel) (*ExecutionTrace, error) {
	b := NewTreeBuilder(model)
	for _, e := range log.Events {
		if _, err := b.Add(e); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// TreeBuilder assembles an execution trace one event at a time. It holds
// the one set of event rules: every start must map to a model type and name
// a logged parent, paths start once, ends close open phases, and blocking
// events reference logged phases. The batch pipeline feeds it a whole log;
// the online engine feeds it events as they arrive and reads the growing
// tree between them.
type TreeBuilder struct {
	model *ExecutionModel
	tr    *ExecutionTrace
	open  map[string]*Phase
	n     int // events added, numbering error positions
}

// NewTreeBuilder starts an empty trace for one execution model.
func NewTreeBuilder(model *ExecutionModel) *TreeBuilder {
	return &TreeBuilder{
		model: model,
		tr: &ExecutionTrace{
			Root:   &Phase{Path: "/", Machine: -1, Start: vtime.Infinity},
			ByPath: map[string]*Phase{},
		},
		open: map[string]*Phase{},
	}
}

// Add applies one event and returns the phase it started, ended or blocked;
// counters return nil. A rejected event returns an error and leaves the tree
// unchanged. An ended phase's blocking intervals are sorted by start time.
func (b *TreeBuilder) Add(e enginelog.Event) (*Phase, error) {
	i := b.n
	b.n++
	switch e.Kind {
	case enginelog.PhaseStart:
		if _, dup := b.tr.ByPath[e.Path]; dup {
			return nil, fmt.Errorf("core: event %d: duplicate phase %q", i, e.Path)
		}
		pt := b.model.LookupInstance(e.Path)
		if pt == nil {
			return nil, fmt.Errorf("core: event %d: phase %q has no type %q in the execution model",
				i, e.Path, enginelog.TypePath(e.Path))
		}
		parent := b.tr.Root
		if pp := enginelog.Parent(e.Path); pp != "/" {
			var ok bool
			parent, ok = b.tr.ByPath[pp]
			if !ok {
				return nil, fmt.Errorf("core: event %d: phase %q starts before its parent %q", i, e.Path, pp)
			}
		}
		machine := e.Machine
		if machine < 0 {
			machine = parent.Machine
		}
		ph := &Phase{Path: e.Path, Type: pt, Parent: parent, Start: e.Time, End: -1, Machine: machine}
		parent.Children = append(parent.Children, ph)
		b.tr.ByPath[e.Path] = ph
		b.open[e.Path] = ph
		return ph, nil

	case enginelog.PhaseEnd:
		ph, ok := b.open[e.Path]
		if !ok {
			return nil, fmt.Errorf("core: event %d: end of unknown or closed phase %q", i, e.Path)
		}
		if e.Time < ph.Start {
			return nil, fmt.Errorf("core: event %d: phase %q ends before it starts", i, e.Path)
		}
		ph.End = e.Time
		delete(b.open, e.Path)
		sortBlocked(ph)
		return ph, nil

	case enginelog.Blocked:
		ph, ok := b.tr.ByPath[e.Path]
		if !ok {
			return nil, fmt.Errorf("core: event %d: blocking event for unknown phase %q", i, e.Path)
		}
		ph.Blocked = append(ph.Blocked, BlockInterval{Resource: e.Resource, Start: e.Time, End: e.End})
		return ph, nil
	}
	// Counters are informational; the trace ignores them.
	return nil, nil
}

// Root returns the synthetic root of the growing tree.
func (b *TreeBuilder) Root() *Phase { return b.tr.Root }

// Open returns the phases started and not yet ended, by path. The map is the
// builder's own: callers must not modify it.
func (b *TreeBuilder) Open() map[string]*Phase { return b.open }

// Retire unlinks an ended phase from its parent and forgets its path, so
// later events naming it are rejected as unknown. Bounded-memory consumers
// call it once a phase is no longer needed; a retired tree cannot Finish
// into a complete trace.
func (b *TreeBuilder) Retire(ph *Phase) {
	if i := slices.Index(ph.Parent.Children, ph); i >= 0 {
		ph.Parent.Children = slices.Delete(ph.Parent.Children, i, i+1)
	}
	if b.tr.ByPath[ph.Path] == ph { // a path restarted after retirement keeps its new phase
		delete(b.tr.ByPath, ph.Path)
	}
}

// Finish validates and completes the trace once every event has been added:
// no phase may be left open, blocking intervals must lie inside their phase,
// and children inside their parents. Children are then sorted by start time
// and the trace span set. Call it once.
func (b *TreeBuilder) Finish() (*ExecutionTrace, error) {
	for path := range b.open {
		return nil, fmt.Errorf("core: phase %q never ended", path)
	}
	tr, root := b.tr, b.tr.Root
	if len(tr.ByPath) == 0 {
		return nil, fmt.Errorf("core: log contains no phases")
	}

	for _, ph := range tr.ByPath {
		// Blocking events may follow their phase's end event.
		sortBlocked(ph)
		for _, bi := range ph.Blocked {
			if bi.Start < ph.Start || bi.End > ph.End {
				return nil, fmt.Errorf("core: phase %q: blocking interval [%v,%v) outside phase [%v,%v)",
					ph.Path, bi.Start, bi.End, ph.Start, ph.End)
			}
		}
		// Children must be contained in their parents.
		if ph.Parent != root {
			if ph.Start < ph.Parent.Start || ph.End > ph.Parent.End {
				return nil, fmt.Errorf("core: phase %q [%v,%v) escapes parent %q [%v,%v)",
					ph.Path, ph.Start, ph.End, ph.Parent.Path, ph.Parent.Start, ph.Parent.End)
			}
		}
		if ph.Start < tr.Start {
			tr.Start = ph.Start
		}
		if ph.End > tr.End {
			tr.End = ph.End
		}
	}
	root.Start, root.End = tr.Start, tr.End
	sortChildren(root)
	return tr, nil
}

// sortBlocked orders a phase's blocking intervals by start time, keeping log
// order among equal starts so sorting again after a late append agrees with
// sorting once.
func sortBlocked(ph *Phase) {
	slices.SortStableFunc(ph.Blocked, func(a, b BlockInterval) int { return cmp.Compare(a.Start, b.Start) })
}

func sortChildren(p *Phase) {
	SortPhases(p.Children)
	for _, c := range p.Children {
		sortChildren(c)
	}
}

// SortPhases sorts phases into the one phase order: by start time, then
// path. Paths are unique within a trace, so the order is total.
func SortPhases(phases []*Phase) {
	slices.SortFunc(phases, func(a, b *Phase) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return strings.Compare(a.Path, b.Path)
	})
}

// Leaves returns all leaf phases in SortPhases order.
func (tr *ExecutionTrace) Leaves() []*Phase {
	var out []*Phase
	tr.Root.Walk(func(p *Phase) {
		if p != tr.Root && p.IsLeaf() {
			out = append(out, p)
		}
	})
	SortPhases(out)
	return out
}

// PhasesOfType returns all instances of the given type path in SortPhases
// order.
func (tr *ExecutionTrace) PhasesOfType(typePath string) []*Phase {
	var out []*Phase
	for _, p := range tr.ByPath {
		if p.Type != nil && p.Type.Path() == typePath {
			out = append(out, p)
		}
	}
	SortPhases(out)
	return out
}
