package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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

	// openPos is one plus the phase's index in its TreeBuilder's open list,
	// or 0 once it ended. It, not End, tells an open phase: a live window
	// flush sets an open leaf's End provisionally.
	openPos int
}

// Duration returns End-Start.
func (p *Phase) Duration() vtime.Duration { return p.End.Sub(p.Start) }

// IsLeaf reports whether the phase has no children. Attribution operates on
// leaves; parents aggregate.
func (p *Phase) IsLeaf() bool { return len(p.Children) == 0 }

// PhaseStats folds phase instances: their count, total and longest
// duration, and their blocking time per resource.
type PhaseStats struct {
	Count      int
	Total, Max vtime.Duration
	// Blocked stays nil until an added phase has blocked.
	Blocked map[string]vtime.Duration
}

// Add folds one phase instance.
func (s *PhaseStats) Add(p *Phase) {
	d := p.Duration()
	s.Count++
	s.Total += d
	s.Max = max(s.Max, d)
	for _, b := range p.Blocked {
		if s.Blocked == nil {
			s.Blocked = map[string]vtime.Duration{}
		}
		s.Blocked[b.Resource] += b.Duration()
	}
}

// Mean returns the mean duration, truncated. Call it after an Add.
func (s *PhaseStats) Mean() vtime.Duration { return s.Total / vtime.Duration(s.Count) }

// Index returns the instance index of the final path segment, or -1. It
// reads the last segment in place, without splitting the path.
func (p *Phase) Index() int {
	path := strings.TrimRight(p.Path, "/")
	return enginelog.SegmentIndex(path[strings.LastIndexByte(path, '/')+1:])
}

// BlockedTime returns the phase's own blocking time on the named resource,
// or on any resource when name is empty, inside [t0, t1). Overlapping
// intervals are unioned.
func (p *Phase) BlockedTime(resource string, t0, t1 vtime.Time) vtime.Duration {
	var total vtime.Duration
	lastEnd := t0
	for _, b := range p.Blocked {
		if resource != "" && b.Resource != resource {
			continue
		}
		s, e := vtime.Max(b.Start, lastEnd), vtime.Min(b.End, t1)
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
// too. Warm calls do not allocate: the union is built in pooled scratch.
func (p *Phase) BlockedWithin(resource string, t0, t1 vtime.Time) vtime.Duration {
	st := stallsPool.Get().(*Stalls)
	var total vtime.Duration
	for _, iv := range st.union(p, resource, t0, t1) {
		total += iv.end.Sub(iv.start)
	}
	stallsPool.Put(st)
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

// ActiveTimes fills dst[i] with ActiveTime over slice first+i of ts, for
// every i, in one sweep: the stall union of the phase and its ancestors is
// built once for the whole row and walked with a cursor, so a row costs
// O(stalls + slices) rather than a union per slice. Every slice
// first..first+len(dst)-1 must lie in ts. Reusing st across calls keeps a
// warm sweep free of allocations.
func (p *Phase) ActiveTimes(ts Timeslices, first int, dst []vtime.Duration, st *Stalls) {
	if len(dst) == 0 {
		return
	}
	lo, _ := ts.Bounds(first)
	_, hi := ts.Bounds(first + len(dst) - 1)
	u := st.union(p, "", vtime.Max(lo, p.Start), vtime.Min(hi, p.End))
	j := 0
	for i := range dst {
		t0, t1 := ts.Bounds(first + i)
		a0, a1 := vtime.Max(p.Start, t0), vtime.Min(p.End, t1)
		if a1 <= a0 {
			dst[i] = 0
			continue
		}
		for j < len(u) && u[j].end <= a0 {
			j++
		}
		active := a1.Sub(a0)
		for _, iv := range u[j:] {
			if iv.start >= a1 {
				break
			}
			active -= vtime.Min(iv.end, a1).Sub(vtime.Max(iv.start, a0))
		}
		dst[i] = active
	}
}

// Stalls is reusable scratch for ActiveTimes: the merged stall union of one
// phase and its ancestors. The zero value is ready to use; one Stalls serves
// one goroutine at a time.
type Stalls struct{ u []stall }

// stall is one interval of a stall union.
type stall struct{ start, end vtime.Time }

// stallsPool backs the per-call scratch of BlockedWithin.
var stallsPool = sync.Pool{New: func() any { return new(Stalls) }}

// union returns the sorted, disjoint union of the stalls of p and its
// ancestors on resource (empty = any), clipped to [t0, t1). The result
// aliases st and is valid until its next use. Per-phase lists are sorted in
// a finished trace but may not be in a growing one, so the collected
// intervals are sorted unless they already arrive in order.
func (st *Stalls) union(p *Phase, resource string, t0, t1 vtime.Time) []stall {
	u := st.u[:0]
	if t1 <= t0 {
		return u
	}
	sorted := true
	for q := p; q != nil; q = q.Parent {
		for _, b := range q.Blocked {
			if resource != "" && b.Resource != resource {
				continue
			}
			s, e := vtime.Max(b.Start, t0), vtime.Min(b.End, t1)
			if e <= s {
				continue
			}
			if n := len(u); n > 0 && s < u[n-1].start {
				sorted = false
			}
			u = append(u, stall{s, e})
		}
	}
	st.u = u
	if !sorted {
		slices.SortFunc(u, func(a, b stall) int { return cmp.Compare(a.start, b.start) })
	}
	n := 0
	for _, iv := range u {
		if n > 0 && iv.start <= u[n-1].end {
			u[n-1].end = vtime.Max(u[n-1].end, iv.end)
			continue
		}
		u[n] = iv
		n++
	}
	return u[:n]
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

	// leaves caches Leaves for a finished trace. Only Finish sets it: a
	// trace assembled by hand over a growing tree (a live window) never
	// holds a cache that later events could make stale.
	leaves []*Phase
}

// BuildExecutionTrace parses an engine log against an execution model: it
// feeds every event to a TreeBuilder and finishes the tree. The whole log is
// known up front, so the builder is sized for its phase starts: ByPath never
// rehashes and every phase comes from one slab.
func BuildExecutionTrace(log *enginelog.Log, model *ExecutionModel) (*ExecutionTrace, error) {
	starts := 0
	for i := range log.Events {
		if log.Events[i].Kind == enginelog.PhaseStart {
			starts++
		}
	}
	b := newTreeBuilder(model, starts)
	for _, e := range log.Events {
		if _, err := b.Add(e); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// TreeBuilder assembles an execution trace one event at a time. It holds
// the one set of event rules: every start must have a canonical path, map
// to a model type and name a logged parent, paths start once, ends close
// open phases, and blocking events reference logged phases. The batch
// pipeline feeds it a whole log; the online engine feeds it events as they
// arrive and reads the growing tree between them.
type TreeBuilder struct {
	model *ExecutionModel
	tr    *ExecutionTrace
	// open holds the started, not yet ended phases in no particular order;
	// each knows its position (Phase.openPos), so an end removes it by swap.
	open []*Phase
	// last is the most recently started phase, nil after a Retire. A start
	// usually names it or its parent as parent, which resolve checks before
	// hashing the parent path.
	last *Phase
	n    int // events added, numbering error positions
	// slab holds the phases of a builder sized for a known number of
	// starts. Its capacity never changes, so no phase handed out moves; a
	// start past it allocates its phase alone.
	slab []Phase
}

// NewTreeBuilder starts an empty trace for one execution model.
func NewTreeBuilder(model *ExecutionModel) *TreeBuilder { return newTreeBuilder(model, 0) }

// newTreeBuilder starts an empty trace sized for starts phase starts.
func newTreeBuilder(model *ExecutionModel, starts int) *TreeBuilder {
	return &TreeBuilder{
		model: model,
		tr: &ExecutionTrace{
			Root:   &Phase{Path: "/", Machine: -1, Start: vtime.Infinity},
			ByPath: make(map[string]*Phase, starts),
		},
		slab: make([]Phase, 0, starts),
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
		if !canonical(e.Path) {
			return nil, fmt.Errorf("core: event %d: phase path %q is not canonical "+
				"(want a leading slash, no empty segment, no trailing slash)", i, e.Path)
		}
		if _, dup := b.tr.ByPath[e.Path]; dup {
			return nil, fmt.Errorf("core: event %d: duplicate phase %q", i, e.Path)
		}
		parent, pt := b.resolve(e.Path)
		if pt == nil {
			var err error
			if parent, pt, err = b.resolveSlow(i, e.Path); err != nil {
				return nil, err
			}
		}
		machine := e.Machine
		if machine < 0 {
			machine = parent.Machine
		}
		var ph *Phase
		if len(b.slab) < cap(b.slab) {
			b.slab = b.slab[:len(b.slab)+1]
			ph = &b.slab[len(b.slab)-1]
		} else {
			ph = new(Phase)
		}
		*ph = Phase{Path: e.Path, Type: pt, Parent: parent, Start: e.Time, End: -1, Machine: machine,
			openPos: len(b.open) + 1}
		parent.Children = append(parent.Children, ph)
		b.tr.ByPath[e.Path] = ph
		b.open = append(b.open, ph)
		b.last = ph
		return ph, nil

	case enginelog.PhaseEnd:
		ph := b.tr.ByPath[e.Path]
		if ph == nil || ph.openPos == 0 {
			return nil, fmt.Errorf("core: event %d: end of unknown or closed phase %q", i, e.Path)
		}
		if e.Time < ph.Start {
			return nil, fmt.Errorf("core: event %d: phase %q ends before it starts", i, e.Path)
		}
		ph.End = e.Time
		b.close(ph)
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

// close removes an open phase from the open list: the list's last phase
// takes its slot.
func (b *TreeBuilder) close(ph *Phase) {
	i, n := ph.openPos-1, len(b.open)-1
	moved := b.open[n]
	b.open[i], moved.openPos = moved, i+1
	b.open[n] = nil
	b.open = b.open[:n]
	ph.openPos = 0
}

// canonical reports whether an instance path is canonical ("/a/b.1"): a
// leading slash, no empty segment and no trailing slash, so each phase has
// exactly one spelling.
func canonical(path string) bool {
	return len(path) >= 2 && path[0] == '/' && path[len(path)-1] != '/' && !strings.Contains(path, "//")
}

// resolve finds a canonical started phase's parent and type without
// splitting its path: the parent path ends at the last slash, and the type
// is the parent phase's type's child named by the last segment. The parent
// is looked up in ByPath unless it is the last started phase or that
// phase's parent, which a log's starts mostly name. When the parent or type
// is missing it returns a nil type and the caller takes resolveSlow, which
// words the error.
func (b *TreeBuilder) resolve(path string) (*Phase, *PhaseType) {
	cut := strings.LastIndexByte(path, '/')
	name := enginelog.SegmentName(path[cut+1:])
	if cut == 0 {
		if root := b.model.Root; root.Name == name {
			return b.tr.Root, root
		}
		return nil, nil
	}
	pp := path[:cut]
	var parent *Phase
	switch last := b.last; {
	case last == nil:
	case last.Path == pp:
		parent = last
	case last.Parent.Path == pp: // never the root: pp is not "/"
		parent = last.Parent
	}
	if parent == nil {
		var ok bool
		if parent, ok = b.tr.ByPath[pp]; !ok {
			return nil, nil
		}
	}
	return parent, parent.Type.child(name)
}

// resolveSlow words the rejection of a canonical start that resolve could
// not place: it resolves the type from the whole type path and the parent
// from the parent path, and reports which of the two is missing, type first.
func (b *TreeBuilder) resolveSlow(i int, path string) (*Phase, *PhaseType, error) {
	pt := b.model.LookupInstance(path)
	if pt == nil {
		return nil, nil, fmt.Errorf("core: event %d: phase %q has no type %q in the execution model",
			i, path, enginelog.TypePath(path))
	}
	parent := b.tr.Root
	if pp := enginelog.Parent(path); pp != "/" {
		var ok bool
		parent, ok = b.tr.ByPath[pp]
		if !ok {
			return nil, nil, fmt.Errorf("core: event %d: phase %q starts before its parent %q", i, path, pp)
		}
	}
	return parent, pt, nil
}

// Root returns the synthetic root of the growing tree.
func (b *TreeBuilder) Root() *Phase { return b.tr.Root }

// Open returns the phases started and not yet ended, in no particular order.
// The slice is the builder's own: callers must not modify it, and the next
// Add may reorder it.
func (b *TreeBuilder) Open() []*Phase { return b.open }

// Retire unlinks an ended phase from its parent and forgets its path, so
// later events naming it are rejected as unknown. Bounded-memory consumers
// call it once a phase is no longer needed; a retired tree cannot Finish
// into a complete trace.
func (b *TreeBuilder) Retire(ph *Phase) {
	b.last = nil // it may be ph or ph's child, which would resolve ph again
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
	if len(b.open) > 0 {
		return nil, fmt.Errorf("core: phase %q never ended", b.open[0].Path)
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
	tr.leaves = slices.Clip(collectLeaves(root))
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

// ComparePhases is the one phase order: by start time, then path. Paths are
// unique within a trace, so the order is total.
func ComparePhases(a, b *Phase) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return strings.Compare(a.Path, b.Path)
}

// SortPhases sorts phases into ComparePhases order.
func SortPhases(phases []*Phase) { slices.SortFunc(phases, ComparePhases) }

// Leaves returns all leaf phases in SortPhases order. A finished trace
// sorts them once and returns that shared slice on every call: callers must
// not modify it.
func (tr *ExecutionTrace) Leaves() []*Phase {
	if tr.leaves != nil {
		return tr.leaves
	}
	return collectLeaves(tr.Root)
}

// collectLeaves gathers the leaves under root in SortPhases order.
func collectLeaves(root *Phase) []*Phase {
	var out []*Phase
	root.Walk(func(p *Phase) {
		if p != root && p.IsLeaf() {
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
