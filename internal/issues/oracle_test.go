package issues

import (
	"fmt"
	"reflect"
	"testing"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// This file keeps the memoized recursive replay the compiled Schedule
// replaced, as the oracle the schedule is checked against: it evaluates the
// replay model straight from its definition, one phase at a time, with no
// precomputed order. Its critical-path walk is likewise the definition the
// schedule's must match.

// phaseDurs overrides replay durations by phase, the oracle's input.
type phaseDurs = map[*core.Phase]vtime.Duration

// refReplay returns the oracle's replayed makespan of tr.
func refReplay(tr *core.ExecutionTrace, durs phaseDurs) vtime.Duration {
	r := newReference(tr, durs)
	return vtime.Duration(r.endOf(tr.Root))
}

// overrides converts per-phase durations into the schedule's leaf
// overrides; non-leaf phases are ignored, as the replay ignores them.
func (s *Schedule) overrides(durs phaseDurs) Durations {
	idx := map[*core.Phase]int32{}
	for i, leaf := range s.leaves {
		idx[leaf] = int32(i)
	}
	var out Durations
	for p, d := range durs {
		if i, ok := idx[p]; ok {
			out = append(out, Override{Leaf: i, Dur: d})
		}
	}
	return out
}

// replay replays tr through its compiled schedule, failing the test when
// the oracle disagrees on the makespan.
func replay(t testing.TB, tr *core.ExecutionTrace, durs phaseDurs) vtime.Duration {
	t.Helper()
	s := Compile(tr)
	got := s.Replay(s.overrides(durs))
	if want := refReplay(tr, durs); got != want {
		t.Fatalf("schedule makespan %v, oracle %v", got, want)
	}
	return got
}

// criticalPath extracts tr's critical path through its compiled schedule,
// failing the test when the oracle's differs.
func criticalPath(t testing.TB, tr *core.ExecutionTrace) []CriticalStep {
	t.Helper()
	_, got := Compile(tr).replayPath(nil)
	if want := refCriticalPath(tr, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule critical path differs from the oracle's\nschedule: %v\noracle:   %v",
			stepPaths(got), stepPaths(want))
	}
	return got
}

func stepPaths(path []CriticalStep) []string {
	out := make([]string, len(path))
	for i, s := range path {
		out[i] = s.Phase.Path + "@" + s.Start.String() + ".." + s.End.String()
	}
	return out
}

type reference struct {
	durs  phaseDurs
	start map[*core.Phase]vtime.Time
	end   map[*core.Phase]vtime.Time
	// sync maps a sync-group key to the group's common end.
	sync   map[string]vtime.Time
	groups map[string][]*core.Phase
}

func newReference(tr *core.ExecutionTrace, durs phaseDurs) *reference {
	r := &reference{
		durs:   durs,
		start:  map[*core.Phase]vtime.Time{},
		end:    map[*core.Phase]vtime.Time{},
		sync:   map[string]vtime.Time{},
		groups: map[string][]*core.Phase{},
	}
	tr.Root.Walk(func(p *core.Phase) {
		if p.Type != nil && p.Type.SyncGroup {
			key := syncKey(p)
			r.groups[key] = append(r.groups[key], p)
		}
	})
	return r
}

// syncKey anchors a sync-group instance to its nearest sequential ancestor.
func syncKey(p *core.Phase) string {
	anchor := "/"
	for q := p.Parent; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			anchor = q.Path
			break
		}
	}
	return anchor + "|" + p.Type.Path()
}

func (r *reference) intrinsic(p *core.Phase) vtime.Duration {
	if d, ok := r.durs[p]; ok {
		if d < 0 {
			return 0
		}
		return d
	}
	return Intrinsic(p)
}

// startOf computes the replayed start of p: after its parent's start, its
// After-siblings, and the previous instance of its sequential type.
func (r *reference) startOf(p *core.Phase) vtime.Time {
	if t, ok := r.start[p]; ok {
		return t
	}
	var t vtime.Time
	if p.Parent != nil {
		t = r.startOf(p.Parent)
		// Sibling precedence.
		if p.Type != nil {
			after := map[string]bool{}
			for _, a := range p.Type.After {
				after[a] = true
			}
			var prevSeq *core.Phase
			for _, sib := range p.Parent.Children {
				if sib == p || sib.Type == nil {
					continue
				}
				if after[sib.Type.Name] {
					if e := r.endOf(sib); e > t {
						t = e
					}
				}
				if p.Type.Sequential && sib.Type == p.Type &&
					sib.Index() >= 0 && sib.Index() < p.Index() {
					if prevSeq == nil || sib.Index() > prevSeq.Index() {
						prevSeq = sib
					}
				}
			}
			if prevSeq != nil {
				if e := r.endOf(prevSeq); e > t {
					t = e
				}
			}
		}
	}
	r.start[p] = t
	return t
}

// endOf computes the replayed end of p, including sync-group coupling.
func (r *reference) endOf(p *core.Phase) vtime.Time {
	if t, ok := r.end[p]; ok {
		return t
	}
	var t vtime.Time
	if p.Type != nil && p.Type.SyncGroup {
		t = r.syncEnd(syncKey(p))
	} else {
		t = r.rawEnd(p)
	}
	r.end[p] = t
	return t
}

// rawEnd is the end of p ignoring sync coupling.
func (r *reference) rawEnd(p *core.Phase) vtime.Time {
	start := r.startOf(p)
	if len(p.Children) == 0 {
		return start.Add(r.intrinsic(p))
	}
	end := start
	for _, c := range p.Children {
		if e := r.endOf(c); e > end {
			end = e
		}
	}
	return end
}

// syncEnd is the common end of a sync group: the latest member's raw end.
func (r *reference) syncEnd(key string) vtime.Time {
	if t, ok := r.sync[key]; ok {
		return t
	}
	var t vtime.Time
	for _, m := range r.groups[key] {
		if e := r.rawEnd(m); e > t {
			t = e
		}
	}
	r.sync[key] = t
	return t
}

// refCriticalPath is the oracle's critical path of tr replayed with durs.
func refCriticalPath(tr *core.ExecutionTrace, durs phaseDurs) []CriticalStep {
	r := newReference(tr, durs)
	makespan := r.endOf(tr.Root)

	var cur *core.Phase
	for _, leaf := range tr.Leaves() {
		if r.endOf(leaf) == makespan {
			if cur == nil || leaf.Path < cur.Path {
				cur = leaf
			}
		}
	}
	if cur == nil {
		return nil
	}

	var path []CriticalStep
	seen := map[*core.Phase]bool{}
	for cur != nil && !seen[cur] {
		seen[cur] = true
		path = append(path, CriticalStep{Phase: cur, Start: r.startOf(cur), End: r.endOf(cur)})
		cur = r.pinnedBy(cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

func (r *reference) pinnedBy(p *core.Phase) *core.Phase {
	if p.Type != nil && p.Type.SyncGroup {
		key := syncKey(p)
		groupEnd := r.syncEnd(key)
		if r.rawEnd(p) < groupEnd {
			for _, m := range r.groups[key] {
				if m != p && r.rawEnd(m) == groupEnd {
					return r.deepestLeafEndingAt(m, groupEnd)
				}
			}
		}
	}
	for q := p; q != nil; q = q.Parent {
		start := r.startOf(q)
		if start == 0 {
			return nil
		}
		if q.Parent != nil && r.startOf(q.Parent) == start {
			continue
		}
		pred := r.predecessorEndingAt(q, start)
		if pred != nil {
			return r.deepestLeafEndingAt(pred, start)
		}
	}
	return nil
}

func (r *reference) predecessorEndingAt(q *core.Phase, start vtime.Time) *core.Phase {
	if q.Parent == nil || q.Type == nil {
		return nil
	}
	after := map[string]bool{}
	for _, a := range q.Type.After {
		after[a] = true
	}
	for _, sib := range q.Parent.Children {
		if sib == q || sib.Type == nil {
			continue
		}
		isPred := after[sib.Type.Name] ||
			(q.Type.Sequential && sib.Type == q.Type && sib.Index() >= 0 && sib.Index() < q.Index())
		if isPred && r.endOf(sib) == start {
			return sib
		}
	}
	return nil
}

func (r *reference) deepestLeafEndingAt(p *core.Phase, t vtime.Time) *core.Phase {
	for len(p.Children) > 0 {
		var next *core.Phase
		for _, c := range p.Children {
			if r.endOf(c) == t {
				if next == nil || c.Path < next.Path {
					next = c
				}
			}
		}
		if next == nil {
			return p
		}
		p = next
	}
	return p
}

// ScheduleMatchesOracle replays tr with durs through its compiled schedule
// and through the oracle, and reports the first disagreement on the
// makespan or the critical path. The fixture tests outside the package call
// it on engine traces.
func ScheduleMatchesOracle(tr *core.ExecutionTrace, durs map[*core.Phase]vtime.Duration) error {
	s := Compile(tr)
	makespan, path := s.replayPath(s.overrides(durs))
	if want := refReplay(tr, durs); makespan != want {
		return fmt.Errorf("schedule makespan %v, oracle %v", makespan, want)
	}
	if want := refCriticalPath(tr, durs); !reflect.DeepEqual(path, want) {
		return fmt.Errorf("critical path differs from the oracle's\nschedule: %v\noracle:   %v",
			stepPaths(path), stepPaths(want))
	}
	if got := s.Replay(s.overrides(durs)); got != makespan {
		return fmt.Errorf("Replay makespan %v, replayPath %v", got, makespan)
	}
	return nil
}
