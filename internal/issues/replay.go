// Package issues implements Grade10's performance-issue detection (§III-F of
// the paper). A simplified replay simulator re-executes the captured trace
// with fixed phase durations under the execution model's precedence
// constraints; issue detectors perturb leaf durations (removing a resource
// bottleneck, balancing concurrent phases) and compare the optimistic
// makespan against the replayed original, yielding an upper bound on the
// gain from fixing each issue.
package issues

import (
	"sort"
	"sync"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Durations maps leaf phases to (possibly modified) durations. Leaves absent
// from the map keep their intrinsic duration: the recorded duration, minus
// the recorded synchronization wait for leaves of SyncGroup types (the
// replay re-derives those waits from the slowest group member).
type Durations map[*core.Phase]vtime.Duration

// Replay schedules the trace under the paper's simplified system model:
//
//   - each leaf runs for its (possibly modified) duration with no
//     inter-phase delays;
//   - sibling order follows the execution model's After edges, and instances
//     of Sequential types run in index order;
//   - non-leaf phases span their children;
//   - all instances of a SyncGroup type under the same sequential ancestor
//     end together, at the latest member's end — the cluster-wide barriers
//     and exchange joins of the BSP/GAS engines.
//
// It returns the simulated makespan (root end, with the root starting at
// zero).
func Replay(tr *core.ExecutionTrace, durs Durations) vtime.Duration {
	r := replayPool.Get().(*replay)
	r.durs = durs
	r.index(tr.Root)
	makespan := vtime.Duration(r.endOf(tr.Root))
	r.reset()
	replayPool.Put(r)
	return makespan
}

// replayPool recycles the replay's memoization maps: the issue detector runs
// one replay per candidate issue (concurrently), and cleared maps keep their
// buckets, so pooled replays stay allocation-free after the first few runs
// over a trace of a given size.
var replayPool = sync.Pool{New: func() any {
	return &replay{
		start:  map[*core.Phase]vtime.Time{},
		end:    map[*core.Phase]vtime.Time{},
		sync:   map[string]vtime.Time{},
		groups: map[string][]*core.Phase{},
	}
}}

// reset clears the replay for reuse, dropping references into the trace.
func (r *replay) reset() {
	r.durs = nil
	clear(r.start)
	clear(r.end)
	clear(r.sync)
	clear(r.groups)
}

type replay struct {
	durs  Durations
	start map[*core.Phase]vtime.Time
	end   map[*core.Phase]vtime.Time
	// sync maps a sync-group key to the group's common end.
	sync   map[string]vtime.Time
	groups map[string][]*core.Phase
}

// index collects sync groups ahead of scheduling.
func (r *replay) index(root *core.Phase) {
	root.Walk(func(p *core.Phase) {
		if p.Type != nil && p.Type.SyncGroup {
			key := syncKey(p)
			r.groups[key] = append(r.groups[key], p)
		}
	})
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

// Intrinsic returns a phase's replay duration before synchronization: the
// recorded duration, minus its own recorded waits when the type's waits are
// elastic (SyncGroup or ElasticWaits — barriers and drain phases whose waits
// are consequences of other phases).
func Intrinsic(p *core.Phase) vtime.Duration {
	d := p.Duration()
	if p.Type != nil && (p.Type.SyncGroup || p.Type.ElasticWaits) {
		d -= p.BlockedTime("")
	}
	if d < 0 {
		return 0
	}
	return d
}

func (r *replay) intrinsic(p *core.Phase) vtime.Duration {
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
func (r *replay) startOf(p *core.Phase) vtime.Time {
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
func (r *replay) endOf(p *core.Phase) vtime.Time {
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
func (r *replay) rawEnd(p *core.Phase) vtime.Time {
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
func (r *replay) syncEnd(key string) vtime.Time {
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

// concurrencyGroup returns the grouping key for imbalance analysis: phases of
// the same type under the same nearest Sequential (or root) ancestor are
// considered interchangeable — e.g. all gather threads of one iteration,
// across workers, but never across iterations (§III-F).
func concurrencyGroup(p *core.Phase) string {
	anchor := "/"
	for q := p.Parent; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			anchor = q.Path
			break
		}
	}
	return anchor + "|" + p.Type.Path()
}

// Groups partitions the trace's leaves into concurrency groups, keyed as
// described at concurrencyGroup. Groups are sorted by key; members by path.
func Groups(tr *core.ExecutionTrace) []Group {
	byKey := map[string][]*core.Phase{}
	for _, leaf := range tr.Leaves() {
		key := concurrencyGroup(leaf)
		byKey[key] = append(byKey[key], leaf)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Group
	for _, k := range keys {
		members := byKey[k]
		sort.Slice(members, func(i, j int) bool { return members[i].Path < members[j].Path })
		out = append(out, Group{TypePath: members[0].Type.Path(), Members: members})
	}
	return out
}

// Group is a set of interchangeable concurrent phases.
type Group struct {
	TypePath string
	Members  []*core.Phase
}

// MaxDuration returns the longest member duration.
func (g Group) MaxDuration() vtime.Duration {
	var maxD vtime.Duration
	for _, m := range g.Members {
		if d := m.Duration(); d > maxD {
			maxD = d
		}
	}
	return maxD
}
