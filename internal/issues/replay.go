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

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Durations overrides the replay durations of some leaves. Leaves absent
// from it keep their intrinsic duration: the recorded duration, minus the
// recorded synchronization wait for leaves of SyncGroup types (the replay
// re-derives those waits from the slowest group member).
type Durations []Override

// Override sets one leaf's replay duration. Negative durations replay as 0.
type Override struct {
	// Leaf indexes the schedule's leaves, numbered breadth-first.
	Leaf int32
	Dur  vtime.Duration
}

// Intrinsic returns a phase's replay duration before synchronization: the
// recorded duration, minus its own recorded waits when the type's waits are
// elastic (SyncGroup or ElasticWaits — barriers and drain phases whose waits
// are consequences of other phases).
func Intrinsic(p *core.Phase) vtime.Duration {
	d := p.Duration()
	if p.Type != nil && (p.Type.SyncGroup || p.Type.ElasticWaits) {
		d -= p.BlockedTime("", p.Start, p.End)
	}
	if d < 0 {
		return 0
	}
	return d
}

// anchorOf returns p's nearest Sequential ancestor, or nil under none. Sync
// groups and concurrency groups are anchored there: phases of one type
// under one anchor run concurrently, never across iterations.
func anchorOf(p *core.Phase) *core.Phase {
	for q := p.Parent; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			return q
		}
	}
	return nil
}

// groupKey identifies a concurrency or sync group: one type under one
// anchor (nil for the trace root).
type groupKey struct {
	anchor *core.Phase
	typ    *core.PhaseType
}

// name renders the key as "anchor path|type path", the order groups sort
// in.
func (k groupKey) name() string {
	anchor := "/"
	if k.anchor != nil {
		anchor = k.anchor.Path
	}
	return anchor + "|" + k.typ.Path()
}

// Groups partitions the trace's leaves into concurrency groups: leaves of
// the same type under the same nearest Sequential (or root) ancestor are
// interchangeable — e.g. all gather threads of one iteration, across
// workers, but never across iterations (§III-F). Groups are sorted by
// "anchor path|type path"; members by path.
func Groups(tr *core.ExecutionTrace) []Group {
	return groupLeaves(tr.Leaves())
}

// groupLeaves builds Groups over leaves, recording each member's index in
// leaves so what-ifs can address it in a schedule over the same leaves.
func groupLeaves(leaves []*core.Phase) []Group {
	byKey := map[groupKey]int{}
	var out []Group
	for i, leaf := range leaves {
		k := groupKey{anchorOf(leaf), leaf.Type}
		g, ok := byKey[k]
		if !ok {
			g = len(out)
			byKey[k] = g
			out = append(out, Group{TypePath: leaf.Type.Path(), key: k.name()})
		}
		out[g].Members = append(out[g].Members, leaf)
		out[g].leaves = append(out[g].leaves, int32(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	for gi := range out {
		sort.Sort(byPath{&out[gi]})
	}
	return out
}

// Group is a set of interchangeable concurrent phases.
type Group struct {
	TypePath string
	Members  []*core.Phase

	key    string  // sort key, "anchor path|type path"
	leaves []int32 // Members' indices in the trace's Leaves()
}

// byPath sorts a group's members, and their leaf indices with them, by path.
type byPath struct{ g *Group }

func (s byPath) Len() int           { return len(s.g.Members) }
func (s byPath) Less(i, j int) bool { return s.g.Members[i].Path < s.g.Members[j].Path }
func (s byPath) Swap(i, j int) {
	s.g.Members[i], s.g.Members[j] = s.g.Members[j], s.g.Members[i]
	s.g.leaves[i], s.g.leaves[j] = s.g.leaves[j], s.g.leaves[i]
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
