package issues

import (
	"slices"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// CriticalStep is one leaf on the critical path with its replayed interval.
type CriticalStep struct {
	Phase *core.Phase
	Start vtime.Time
	End   vtime.Time
}

// criticalPath extracts, from one replay's node values, the chain of leaf
// phases that determines the replayed makespan: starting from the leaf whose
// end equals the root end, it walks backward through whichever dependency
// (sibling precedence, sequential predecessor, or sync-group straggler)
// pinned each start. The paper's §VI groups critical-path analysis with
// Grade10 as complementary techniques; here it falls out of the replay
// scheduler directly.
//
// The result is ordered from the start of the execution to its end. Gaps are
// possible where a leaf's start was pinned by its parent's start rather than
// another leaf.
func (s *Schedule) criticalPath(val []vtime.Time) []CriticalStep {
	makespan := val[s.end[0]]

	// Find the leaf whose replayed end matches the makespan; among ties take
	// the lexicographically first for determinism.
	cur := int32(-1)
	for _, p := range s.leafOf {
		if val[s.end[p]] == makespan && (cur < 0 || s.phases[p].Path < s.phases[cur].Path) {
			cur = p
		}
	}
	// A sync-group leaf's coupled end may exceed every leaf's raw end only
	// when the group's straggler is itself a leaf, so cur is found whenever
	// the trace has leaves at all.
	if cur < 0 {
		return nil
	}

	var path []CriticalStep
	seen := make([]bool, len(s.phases))
	for cur >= 0 && !seen[cur] {
		seen[cur] = true
		path = append(path, CriticalStep{Phase: s.phases[cur], Start: val[s.start[cur]], End: val[s.end[cur]]})
		cur = s.pinnedBy(val, cur)
	}
	slices.Reverse(path)
	return path
}

// pinnedBy returns the leaf that determined p's (or its sync group's)
// schedule, or -1 when p starts with its ancestors at time zero.
func (s *Schedule) pinnedBy(val []vtime.Time, p int32) int32 {
	// If p belongs to a sync group and its raw end is below the group end,
	// the straggling member is the real constraint.
	if g := s.group[p]; g >= 0 {
		groupEnd := val[s.groupEnd[g]]
		if val[s.rawEnd[p]] < groupEnd {
			for _, m := range s.members[s.memOff[g]:s.memOff[g+1]] {
				if m != p && val[s.rawEnd[m]] == groupEnd {
					return s.deepestLeafEndingAt(val, m, groupEnd)
				}
			}
		}
	}
	// Otherwise walk up from p until an ancestor whose start was pinned by a
	// predecessor, and descend into the predecessor's latest leaf.
	for q := p; q >= 0; q = s.parent[q] {
		start := val[s.start[q]]
		if start == 0 {
			return -1
		}
		if par := s.parent[q]; par >= 0 && val[s.start[par]] == start {
			continue // inherited from the parent: keep climbing
		}
		if pred := s.predecessorEndingAt(val, q, start); pred >= 0 {
			return s.deepestLeafEndingAt(val, pred, start)
		}
	}
	return -1
}

// predecessorEndingAt finds the first sibling in child order (an After
// predecessor, or a lower-indexed instance of q's Sequential type) whose
// replayed end equals q's start. Only After edges need a scan of the
// siblings. The lower-indexed instances are q's prev chain plus the tied
// instances no chain passes through. Each instance on the chain starts no
// earlier than the next one back ends, so ends only fall along the walk
// back from q, and the walk stops at the first end below q's start.
func (s *Schedule) predecessorEndingAt(val []vtime.Time, q int32, start vtime.Time) int32 {
	par, typ := s.parent[q], s.phases[q].Type
	if par < 0 || typ == nil {
		return -1
	}
	first := int32(-1) // children are numbered consecutively, in child order
	match := func(b int32) {
		if val[s.end[b]] == start && (first < 0 || b < first) {
			first = b
		}
	}
	if len(typ.After) > 0 {
		for k, sib := range s.phases[par].Children {
			if b := s.firstKid[par] + int32(k); b != q && sib.Type != nil && slices.Contains(typ.After, sib.Type.Name) {
				match(b)
			}
		}
	}
	for b := s.prev[q]; b >= 0 && val[s.end[b]] == start; b = s.prev[b] {
		match(b)
	}
	for _, b := range s.tied {
		if s.parent[b] == par && s.phases[b].Type == typ && s.seqIndex[b] < s.seqIndex[q] {
			match(b)
		}
	}
	return first
}

// deepestLeafEndingAt descends from p to a leaf whose replayed end matches t,
// taking the lexicographically first child on ties.
func (s *Schedule) deepestLeafEndingAt(val []vtime.Time, p int32, t vtime.Time) int32 {
	for len(s.phases[p].Children) > 0 {
		next := int32(-1)
		for k := range s.phases[p].Children {
			c := s.firstKid[p] + int32(k)
			if val[s.end[c]] == t && (next < 0 || s.phases[c].Path < s.phases[next].Path) {
				next = c
			}
		}
		if next < 0 {
			return p
		}
		p = next
	}
	return p
}
