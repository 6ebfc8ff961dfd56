package issues

import (
	"cmp"
	"slices"
	"sync"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Schedule is a finished execution trace compiled for replay under the
// paper's simplified system model:
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
// Compile derives every fact of that model once: intrinsic leaf durations,
// After predecessors, each sequential instance's predecessor and sync-group
// membership. It lays the resulting times — each phase's start, raw end
// (before sync coupling) and end, and each sync group's common end — out as
// nodes in one evaluation order, each the latest of its dependencies. A
// replay is then one pass over flat arrays; the issue detector runs one per
// what-if candidate, concurrently.
type Schedule struct {
	leaves    []*core.Phase         // breadth-first; Override.Leaf indexes it
	leafIndex map[*core.Phase]int32 // each leaf's index in leaves
	intrinsic []vtime.Duration      // Intrinsic of each leaf

	// The evaluation program. Node i is the latest value among its
	// dependencies deps[off[i]:off[i+1]] (zero with none), plus the replay
	// duration of leaf add[i] when add[i] >= 0 (a leaf's end is its start
	// plus its duration). Nodes are numbered in evaluation order, so every
	// dependency precedes its dependent.
	deps []int32
	off  []int32
	add  []int32

	// The phase tree, numbered breadth-first from the trace root (0), so
	// each phase's children are consecutive and one level's phases keep
	// depth-first order. The critical path walks it.
	phases   []*core.Phase
	parent   []int32 // -1 for the root
	firstKid []int32
	seqIndex []int   // a Sequential phase's instance index (last path segment), or -1
	leafOf   []int32 // phase of each leaf
	// prev is each Sequential phase's predecessor (sequence), or -1; tied
	// lists the Sequential phases that share their index with an earlier
	// sibling in child order, which no prev chain passes through.
	prev []int32
	tied []int32
	// start, rawEnd and end are each phase's nodes; group is its sync group
	// or -1. Group g's node is groupEnd[g] and its members, in depth-first
	// order, are members[memOff[g]:memOff[g+1]].
	start, rawEnd, end []int32
	group              []int32
	groupEnd           []int32
	members, memOff    []int32

	pool sync.Pool // *scratch
}

// scratch holds one replay's node values and leaf durations.
type scratch struct {
	val []vtime.Time
	dur []vtime.Duration
}

// Compile builds the replay schedule of a finished trace.
func Compile(tr *core.ExecutionTrace) *Schedule {
	s := &Schedule{}
	leafIdx := s.number(tr.Root, len(tr.ByPath)+1, len(tr.Leaves()))
	n := int32(len(s.phases))

	// Before renumbering, phase p's raw end is node p, sync group g's end
	// is node n+g, and start nodes follow.
	s.groupSync(n)
	ng := int32(len(s.memOff) - 1)
	endOf := func(p int32) int32 {
		if g := s.group[p]; g >= 0 {
			return n + g
		}
		return p
	}
	startOf, sdeps, soff := s.starts(n+ng, endOf)
	total := n + ng + int32(len(soff)-1)

	// The dependency graph over raw ids, as CSR.
	rawOff := make([]int32, 0, total+1)
	rawDeps := make([]int32, 0, 2*total)
	rawOff = append(rawOff, 0)
	for p := int32(0); p < n; p++ {
		rawDeps = append(rawDeps, startOf[p])
		for k := range s.phases[p].Children {
			rawDeps = append(rawDeps, endOf(s.firstKid[p]+int32(k)))
		}
		rawOff = append(rawOff, int32(len(rawDeps)))
	}
	for g := int32(0); g < ng; g++ {
		rawDeps = append(rawDeps, s.members[s.memOff[g]:s.memOff[g+1]]...)
		rawOff = append(rawOff, int32(len(rawDeps)))
	}
	for k := 0; k+1 < len(soff); k++ {
		rawDeps = append(rawDeps, sdeps[soff[k]:soff[k+1]]...)
		rawOff = append(rawOff, int32(len(rawDeps)))
	}

	order := topoOrder(rawDeps, rawOff)
	pos := make([]int32, total)
	for i, node := range order {
		pos[node] = int32(i)
	}
	s.off = make([]int32, 1, total+1)
	s.deps = make([]int32, 0, len(rawDeps))
	s.add = make([]int32, total)
	for i, node := range order {
		for _, d := range rawDeps[rawOff[node]:rawOff[node+1]] {
			s.deps = append(s.deps, pos[d])
		}
		s.off = append(s.off, int32(len(s.deps)))
		s.add[i] = -1
		if node < n {
			s.add[i] = leafIdx[node]
		}
	}
	s.start, s.rawEnd, s.end = make([]int32, n), make([]int32, n), make([]int32, n)
	for p := int32(0); p < n; p++ {
		s.start[p], s.rawEnd[p], s.end[p] = pos[startOf[p]], pos[p], pos[endOf(p)]
	}
	s.groupEnd = make([]int32, ng)
	for g := int32(0); g < ng; g++ {
		s.groupEnd[g] = pos[n+g]
	}
	s.pool.New = func() any {
		return &scratch{val: make([]vtime.Time, len(s.add)), dur: make([]vtime.Duration, len(s.leaves))}
	}
	return s
}

// number lays the tree of about n phases out breadth-first, indexes its
// about nleaves leaves in the same order, and returns each phase's leaf
// index, or -1.
func (s *Schedule) number(root *core.Phase, n, nleaves int) []int32 {
	s.leaves = make([]*core.Phase, 0, nleaves)
	s.leafIndex = make(map[*core.Phase]int32, nleaves)
	s.leafOf = make([]int32, 0, nleaves)
	s.intrinsic = make([]vtime.Duration, 0, nleaves)
	s.phases = append(make([]*core.Phase, 0, n), root)
	s.parent = append(make([]int32, 0, n), -1)
	s.firstKid = make([]int32, 0, n)
	s.seqIndex = make([]int, 0, n)
	leafIdx := make([]int32, 0, n)
	for p := 0; p < len(s.phases); p++ {
		ph := s.phases[p]
		s.firstKid = append(s.firstKid, int32(len(s.phases)))
		li := int32(-1)
		if p > 0 && len(ph.Children) == 0 {
			li = int32(len(s.leaves))
			s.leafIndex[ph] = li
			s.leaves = append(s.leaves, ph)
			s.leafOf = append(s.leafOf, int32(p))
			s.intrinsic = append(s.intrinsic, Intrinsic(ph))
		}
		leafIdx = append(leafIdx, li)
		idx := -1
		if ph.Type != nil && ph.Type.Sequential {
			idx = ph.Index()
		}
		s.seqIndex = append(s.seqIndex, idx)
		for _, c := range ph.Children {
			s.phases = append(s.phases, c)
			s.parent = append(s.parent, int32(p))
		}
	}
	return leafIdx
}

// groupSync assigns every phase of a SyncGroup type to its sync group: one
// type under one nearest Sequential ancestor. Members keep depth-first
// order, because a group's members share one depth.
func (s *Schedule) groupSync(n int32) {
	s.group = make([]int32, n)
	byKey := map[groupKey]int32{}
	var size []int32
	for p := int32(0); p < n; p++ {
		s.group[p] = -1
		ph := s.phases[p]
		if ph.Type == nil || !ph.Type.SyncGroup {
			continue
		}
		k := groupKey{anchorOf(ph), ph.Type}
		g, ok := byKey[k]
		if !ok {
			g = int32(len(size))
			byKey[k] = g
			size = append(size, 0)
		}
		size[g]++
		s.group[p] = g
	}
	s.memOff = make([]int32, len(size)+1)
	for g, c := range size {
		s.memOff[g+1] = s.memOff[g] + c
	}
	s.members = make([]int32, s.memOff[len(size)])
	fill := append([]int32(nil), s.memOff[:len(size)]...)
	for p := int32(0); p < n; p++ {
		if g := s.group[p]; g >= 0 {
			s.members[fill[g]] = p
			fill[g]++
		}
	}
}

// starts returns each phase's start node (raw ids from next on) and the
// dependencies of the start nodes it allocates, as CSR. A phase starts with
// its parent, after the siblings its type is After and after the previous
// instance of a Sequential type; a phase with neither shares its parent's
// start node.
func (s *Schedule) starts(next int32, endOf func(int32) int32) (startOf, deps, off []int32) {
	n := int32(len(s.phases))
	startOf = make([]int32, n)
	s.sequence()
	off = []int32{0}
	alloc := func(extra []int32, parentStart int32) int32 {
		if parentStart >= 0 {
			deps = append(deps, parentStart)
		}
		deps = append(deps, extra...)
		off = append(off, int32(len(deps)))
		next++
		return next - 1
	}
	startOf[0] = alloc(nil, -1)
	var extra []int32
	for p := int32(1); p < n; p++ {
		ph, par := s.phases[p], s.parent[p]
		extra = extra[:0]
		if ph.Type != nil && len(ph.Type.After) > 0 {
			after := ph.Type.After
			kids := s.phases[par].Children
			for k, sib := range kids {
				q := s.firstKid[par] + int32(k)
				if q != p && sib.Type != nil && slices.Contains(after, sib.Type.Name) {
					extra = append(extra, endOf(q))
				}
			}
		}
		if s.prev[p] >= 0 {
			extra = append(extra, endOf(s.prev[p]))
		}
		if len(extra) == 0 {
			startOf[p] = startOf[par]
			continue
		}
		startOf[p] = alloc(extra, startOf[par])
	}
	return startOf, deps, off
}

// sequence sets each Sequential phase's predecessor: among its siblings of
// the same type, the one with the highest instance index below its own,
// first in child order on ties; -1 when there is none. The instances of an
// index but the first in child order go to tied.
func (s *Schedule) sequence() {
	n := int32(len(s.phases))
	s.prev = make([]int32, n)
	for i := range s.prev {
		s.prev[i] = -1
	}
	var run []int32
	var sequenced []*core.PhaseType
	for par := int32(0); par < n; par++ {
		kids := s.phases[par].Children
		sequenced = sequenced[:0]
		for k, c := range kids {
			if c.Type == nil || !c.Type.Sequential || slices.Contains(sequenced, c.Type) {
				continue
			}
			sequenced = append(sequenced, c.Type)
			// The type's indexed instances in child order, stably by index.
			run = run[:0]
			for j := k; j < len(kids); j++ {
				if q := s.firstKid[par] + int32(j); kids[j].Type == c.Type && s.seqIndex[q] >= 0 {
					run = append(run, q)
				}
			}
			slices.SortStableFunc(run, func(a, b int32) int { return cmp.Compare(s.seqIndex[a], s.seqIndex[b]) })
			before, head := int32(-1), int32(-1) // first of the previous and current index
			for i, q := range run {
				if i == 0 || s.seqIndex[q] != s.seqIndex[run[i-1]] {
					before, head = head, q
				} else {
					s.tied = append(s.tied, q)
				}
				s.prev[q] = before
			}
		}
	}
}

// topoOrder orders the nodes of a dependency graph (CSR over raw ids) so
// that each follows its dependencies. A cycle panics: the execution model
// rules them out (checkSiblingDAG, and no type both Sequential and
// SyncGroup).
func topoOrder(deps, off []int32) []int32 {
	total := int32(len(off) - 1)
	const (
		unseen = iota
		open
		done
	)
	state := make([]uint8, total)
	order := make([]int32, 0, total)
	type frame struct{ node, next int32 }
	var stack []frame
	for root := int32(0); root < total; root++ {
		if state[root] != unseen {
			continue
		}
		state[root] = open
		stack = append(stack, frame{root, off[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == off[f.node+1] {
				state[f.node] = done
				order = append(order, f.node)
				stack = stack[:len(stack)-1]
				continue
			}
			d := deps[f.next]
			f.next++
			switch state[d] {
			case unseen:
				state[d] = open
				stack = append(stack, frame{d, off[d]})
			case open:
				panic("issues: replay dependencies form a cycle")
			}
		}
	}
	return order
}

// Replay returns the makespan (root end, with the root starting at zero) of
// the trace replayed with durs overriding leaf durations. It allocates
// nothing once its scratch pool is warm, and is safe for concurrent use.
func (s *Schedule) Replay(durs Durations) vtime.Duration {
	sc := s.pool.Get().(*scratch)
	makespan := vtime.Duration(s.run(sc, durs)[s.end[0]])
	s.pool.Put(sc)
	return makespan
}

// replayPath replays like Replay and also extracts the critical path.
func (s *Schedule) replayPath(durs Durations) (vtime.Duration, []CriticalStep) {
	sc := s.pool.Get().(*scratch)
	val := s.run(sc, durs)
	makespan, path := vtime.Duration(val[s.end[0]]), s.criticalPath(val)
	s.pool.Put(sc)
	return makespan, path
}

// run evaluates every node into sc and returns the node values.
func (s *Schedule) run(sc *scratch, durs Durations) []vtime.Time {
	dur := sc.dur
	copy(dur, s.intrinsic)
	for _, o := range durs {
		dur[o.Leaf] = max(o.Dur, 0)
	}
	val := sc.val
	for i := range val {
		var t vtime.Time
		for _, d := range s.deps[s.off[i]:s.off[i+1]] {
			if v := val[d]; v > t {
				t = v
			}
		}
		if l := s.add[i]; l >= 0 {
			t = t.Add(dur[l])
		}
		val[i] = t
	}
	return val
}
