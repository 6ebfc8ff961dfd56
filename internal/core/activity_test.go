package core

import (
	"runtime/debug"
	"sort"
	"testing"

	"grade10/internal/race"
	"grade10/internal/vtime"
)

// oracleBlockedWithin is the original BlockedWithin, kept verbatim as the
// oracle for the stall-union rewrite: it collects the clipped stalls of the
// phase and its ancestors per call, sorts them and sums their union.
func oracleBlockedWithin(p *Phase, resource string, t0, t1 vtime.Time) vtime.Duration {
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

// oracleActiveTime is ActiveTime over the oracle union.
func oracleActiveTime(p *Phase, t0, t1 vtime.Time) vtime.Duration {
	lo := vtime.Max(p.Start, t0)
	hi := vtime.Min(p.End, t1)
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo) - oracleBlockedWithin(p, "", lo, hi)
}

// fuzzBytes hands out fuzz input one small number at a time, zero once
// exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

var fuzzResources = []string{"", "gc", "net"}

// fuzzChain builds a chain of nested phases, outermost first, from fuzz
// input: arbitrary spans (children need not lie inside parents) and stalls
// that overlap, nest, have zero length or run backwards, in arbitrary order.
func fuzzChain(b *fuzzBytes) []*Phase {
	depth := 1 + b.next(4)
	chain := make([]*Phase, depth)
	var parent *Phase
	for d := range chain {
		p := &Phase{Parent: parent}
		p.Start = vtime.Time(b.next(60))
		p.End = p.Start + vtime.Time(b.next(80))
		for n := b.next(6); n > 0; n-- {
			s := vtime.Time(b.next(120))
			e := s + vtime.Time(b.next(40)) - 5
			p.Blocked = append(p.Blocked, BlockInterval{Resource: fuzzResources[b.next(3)], Start: s, End: e})
		}
		chain[d] = p
		parent = p
	}
	return chain
}

// FuzzActiveTimes checks the one-sweep activity row and the pooled
// BlockedWithin against the oracle on random nested phases and timeslices.
func FuzzActiveTimes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 70, 2, 10, 20, 1, 30, 10, 2, 5, 50, 1, 40, 5, 0, 7, 3, 0, 9, 4})
	f.Add([]byte{3, 0, 79, 3, 50, 9, 0, 20, 39, 1, 21, 0, 2, 10, 60, 2, 0, 39, 1, 30, 10, 0, 0, 3, 15, 1, 2, 2, 5})
	f.Add([]byte{1, 5, 40, 4, 10, 5, 1, 10, 5, 1, 12, 0, 2, 8, 30, 2, 1, 13, 6, 0, 1, 0})
	// A child stall that starts after its parent's: the union sees them
	// out of start order.
	f.Add([]byte{1, 0, 50, 1, 10, 35, 1, 0, 60, 1, 30, 15, 0, 0, 59, 9, 0, 5, 0, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		chain := fuzzChain(&b)
		leaf := chain[len(chain)-1]
		start := vtime.Time(b.next(50))
		ts := NewTimeslices(start, start+vtime.Time(1+b.next(120)), vtime.Duration(1+b.next(30)))
		first := b.next(ts.Count)
		n := 1 + b.next(ts.Count-first)

		var st Stalls
		row := make([]vtime.Duration, n)
		for pass := 0; pass < 2; pass++ { // the second pass reuses warm scratch
			leaf.ActiveTimes(ts, first, row, &st)
			for i, got := range row {
				t0, t1 := ts.Bounds(first + i)
				if want := oracleActiveTime(leaf, t0, t1); got != want {
					t.Fatalf("pass %d slice %d [%v,%v): ActiveTimes %v, oracle %v", pass, first+i, t0, t1, got, want)
				}
				if got, want := leaf.ActiveTime(t0, t1), oracleActiveTime(leaf, t0, t1); got != want {
					t.Fatalf("slice %d: ActiveTime %v, oracle %v", first+i, got, want)
				}
			}
		}
		t0 := vtime.Time(b.next(130))
		t1 := t0 + vtime.Time(b.next(130)) - 10
		for _, res := range append(fuzzResources, "disk") {
			for _, p := range chain {
				if got, want := p.BlockedWithin(res, t0, t1), oracleBlockedWithin(p, res, t0, t1); got != want {
					t.Fatalf("BlockedWithin(%q, %v, %v) = %v, oracle %v", res, t0, t1, got, want)
				}
			}
		}
	})
}

// TestActiveTimesZeroAlloc guards the sweep behind the activity table: once
// the scratch is warm, filling a row and a pooled BlockedWithin allocate
// nothing.
func TestActiveTimesZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race mode randomly bypasses sync.Pool; alloc counts are nondeterministic")
	}
	tr := simpleTrace(t)
	leaf := tr.ByPath["/app/execute/superstep.0/worker.0/compute"]
	leaf.Parent.Blocked = append(leaf.Parent.Blocked, BlockInterval{Resource: "gc", Start: at(120), End: at(150)})
	ts := NewTimeslices(tr.Start, tr.End, 7*ms)
	first, last := ts.Range(leaf.Start, leaf.End)
	row := make([]vtime.Duration, last-first)
	var st Stalls
	leaf.ActiveTimes(ts, first, row, &st) // warm the scratch
	leaf.BlockedWithin("gc", leaf.Start, leaf.End)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		leaf.ActiveTimes(ts, first, row, &st)
		leaf.BlockedWithin("gc", leaf.Start, leaf.End)
	})
	if allocs != 0 {
		t.Fatalf("warm sweep allocated %v per run, want 0", allocs)
	}
	for i, got := range row {
		t0, t1 := ts.Bounds(first + i)
		if want := oracleActiveTime(leaf, t0, t1); got != want {
			t.Fatalf("slice %d: %v, oracle %v", first+i, got, want)
		}
	}
}
