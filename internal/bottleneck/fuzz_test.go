package bottleneck

import (
	"slices"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/vtime"
)

// span is the fuzzed job's length in time units of one millisecond.
const span = 100

func ms(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }

// fuzzBytes hands out the fuzzed bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// in returns a point of [lo, hi], snapped to one of the cut points inside
// that range about half the time, so stalls start and end on window edges.
func (b *fuzzBytes) in(lo, hi int, cuts []int) int {
	if b.next()%2 == 0 {
		for _, c := range cuts {
			if c >= lo && c <= hi && b.next()%2 == 0 {
				return c
			}
		}
	}
	return lo + b.next()%(hi-lo+1)
}

// fuzzTrace builds a finished trace from the fuzzed bytes: a job spanning
// [0, span) with up to three workers of up to two threads each, and up to
// three stalls per phase on gc or queue, a quarter of them zero-length. It
// also returns the window cut points inside the span, ascending.
func fuzzTrace(t *testing.T, data []byte) (*core.ExecutionTrace, []int) {
	t.Helper()
	root := core.NewRootType("job")
	root.Child("worker", false).Child("thread", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	b := fuzzBytes(data)
	var cuts []int
	for n := b.next() % 5; n > 0; n-- {
		if c := 1 + b.next()%(span-1); !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)

	var events []enginelog.Event
	phase := func(path string, s, e int) {
		events = append(events, enginelog.Event{Kind: enginelog.PhaseStart, Time: ms(s), Path: path, Machine: -1})
		for n := b.next() % 4; n > 0; n-- {
			res := []string{"gc", "queue"}[b.next()%2]
			bs := b.in(s, e, cuts)
			be := bs
			if b.next()%4 != 0 {
				be = b.in(bs, e, cuts)
			}
			events = append(events, enginelog.Event{Kind: enginelog.Blocked, Time: ms(bs), End: ms(be),
				Path: path, Resource: res})
		}
	}
	var ends []enginelog.Event
	end := func(path string, e int) {
		ends = append(ends, enginelog.Event{Kind: enginelog.PhaseEnd, Time: ms(e), Path: path})
	}
	phase("/job", 0, span)
	workers := 1 + b.next()%3
	for w := 0; w < workers; w++ {
		wp := "/job/worker." + string(rune('0'+w))
		ws := b.next() % span
		we := ws + b.next()%(span-ws+1)
		phase(wp, ws, we)
		threads := b.next() % 3
		for th := 0; th < threads; th++ {
			tp := wp + "/thread." + string(rune('0'+th))
			ts := b.in(ws, we, cuts)
			te := b.in(ts, we, cuts)
			phase(tp, ts, te)
			end(tp, te)
		}
		end(wp, we)
	}
	end("/job", span)
	tr, err := core.BuildExecutionTrace(&enginelog.Log{Events: append(events, ends...)}, model)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cuts
}

// rowLess is the stated Rows order: time descending, then type path,
// resource and kind.
func rowLess(a, b Row) bool {
	if a.Time != b.Time {
		return a.Time > b.Time
	}
	if a.TypePath != b.TypePath {
		return a.TypePath < b.TypePath
	}
	if a.Resource != b.Resource {
		return a.Resource < b.Resource
	}
	return a.Kind < b.Kind
}

// checkReport asserts what holds of every detection report: no bottleneck
// or row has zero time, the rows come in strictly increasing Rows order,
// and each row sums exactly the bottlenecks of its key.
func checkReport(t *testing.T, what string, rep *Report) {
	t.Helper()
	for _, b := range rep.Bottlenecks {
		if b.Time <= 0 {
			t.Fatalf("%s: bottleneck with no time: %s %s %s", what, b.Phase.Path, b.Resource, b.Kind)
		}
	}
	for i, r := range rep.Rows {
		if r.Time <= 0 {
			t.Fatalf("%s: row with no time: %+v", what, r)
		}
		if i > 0 && !rowLess(rep.Rows[i-1], r) {
			t.Fatalf("%s: rows out of order: %+v before %+v", what, rep.Rows[i-1], r)
		}
		var phases int
		var sum vtime.Duration
		for _, b := range rep.Bottlenecks {
			if b.Phase.Type.Path() == r.TypePath && b.Resource == r.Resource && b.Kind == r.Kind {
				phases++
				sum += b.Time
			}
		}
		if phases != r.Phases || sum != r.Time {
			t.Fatalf("%s: row %+v, but its bottlenecks are %d phases and %v", what, r, phases, sum)
		}
	}
}

// FuzzDetectWindows runs the one detector over a whole fuzzed trace and over
// each window of a partition of its span, as a live engine does. No row may
// have zero time, rows must come in the stated order, and for each (type
// path, resource) the windows' blocking times must sum exactly to the whole
// span's: a stall is charged to the windows it overlaps, once.
func FuzzDetectWindows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 40, 60, 3, 1, 0, 40, 0})
	f.Add([]byte{1, 50, 2, 1, 1, 1, 50, 1, 3, 2, 10, 80, 2, 3, 1, 2})
	f.Add([]byte{4, 10, 20, 30, 40, 3, 0, 1, 5, 1, 9, 1, 50, 1, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cuts := fuzzTrace(t, data)
		whole := Detect(&attribution.Profile{Trace: tr, Slices: core.NewTimeslices(tr.Start, tr.End, vtime.Millisecond)})
		checkReport(t, "whole span", whole)

		type key struct{ tp, res string }
		want := map[key]vtime.Duration{}
		for _, r := range whole.Rows {
			want[key{r.TypePath, r.Resource}] += r.Time
		}
		got := map[key]vtime.Duration{}
		bounds := append(append([]int{0}, cuts...), span)
		for i := 0; i+1 < len(bounds); i++ {
			win := core.NewTimeslices(ms(bounds[i]), ms(bounds[i+1]), vtime.Millisecond)
			rep := Detect(&attribution.Profile{Trace: tr, Slices: win})
			checkReport(t, "window", rep)
			for _, r := range rep.Rows {
				got[key{r.TypePath, r.Resource}] += r.Time
			}
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s on %s: windows sum to %v, whole span %v", k.tp, k.res, got[k], w)
			}
		}
		for k, g := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s on %s: windows charge %v, whole span nothing", k.tp, k.res, g)
			}
		}
	})
}
