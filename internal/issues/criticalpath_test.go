package issues

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"grade10/internal/race"
)

func TestCriticalPathFollowsSlowestWorkers(t *testing.T) {
	// Superstep 0: worker 1's thread 1 (40s) dominates.
	// Superstep 1: worker 0's thread 0 (25s) dominates.
	tr := bspTrace(t, [][][]int64{
		{{5, 10}, {8, 40}},
		{{25, 5}, {10, 10}},
	})
	path := criticalPath(t, tr)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	var paths []string
	for _, s := range path {
		paths = append(paths, s.Phase.Path)
	}
	joined := strings.Join(paths, " → ")
	// The dominating threads must appear, in execution order.
	i40 := strings.Index(joined, "superstep.0/worker.1/thread.1")
	i25 := strings.Index(joined, "superstep.1/worker.0/thread.0")
	iw := strings.Index(joined, "/app/write")
	if i40 < 0 || i25 < 0 || iw < 0 {
		t.Fatalf("critical path missing key steps: %s", joined)
	}
	if !(i40 < i25 && i25 < iw) {
		t.Fatalf("critical path out of order: %s", joined)
	}
	// Intervals are contiguous in replay time for chained steps.
	for i := 1; i < len(path); i++ {
		if path[i].Start < path[i-1].Start {
			t.Fatalf("path not ordered by start: %s", joined)
		}
	}
	// The final step ends at the replayed makespan.
	makespan := replay(t, tr, nil)
	if path[len(path)-1].End.Sub(0) != makespan {
		t.Fatalf("path ends at %v, makespan %v", path[len(path)-1].End, makespan)
	}
}

func TestCriticalPathCrossesSyncGroups(t *testing.T) {
	// GAS iteration: worker 1's gather (20s) is the straggler before the
	// exchange sync; worker 0's apply (5s) dominates after it. The path must
	// jump from worker 0's exchange back to worker 1's gather.
	tr := gasTrace(t, []int64{10, 20}, []int64{2, 2}, []int64{5, 3})
	path := criticalPath(t, tr)
	var paths []string
	for _, s := range path {
		paths = append(paths, s.Phase.Path)
	}
	joined := strings.Join(paths, " → ")
	ig := strings.Index(joined, "worker.1/gather")
	ia := strings.Index(joined, "worker.0/apply")
	if ig < 0 || ia < 0 {
		t.Fatalf("critical path missing straggler or apply: %s", joined)
	}
	if ig > ia {
		t.Fatalf("straggler after apply in path: %s", joined)
	}
}

func TestCriticalPathSingleLeaf(t *testing.T) {
	tr := bspTrace(t, [][][]int64{{{7}}})
	path := criticalPath(t, tr)
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// Ends with the write phase (last sequential step).
	last := path[len(path)-1].Phase.Path
	if last != "/app/write" {
		t.Fatalf("last step %s", last)
	}
}

// manySupersteps builds a BSP trace of n supersteps, two workers of two
// threads each, with thread durations cycling through 1-5 s so the slowest
// worker changes from one superstep to the next.
func manySupersteps(t testing.TB, n int) *Schedule {
	t.Helper()
	durs := make([][][]int64, n)
	for s := range durs {
		durs[s] = make([][]int64, 2)
		for w := range durs[s] {
			durs[s][w] = []int64{1 + int64(s*7+w*3)%5, 1 + int64(s*3+w*5+1)%5}
		}
	}
	return Compile(bspTrace(t, durs))
}

// BenchmarkCriticalPath times the replay of the recorded durations plus the
// critical-path walk over BSP traces of two lengths.
func BenchmarkCriticalPath(b *testing.B) {
	for _, n := range []int{500, 4000} {
		s := manySupersteps(b, n)
		b.Run(fmt.Sprintf("supersteps=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.replayPath(nil)
			}
		})
	}
}

// TestCriticalPathLinear guards the critical-path walk against growing
// faster than the run: per superstep, replay plus critical path at 4000
// supersteps costs within 2x of its cost at 500. A walk that scans every
// sibling superstep for each step of the path is quadratic and fails here.
// The 500-superstep side cycles through eight schedules, so both sides touch
// the same amount of memory and a cache that holds one small schedule but
// not the large one does not count as growth. Each run times both sides for
// at least sampleTime, back to back so that load from other processes falls
// on both, and the median of 5 runs' ratios is compared.
func TestCriticalPathLinear(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation distorts the timing comparison")
	}
	const (
		samples    = 5
		sampleTime = 50 * time.Millisecond
	)
	var short []*Schedule
	for range 8 {
		short = append(short, manySupersteps(t, 500))
	}
	long := []*Schedule{manySupersteps(t, 4000)}
	perStep := func(ss []*Schedule, n int) float64 {
		runtime.GC()
		reps, t0 := 0, time.Now()
		for time.Since(t0) < sampleTime {
			ss[reps%len(ss)].replayPath(nil)
			reps++
		}
		return float64(time.Since(t0)) / float64(n*reps)
	}
	perStep(short, 500) // warm the scratch pools
	perStep(long, 4000)
	ratios := make([]float64, samples)
	for i := range ratios {
		ratios[i] = perStep(long, 4000) / perStep(short, 500)
	}
	slices.Sort(ratios)
	if r := ratios[samples/2]; r > 2 {
		t.Errorf("critical path per superstep at 4000 supersteps is %.2fx its cost at 500 (median of %.2f), want at most 2x",
			r, ratios)
	}
}
