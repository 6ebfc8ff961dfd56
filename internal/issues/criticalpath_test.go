package issues

import (
	"strings"
	"testing"
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
