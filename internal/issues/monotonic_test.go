package issues

import (
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/vtime"
)

// Property: replay makespan is monotone in leaf durations — shrinking any
// subset of leaves never lengthens the schedule, growing never shortens it.
// This is the soundness condition behind every "optimistic upper bound" the
// issue detectors report.
func TestReplayMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random BSP-like shape: 1-3 supersteps, 1-3 workers, 1-4 threads.
		supersteps := 1 + rng.Intn(3)
		workers := 1 + rng.Intn(3)
		threads := 1 + rng.Intn(4)
		shape := make([][][]int64, supersteps)
		for s := range shape {
			shape[s] = make([][]int64, workers)
			for w := range shape[s] {
				shape[s][w] = make([]int64, threads)
				for th := range shape[s][w] {
					shape[s][w][th] = int64(1 + rng.Intn(30))
				}
			}
		}
		tr := bspTrace(t, shape)
		base := replay(t, tr, nil)

		// Shrink a random subset.
		shrunk := phaseDurs{}
		grown := phaseDurs{}
		for _, leaf := range tr.Leaves() {
			if rng.Intn(2) == 0 {
				shrunk[leaf] = leaf.Duration() / 2
			}
			if rng.Intn(2) == 0 {
				grown[leaf] = leaf.Duration() * 2
			}
		}
		if replay(t, tr, shrunk) > base {
			return false
		}
		if replay(t, tr, grown) < base {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the replayed makespan of the unmodified trace never exceeds the
// recorded makespan (stripping elastic waits and re-deriving sync can only
// tighten the schedule; fixed leaves keep it equal).
func TestReplayNeverExceedsRecordedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := [][][]int64{{
			make([]int64, 1+rng.Intn(4)),
			make([]int64, 1+rng.Intn(4)),
		}}
		for w := range shape[0] {
			for th := range shape[0][w] {
				shape[0][w][th] = int64(1 + rng.Intn(50))
			}
		}
		tr := bspTrace(t, shape)
		recorded := vtime.Duration(tr.End.Sub(tr.Start))
		return replay(t, tr, nil) <= recorded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
