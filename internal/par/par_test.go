package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const jobs = 1000
		hits := make([]int32, jobs)
		Do(jobs, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	Do(0, 4, func(int) { t.Fatal("fn called with zero jobs") })
	Do(-3, 4, func(int) { t.Fatal("fn called with negative jobs") })
}

func TestDoSerialIsInline(t *testing.T) {
	// workers=1 must run on the caller's goroutine, in index order.
	var order []int
	Do(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("expected panic \"boom\", got %v", r)
		}
	}()
	Do(100, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0, 1000); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 1000) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1, 2); got < 1 || got > 2 {
		t.Fatalf("Workers(-1, 2) = %d out of range", got)
	}
}
