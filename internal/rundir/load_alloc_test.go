package rundir_test

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/race"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// loadAllocCeiling is the most bytes one Load of the fixture run below may
// allocate: the measured 88,033 bytes (Go 1.24, linux/amd64) plus 10%. It
// may only fall. A change that needs it raised has made decoding a run
// directory more expensive.
const loadAllocCeiling = 97_000

// TestLoadAllocRatchet measures the bytes one warm rundir.Load of a small
// fixed-seed text run allocates, on one P with the GC held off, against a
// committed ceiling.
func TestLoadAllocRatchet(t *testing.T) {
	if race.Enabled {
		t.Skip("race mode randomly bypasses sync.Pool; allocation figures are nondeterministic")
	}
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "ratchet", Gen: func() *graph.Graph { return graph.RMAT(9, 8, 3) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := rundir.SaveOpts(dir, &rundir.Run{
		Log: run.Result.Log, Monitoring: mon,
		Info: rundir.Info{Engine: "giraph", Job: "pagerank", Workers: cfg.Workers,
			StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End)},
	}, rundir.SaveOptions{}); err != nil {
		t.Fatal(err)
	}

	load := func() {
		if _, err := rundir.Load(dir); err != nil {
			t.Fatal(err)
		}
	}
	// One P, so every Get meets the P-local slot the warm-up Put filled
	// (another P's private slot cannot be stolen), and no GC from the warm-up
	// on, so no cycle empties the pools before the measured loads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	load() // warm the pools
	const loads = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range loads {
		load()
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / loads
	t.Logf("one Load of %d events allocates %d bytes (ceiling %d)", len(run.Result.Log.Events), perLoad, loadAllocCeiling)
	if perLoad > loadAllocCeiling {
		t.Fatalf("one Load allocates %d bytes, above the ceiling of %d", perLoad, loadAllocCeiling)
	}
}
