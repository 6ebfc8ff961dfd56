package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grade10/internal/cluster"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// fastFollow are the tailing knobs for tests: the fixture directories are
// complete before registration, so short poll/idle cycles finish each run
// in tens of milliseconds.
const (
	testPoll = 2 * time.Millisecond
	testIdle = 10 * time.Millisecond
)

// fleetFixture holds two template run directories: a quiet baseline and a
// noisy variant of the same job (heavy unmodeled background CPU load), both
// declaring the same shared hosts in their placement manifests.
type fleetFixture struct {
	quietDir string
	noisyDir string
}

var (
	ffOnce sync.Once
	ff     *fleetFixture
	ffErr  error
)

func getFleetFixture(t *testing.T) *fleetFixture {
	t.Helper()
	ffOnce.Do(func() {
		root, err := os.MkdirTemp("", "grade10-fleet-fixture-")
		if err != nil {
			ffErr = err
			return
		}
		quiet, err := simulateRun(1)
		if err != nil {
			ffErr = err
			return
		}
		noisy, err := simulateRun(2.5)
		if err != nil {
			ffErr = err
			return
		}
		f := &fleetFixture{
			quietDir: filepath.Join(root, "quiet"),
			noisyDir: filepath.Join(root, "noisy"),
		}
		if err := rundir.SaveOpts(f.quietDir, quiet, rundir.SaveOptions{}); err != nil {
			ffErr = err
			return
		}
		if err := rundir.SaveOpts(f.noisyDir, noisy, rundir.SaveOptions{}); err != nil {
			ffErr = err
			return
		}
		ff = f
	})
	if ffErr != nil {
		t.Fatalf("building fleet fixture: %v", ffErr)
	}
	return ff
}

// simulateRun executes a small BSP job and packages it as a run directory
// payload whose placement manifest maps both workers onto shared hosts. The
// machines have few cores so compute saturates them — co-scheduling two such
// runs on one host overcommits its CPU, which is what blame measures. scale
// multiplies the compute costs, making the scaled variant measurably slower
// (a cross-run regression) with a distinct record content ID.
func simulateRun(scale float64) (*rundir.Run, error) {
	ds := workload.Dataset{Name: "fleet-test",
		Gen: func() *graph.Graph { return graph.RMAT(9, 8, 7) }}
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.Machine.Cores = 1
	cfg.CostPerVertex *= scale
	cfg.CostPerEdge *= scale
	cfg.CostPerMessage *= scale
	cfg.PrepareCost *= scale
	run, err := workload.RunGiraph(workload.Spec{Dataset: ds, Algorithm: "bfs"}, cfg)
	if err != nil {
		return nil, err
	}
	monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start,
		run.Result.End, 10*vtime.Millisecond)
	if err != nil {
		return nil, err
	}
	prog, err := workload.NewProgram("bfs", ds.Graph())
	if err != nil {
		return nil, err
	}
	return &rundir.Run{
		Info: rundir.Info{
			Engine: "giraph", Job: prog.Name(), Workers: cfg.Workers,
			ThreadsPerWorker: cfg.ThreadsPerWorker, Cores: cfg.Machine.Cores,
			NetBandwidth: cfg.Machine.NetBandwidth, DiskBandwidth: cfg.Machine.DiskBandwidth,
			StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End),
			Placement: []rundir.Placement{
				{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"},
			},
		},
		Log:        run.Result.Log,
		Monitoring: monitoring,
	}, nil
}

// copyRun clones a template run directory, optionally replacing the
// placement manifest (nil keepPlacement=false strips it).
func copyRun(t *testing.T, src, dst string, placement []rundir.Placement) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"execution.log", "monitoring.csv"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(src, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var info rundir.Info
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	info.Placement = placement
	out, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "run.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stageRun builds a run directory in a staging area and renames it into its
// final location so a directory watcher never sees a half-written run.
func stageRun(t *testing.T, src, stagingRoot, dst string, placement []rundir.Placement) {
	t.Helper()
	tmp, err := os.MkdirTemp(stagingRoot, "stage-")
	if err != nil {
		t.Fatal(err)
	}
	staged := filepath.Join(tmp, filepath.Base(dst))
	copyRun(t, src, staged, placement)
	if err := os.Rename(staged, dst); err != nil {
		t.Fatal(err)
	}
}

// getJSON fetches a URL and decodes the JSON payload into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// waitSettled polls until every retained run reaches a terminal status.
func waitSettled(t *testing.T, f *Fleet, want int, timeout time.Duration) FleetSnapshot {
	t.Helper()
	return waitSettledBy(t, f.Snapshot, want, timeout)
}

// waitSettledBy is waitSettled over any source of fleet snapshots, such as
// GET /fleet/runs.
func waitSettledBy(t *testing.T, snapshot func() FleetSnapshot, want int, timeout time.Duration) FleetSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap := snapshot()
		settled := 0
		for _, r := range snap.Runs {
			switch r.Status {
			case StatusDone, StatusFailed, StatusStalled:
				settled++
			}
		}
		if settled >= want && len(snap.Runs) >= want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d runs settled: %+v", settled, want, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetHundredRunsBounded is the scale acceptance: >=100 registered runs
// complete behind a small active cap, the cap is never exceeded, engines are
// torn down afterwards, and registrations past active+queue are shed.
func TestFleetHundredRunsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 100 runs")
	}
	fx := getFleetFixture(t)
	root := t.TempDir()
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total, cap = 100, 4
	f := New(Config{
		MaxActive: cap, QueueDepth: total, Poll: testPoll, Idle: testIdle,
		Archive: store,
	})
	for i := 0; i < total; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run-%03d", i))
		copyRun(t, fx.quietDir, dir, nil) // no placement: pure throughput
		_, d, err := f.Register(dir)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if d == DecisionShed {
			t.Fatalf("register %d shed with queue depth %d", i, total)
		}
		if a, _, _ := f.Counts(); a > cap {
			t.Fatalf("active = %d exceeds cap %d", a, cap)
		}
	}
	// The cap holds while the backlog drains.
	var snap FleetSnapshot
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if a, _, _ := f.Counts(); a > cap {
			t.Fatalf("active = %d exceeds cap %d mid-drain", a, cap)
		}
		snap = f.Snapshot()
		settled := 0
		for _, r := range snap.Runs {
			if r.Status != StatusQueued && r.Status != StatusActive {
				settled++
			}
		}
		if settled == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out draining: %d/%d settled", settled, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range snap.Runs {
		if r.Status != StatusDone {
			t.Fatalf("run %s = %s (%s)", r.Name, r.Status, r.Error)
		}
		if r.ArchiveID == "" || r.MakespanNS <= 0 {
			t.Fatalf("run %s missing archive/makespan: %+v", r.Name, r)
		}
	}
	// Teardown is complete: no engines remain, so no staleness gauges.
	if st := f.Staleness(); len(st) != 0 {
		t.Fatalf("engines still alive after completion: %v", st)
	}
	if a, q, shed := f.Counts(); a != 0 || q != 0 || shed != 0 {
		t.Fatalf("counts = (%d,%d,%d), want all zero", a, q, shed)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Past the cap: a tiny fleet sheds the overflow and counts it.
	f2 := New(Config{MaxActive: 1, QueueDepth: 2, Poll: testPoll, Idle: testIdle})
	var sheds int64
	for i := 0; i < 6; i++ {
		_, d, err := f2.Register(filepath.Join(root, fmt.Sprintf("run-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if d == DecisionShed {
			sheds++
		}
	}
	if sheds != 3 {
		t.Fatalf("sheds = %d, want 3 of 6 past active=1+queue=2", sheds)
	}
	if _, _, shed := f2.Counts(); shed != sheds {
		t.Fatalf("shed counter = %d, want %d", shed, sheds)
	}
	waitSettled(t, f2, 3, time.Minute)
	if err := f2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCrossJobBlame is the end-to-end blame acceptance: two
// co-scheduled runs (one noisy) ingest through real engines, and the quiet
// run's contended time lands on the noisy neighbor — byte-identically at
// every parallelism.
func TestFleetCrossJobBlame(t *testing.T) {
	fx := getFleetFixture(t)
	var golden []byte
	for _, par := range []int{1, 3} {
		root := t.TempDir()
		quiet := filepath.Join(root, "quiet")
		noisy := filepath.Join(root, "noisy")
		shared := []rundir.Placement{{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"}}
		copyRun(t, fx.quietDir, quiet, shared)
		copyRun(t, fx.noisyDir, noisy, shared)

		f := New(Config{MaxActive: 2, QueueDepth: 4, Poll: testPoll, Idle: testIdle,
			Engine: stream.Config{Parallelism: par}})
		for _, dir := range []string{quiet, noisy} {
			if _, _, err := f.Register(dir); err != nil {
				t.Fatal(err)
			}
		}
		waitSettled(t, f, 2, time.Minute)

		rep, err := f.Blame("quiet")
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalContendedNS <= 0 {
			t.Fatal("co-scheduled overcommit produced zero contended time")
		}
		if len(rep.Neighbors) != 1 || rep.Neighbors[0].Run != "noisy" {
			t.Fatalf("neighbors = %+v, want noisy", rep.Neighbors)
		}
		if rep.Neighbors[0].BlamedNS <= 0 {
			t.Fatal("noisy neighbor got zero blame")
		}
		assertSharesSum(t, rep)
		// Evidence carries explain pointers into the target's own profile.
		ev := rep.Neighbors[0].Resources[0].Evidence
		if len(ev) == 0 || !strings.Contains(ev[0].ExplainQuery, "resource=") {
			t.Fatalf("evidence = %+v", ev)
		}

		var buf bytes.Buffer
		if err := WriteBlameJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = buf.Bytes()
		} else if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("parallelism %d changed the blame report", par)
		}
		if err := f.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetStallTeardown: a directory that never produces run.json is torn
// down by the stall watchdog and its slot is released.
func TestFleetStallTeardown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f := New(Config{
		MaxActive: 1, QueueDepth: 1, Poll: testPoll, Idle: testIdle,
		StallTimeout: 30 * time.Millisecond,
	})
	if _, d, err := f.Register(dir); err != nil || d != DecisionActive {
		t.Fatalf("register = (%s, %v)", d, err)
	}
	snap := waitSettled(t, f, 1, time.Minute)
	if snap.Runs[0].Status != StatusStalled {
		t.Fatalf("status = %s (%s), want stalled", snap.Runs[0].Status, snap.Runs[0].Error)
	}
	// The status flips to stalled before the worker winds down and releases
	// its slot, so give the release a moment instead of sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, _, _ := f.Counts()
		if a == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled run still holds an active slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Register(dir); err == nil {
		t.Fatal("register after shutdown did not error")
	}
}

// TestFleetShutdownSkipsQueued: Shutdown stops the started run and starts
// none of the queued ones. A queued run never gets an engine, is never
// archived, and never counts as done: its producer may still be writing.
func TestFleetShutdownSkipsQueued(t *testing.T) {
	fx := getFleetFixture(t)
	root := t.TempDir()
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every run withholds its last monitoring row, so its content never
	// completes, and a long idle keeps the first run active until Shutdown
	// stops it.
	f := New(Config{MaxActive: 1, QueueDepth: 4, Poll: testPoll, Idle: time.Hour, Archive: store})
	names := []string{"r0", "r1", "r2", "r3"}
	for _, name := range names {
		copyRun(t, fx.quietDir, filepath.Join(root, name), nil)
		withholdLastMonitoringRow(t, filepath.Join(root, name))
		if _, _, err := f.Register(filepath.Join(root, name)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if _, ok := f.EngineFor("r0"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("r0 never started ingesting")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Snapshot().Runs {
		if r.Name == "r0" {
			if r.Status != StatusDone || r.ArchiveID == "" {
				t.Errorf("started run r0 = %s, archive %q; want done and archived", r.Status, r.ArchiveID)
			}
			continue
		}
		if r.Status != StatusQueued || r.ArchiveID != "" || r.Overhead != nil {
			t.Errorf("queued run %s = %s, archive %q, overhead %v; want never started",
				r.Name, r.Status, r.ArchiveID, r.Overhead)
		}
	}
	if n := store.Len(); n != 1 {
		t.Errorf("archive holds %d runs, want only r0", n)
	}
	if a, q, _ := f.Counts(); a != 0 || q != 0 {
		t.Errorf("counts after shutdown = (%d, %d), want (0, 0)", a, q)
	}
}

// withholdLastMonitoringRow drops the last row of a run directory's
// monitoring.csv: one feed then stops a sample short of the run's end_ns, so
// the run's content never completes and only stop or Idle ends its follow.
func withholdLastMonitoringRow(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "monitoring.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(string(data), "\n")
	if len(rows) < 3 || rows[len(rows)-1] != "" {
		t.Fatalf("%s: want a header and terminated rows", path)
	}
	if err := os.WriteFile(path, []byte(strings.Join(rows[:len(rows)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetPinnedRun: a followed directory is the pinned run. It finishes
// through the fleet's one finalize path but keeps its engine, carries its
// caller's label, and is what Pinned reports. A bounded pinned run ends done
// with no record.
func TestFleetPinnedRun(t *testing.T) {
	fx := getFleetFixture(t)
	root := t.TempDir()
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Archive: store, Poll: testPoll, Idle: testIdle, Engine: stream.Config{RetainForFinal: true}}
	f := New(cfg)
	defer f.Shutdown(context.Background())
	if _, _, ok := f.Pinned(); ok {
		t.Fatal("Pinned before Follow")
	}
	dir := filepath.Join(root, "p")
	copyRun(t, fx.quietDir, dir, nil)
	if err := f.Follow(dir, "nightly", nil); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	close(stopped)
	if err := f.Follow(filepath.Join(root, "q"), "", stopped); err == nil {
		t.Error("a second pinned run was accepted")
	}
	if _, _, err := f.Register(filepath.Join(root, "elsewhere", "p")); err == nil {
		t.Error("Register reused the pinned run's name")
	}
	name, e, ok := f.Pinned()
	if !ok || name != "p" {
		t.Fatalf("Pinned = (%q, %v), want p", name, ok)
	}
	if got, ok := f.EngineFor("p"); !ok || got != e {
		t.Fatal("pinned engine did not outlive finalize")
	}
	if out, finalized, _ := e.FinalStatus(); out == nil || !finalized {
		t.Fatal("pinned engine lost its exact profile at finalize")
	}
	snap := f.Snapshot()
	if len(snap.Runs) != 1 || !snap.Runs[0].Pinned || snap.Runs[0].Status != StatusDone || snap.Runs[0].ArchiveID == "" {
		t.Fatalf("pinned run view = %+v", snap.Runs)
	}
	if rec, err := store.Get(snap.Runs[0].ArchiveID); err != nil || rec.Label != "nightly" {
		t.Fatalf("archived record label = %q (%v), want nightly", rec.Label, err)
	}
	if _, err := f.Blame("p"); err != nil {
		t.Errorf("blame of the finished pinned run: %v", err)
	}

	cfg.Engine.RetainForFinal = false
	bounded := New(cfg)
	defer bounded.Shutdown(context.Background())
	copyRun(t, fx.quietDir, filepath.Join(root, "b"), nil)
	if err := bounded.Follow(filepath.Join(root, "b"), "", nil); err != nil {
		t.Fatal(err)
	}
	v := bounded.Snapshot().Runs[0]
	if v.Status != StatusDone || v.ArchiveID != "" || store.Len() != 1 {
		t.Fatalf("bounded pinned run = %s, archive %q, store %d; want done and unarchived", v.Status, v.ArchiveID, store.Len())
	}
	if _, ok := bounded.EngineFor("b"); !ok {
		t.Fatal("bounded pinned engine was torn down")
	}
}

// TestFleetFlushStallIsolated: one run holding its engine lock — blocked in
// OnWindowFlush, which runs under that lock, standing in for a long finalize
// — must not stall the fleet. Snapshot and Staleness still answer, and
// another run still finishes while a Bottlenecks call waits on the blocked
// engine.
func TestFleetFlushStallIsolated(t *testing.T) {
	fx := getFleetFixture(t)
	root := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var block, unblock sync.Once
	f := New(Config{
		MaxActive: 2, QueueDepth: 2, Poll: testPoll, Idle: testIdle,
		OnWindowFlush: func(run string, wr *stream.WindowResult) {
			if run == "a" && wr != nil {
				block.Do(func() { close(entered); <-release })
			}
		},
	})
	defer f.Shutdown(context.Background())
	defer unblock.Do(func() { close(release) }) // before Shutdown drains run a

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s stalled behind run a's engine lock", what)
		}
	}

	for _, name := range []string{"a", "b"} {
		copyRun(t, fx.quietDir, filepath.Join(root, name), nil)
	}
	if _, _, err := f.Register(filepath.Join(root, "a")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("run a never flushed a window")
	}
	// Bottlenecks reads every live engine, so it waits for run a — but it
	// must not hold the fleet lock while it does.
	go f.Bottlenecks(0)
	within("Snapshot", func() { f.Snapshot() })
	within("Staleness", func() { f.Staleness() })

	if _, _, err := f.Register(filepath.Join(root, "b")); err != nil {
		t.Fatal(err)
	}
	within("run b", func() {
		for {
			for _, r := range f.Snapshot().Runs {
				if r.Name == "b" && r.Status != StatusQueued && r.Status != StatusActive {
					if r.Status != StatusDone {
						t.Errorf("run b = %s (%s)", r.Status, r.Error)
					}
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	})

	unblock.Do(func() { close(release) })
	waitSettled(t, f, 2, time.Minute)
}

// TestRunNameResolvesRelativeDirs checks that a run is named after the
// directory a relative path denotes, not the path's last element.
func TestRunNameResolvesRelativeDirs(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]string{
		".":      filepath.Base(wd),
		"x/..":   filepath.Base(wd),
		"./run/": "run",
	} {
		if got, err := runName(dir); err != nil || got != want {
			t.Errorf("runName(%q) = %q, %v; want %q", dir, got, err, want)
		}
	}
	if _, err := runName(string(filepath.Separator)); err == nil {
		t.Error("runName of the root directory gave a name")
	}
}
