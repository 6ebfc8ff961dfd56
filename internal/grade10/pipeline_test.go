package grade10

import (
	"bytes"
	"math"
	"testing"

	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/metrics"
	"grade10/internal/pgsim"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

func giraphRun(t *testing.T) (*giraphsim.Result, giraphsim.Config) {
	t.Helper()
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 4
	cfg.HeapCapacity = 1 << 20 // force GCs
	g := graph.RMAT(11, 8, 42)
	part := graph.HashPartition(g, cfg.Workers)
	res, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 5), part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

func giraphParams(cfg giraphsim.Config) ModelParams {
	return ModelParams{
		Job:              "pagerank",
		Cores:            cfg.Machine.Cores,
		NetBandwidth:     cfg.Machine.NetBandwidth,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
	}
}

func TestEndToEndGiraph(t *testing.T) {
	res, cfg := giraphRun(t)
	models, err := GiraphModel(giraphParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Characterize(Input{
		Log:        res.Log,
		Monitoring: monitoring,
		Models:     models,
		Timeslice:  10 * vtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The trace spans the run.
	if out.Trace.Start != res.Start || out.Trace.End != res.End {
		t.Fatalf("trace span [%v,%v), run [%v,%v)", out.Trace.Start, out.Trace.End, res.Start, res.End)
	}

	// CPU attribution conserves measured consumption on every machine.
	for m := 0; m < 2; m++ {
		ip := out.Profile.Get(cluster.ResCPU, m)
		if ip == nil {
			t.Fatalf("no cpu profile for machine %d", m)
		}
		measured := sampledConsumption(ip.Instance.Samples)
		upsampled := 0.0
		for k := 0; k < out.Slices.Count; k++ {
			upsampled += ip.Consumption[k] * out.Slices.SliceSeconds(k)
		}
		if math.Abs(measured-upsampled) > 1e-6*(1+measured) {
			t.Fatalf("machine %d: cpu mass %v vs %v", m, upsampled, measured)
		}
		if len(ip.Usage) == 0 {
			t.Fatalf("machine %d: no phases attributed cpu", m)
		}
	}

	// GC blocking bottlenecks must surface (tiny heap forced GCs).
	foundGC := false
	for _, b := range out.Bottlenecks.Bottlenecks {
		if b.Kind == bottleneck.Blocking && b.Resource == ResGC {
			foundGC = true
		}
	}
	if !foundGC {
		t.Fatal("no GC bottlenecks detected")
	}

	// Issues include a gc bottleneck-removal estimate.
	foundGCIssue := false
	for _, is := range out.Issues.Issues {
		if is.Resource == ResGC && is.Impact > 0 {
			foundGCIssue = true
		}
	}
	if !foundGCIssue {
		t.Fatalf("no gc issue; issues: %+v", out.Issues.Issues)
	}

	// UsageOf binary-searches Usage, so Usage must be in core.ComparePhases
	// order at every parallelism: it finds each usage record, and returns
	// nil for every leaf the instance attributed nothing to.
	for _, par := range []int{1, 8} {
		out, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: models,
			Timeslice: 10 * vtime.Millisecond, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		missing := 0
		for _, ip := range out.Profile.Instances {
			used := map[*core.Phase]bool{}
			for _, u := range ip.Usage {
				used[u.Phase] = true
				if got := ip.UsageOf(u.Phase); got != u {
					t.Fatalf("parallelism %d, %s: UsageOf(%s) = %p, want %p", par, ip.Instance.Key(), u.Phase.Path, got, u)
				}
			}
			for _, leaf := range out.Trace.Leaves() {
				if used[leaf] {
					continue
				}
				missing++
				if got := ip.UsageOf(leaf); got != nil {
					t.Fatalf("parallelism %d, %s: UsageOf(%s) = %p for a leaf missing from Usage", par, ip.Instance.Key(), leaf.Path, got)
				}
			}
		}
		if missing == 0 {
			t.Fatalf("parallelism %d: every leaf in every Usage; the nil case went unchecked", par)
		}
	}
}

func TestEndToEndGiraphViaSerializedLog(t *testing.T) {
	// The full file-based pipeline: serialize the log, parse it back,
	// characterize — identical results.
	res, cfg := giraphRun(t)
	var buf bytes.Buffer
	if err := enginelog.Write(&buf, res.Log); err != nil {
		t.Fatal(err)
	}
	parsed, stats, _, err := enginelog.ReadStats(&buf)
	if err != nil || stats.Degraded() {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	models, err := GiraphModel(giraphParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Characterize(Input{Log: parsed, Monitoring: monitoring, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if a.Issues.Original != b.Issues.Original || len(a.Bottlenecks.Bottlenecks) != len(b.Bottlenecks.Bottlenecks) {
		t.Fatal("serialized log changed results")
	}
}

func TestEndToEndPowerGraph(t *testing.T) {
	cfg := pgsim.DefaultConfig()
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 4
	g := graph.Community(graph.CommunityParams{
		Vertices: 1500, Communities: 10, IntraDegree: 5, InterFraction: 0.03, Seed: 4,
	})
	res, err := pgsim.Run(vertexprog.NewCDLP(g, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := PowerGraphModel(ModelParams{
		Job: "cdlp", Cores: cfg.Machine.Cores,
		NetBandwidth: cfg.Machine.NetBandwidth, ThreadsPerWorker: cfg.ThreadsPerWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	// No GC or msgqueue bottlenecks in PowerGraph.
	for _, b := range out.Bottlenecks.Bottlenecks {
		if b.Resource == ResGC || b.Resource == ResMsgQueue {
			t.Fatalf("impossible bottleneck %q in PowerGraph", b.Resource)
		}
	}
	// Gather threads exist and received CPU attribution.
	gathers := out.Trace.PhasesOfType("/cdlp/execute/iteration/worker/gather/thread")
	if len(gathers) == 0 {
		t.Fatal("no gather thread phases")
	}
	attributed := false
	for _, ph := range gathers {
		ip := out.Profile.Get(cluster.ResCPU, ph.Machine)
		if ip != nil && ip.UsageOf(ph) != nil {
			attributed = true
			break
		}
	}
	if !attributed {
		t.Fatal("no gather thread received cpu attribution")
	}
}

func TestUntunedModelHasNoRules(t *testing.T) {
	m, err := GiraphModelUntuned(ModelParams{Job: "pagerank", Cores: 8, NetBandwidth: 1e8, ThreadsPerWorker: 8})
	if err != nil {
		t.Fatal(err)
	}
	tp := "/pagerank/execute/superstep/worker/compute/thread"
	if m.Rules.Explicit(tp, cluster.ResCPU) {
		t.Fatal("untuned model has explicit rules")
	}
	r := m.Rules.Get(tp, cluster.ResCPU)
	if r.Kind != core.RuleVariable || r.Amount != 1 {
		t.Fatalf("untuned default rule %+v", r)
	}
}

func TestFilterBlocking(t *testing.T) {
	log := &enginelog.Log{Events: []enginelog.Event{
		{Kind: enginelog.PhaseStart, Path: "/a"},
		{Kind: enginelog.Blocked, Path: "/a", Resource: "gc", End: 5},
		{Kind: enginelog.Blocked, Path: "/a", Resource: "barrier", End: 5},
		{Kind: enginelog.PhaseEnd, Path: "/a", Time: 10},
	}}
	out := FilterBlocking(log, "gc")
	if len(out.Events) != 3 {
		t.Fatalf("%d events", len(out.Events))
	}
	for _, e := range out.Events {
		if e.Kind == enginelog.Blocked && e.Resource == "gc" {
			t.Fatal("gc event survived filter")
		}
	}
	if len(log.Events) != 4 {
		t.Fatal("filter mutated the input")
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize(Input{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestModelLookupCoversEngineLogs(t *testing.T) {
	// Every phase type the engines emit must resolve in the models.
	res, cfg := giraphRun(t)
	models, err := GiraphModel(giraphParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Log.Events {
		if ev.Kind == enginelog.PhaseStart {
			if models.Exec.LookupInstance(ev.Path) == nil {
				t.Fatalf("phase %q not in model", ev.Path)
			}
		}
	}
}

func TestDiskResourceEndToEnd(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 4
	cfg.Machine.DiskBandwidth = 20e6 // slow disk: load becomes disk-bound
	cfg.DiskBytesPerEdge = 256
	g := graph.RMAT(11, 8, 42)
	part := graph.HashPartition(g, cfg.Workers)
	res, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 3), part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := GiraphModel(ModelParams{
		Job: "pagerank", Cores: cfg.Machine.Cores,
		NetBandwidth:     cfg.Machine.NetBandwidth,
		DiskBandwidth:    cfg.Machine.DiskBandwidth,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: models})
	if err != nil {
		t.Fatal(err)
	}

	// The disk instances exist and carry the load phase's bytes.
	loadWorkers := out.Trace.PhasesOfType("/pagerank/load/worker")
	if len(loadWorkers) != 2 {
		t.Fatalf("%d load workers", len(loadWorkers))
	}
	attributed := 0.0
	for _, lw := range loadWorkers {
		ip := out.Profile.Get(cluster.ResDisk, lw.Machine)
		if ip == nil {
			t.Fatalf("no disk profile for machine %d", lw.Machine)
		}
		if u := ip.UsageOf(lw); u != nil {
			attributed += u.Total(out.Slices)
		}
	}
	wantBytes := float64(g.NumEdges()) * cfg.DiskBytesPerEdge
	if attributed < 0.5*wantBytes {
		t.Fatalf("disk attribution %v bytes, expected most of %v", attributed, wantBytes)
	}

	// With a slow disk, load workers saturate it: a disk bottleneck exists.
	foundDisk := false
	for _, b := range out.Bottlenecks.Bottlenecks {
		if b.Resource == cluster.ResDisk && b.Phase.Type.Path() == "/pagerank/load/worker" {
			foundDisk = true
		}
	}
	if !foundDisk {
		t.Fatal("no disk bottleneck on load workers")
	}

	// Compute threads never get disk consumption (explicit None rules).
	threads := out.Trace.PhasesOfType("/pagerank/execute/superstep/worker/compute/thread")
	for _, th := range threads {
		if ip := out.Profile.Get(cluster.ResDisk, th.Machine); ip != nil && ip.UsageOf(th) != nil {
			t.Fatalf("thread %s attributed disk consumption", th.Path)
		}
	}
}

// sampledConsumption integrates the monitoring samples, in unit·seconds.
func sampledConsumption(ss *metrics.SampleSeries) float64 {
	total := 0.0
	for _, s := range ss.Samples {
		total += s.Avg * s.Duration().Seconds()
	}
	return total
}
