package giraphsim

import (
	"bytes"
	"math"
	"testing"

	"grade10/internal/algo"
	"grade10/internal/enginelog"
	"grade10/internal/graph"
	"grade10/internal/vertexprog"
)

func TestSSSPOnEngine(t *testing.T) {
	g := graph.RMAT(8, 6, 31)
	part := graph.HashPartition(g, 2)
	res, err := Run(vertexprog.NewSSSP(g, 0), part, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := algo.SSSP(g, 0)
	for v := range want {
		if want[v] == algo.Unreachable {
			if !math.IsInf(res.Values[v], 1) {
				t.Fatalf("dist[%d] = %v", v, res.Values[v])
			}
		} else if res.Values[v] != float64(want[v]) {
			t.Fatalf("dist[%d] = %v, want %d", v, res.Values[v], want[v])
		}
	}
}

func TestCDLPOnEngine(t *testing.T) {
	g := graph.Community(graph.CommunityParams{
		Vertices: 600, Communities: 8, IntraDegree: 4, InterFraction: 0.03, Seed: 5,
	})
	part := graph.HashPartition(g, 2)
	res, err := Run(vertexprog.NewCDLP(g, 4), part, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := algo.CDLP(g, 4)
	for v := range want {
		if res.Values[v] != float64(want[v]) {
			t.Fatalf("label[%d] = %v, want %d", v, res.Values[v], want[v])
		}
	}
}

func TestSingleWorkerRun(t *testing.T) {
	// Degenerate deployment: one worker, no remote messages at all.
	g := graph.RMAT(8, 6, 3)
	cfg := smallConfig()
	cfg.Workers = 1
	part := graph.HashPartition(g, 1)
	res, err := Run(vertexprog.NewPageRank(g, 0.85, 3), part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesSent != 0 || res.Stats.BytesSent != 0 {
		t.Fatalf("remote traffic on single worker: %d msgs", res.Stats.MessagesSent)
	}
	want := algo.PageRank(g, 0.85, 3)
	for v := range want {
		if math.Abs(res.Values[v]-want[v]) > 1e-12 {
			t.Fatal("single-worker results wrong")
		}
	}
}

func TestLogSerializationRoundTrip(t *testing.T) {
	res := runPR(t, smallConfig(), 9)
	var buf bytes.Buffer
	if err := enginelog.Write(&buf, res.Log); err != nil {
		t.Fatal(err)
	}
	back, stats, _, err := enginelog.ReadStats(&buf)
	if err != nil || stats.Degraded() {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	if len(back.Events) != len(res.Log.Events) {
		t.Fatalf("%d vs %d events", len(back.Events), len(res.Log.Events))
	}
	for i := range back.Events {
		if back.Events[i] != res.Log.Events[i] {
			t.Fatalf("event %d differs after round trip", i)
		}
	}
}

func TestNoiseExtendsNothingWhenDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.OSNoiseCores = 0
	res := runPRWith(t, cfg)
	// With noise off and huge heap, CPU consumption must exactly equal the
	// cost-model work: integrate utilization and compare against a manual
	// sum over active supersteps... a cheap proxy: utilization beyond the
	// run end must be zero, and determinism must hold.
	for m := 0; m < cfg.Workers; m++ {
		truth, err := res.Cluster.GroundTruth(m, "cpu")
		if err != nil {
			t.Fatal(err)
		}
		if got := truth.Integral(res.End, res.End.Add(1e9)); got != 0 {
			t.Fatalf("machine %d busy after run end: %v", m, got)
		}
	}
}

func runPRWith(t *testing.T, cfg Config) *Result {
	t.Helper()
	g := graph.RMAT(9, 8, 42)
	part := graph.HashPartition(g, cfg.Workers)
	res, err := Run(vertexprog.NewPageRank(g, 0.85, 3), part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSerializationCostSlowsComm(t *testing.T) {
	base := smallConfig()
	base.SerializeCostPerByte = 0
	heavy := smallConfig()
	heavy.SerializeCostPerByte = 1e-7 // 100 ns per byte: very expensive
	a := runPRWith(t, base)
	b := runPRWith(t, heavy)
	if b.End <= a.End {
		t.Fatalf("serialization cost did not slow the run: %v vs %v", b.End, a.End)
	}
}

func TestGCThreadsAffectUtilizationNotPause(t *testing.T) {
	serial := smallConfig()
	serial.HeapCapacity = 256 << 10
	serial.GCThreads = 1
	parallel := smallConfig()
	parallel.HeapCapacity = 256 << 10
	parallel.GCThreads = 4

	a := runPRWith(t, serial)
	b := runPRWith(t, parallel)
	if a.Stats.GCCount == 0 || b.Stats.GCCount == 0 {
		t.Fatal("no GCs to compare")
	}
	// Pause time per GC is the same model either way.
	perA := a.Stats.GCTime.Seconds() / float64(a.Stats.GCCount)
	perB := b.Stats.GCTime.Seconds() / float64(b.Stats.GCCount)
	if math.Abs(perA-perB) > 0.5*perA {
		t.Fatalf("pause per GC diverged: %v vs %v", perA, perB)
	}
	// The parallel collector burns more CPU overall.
	cpuA, cpuB := 0.0, 0.0
	for m := 0; m < 2; m++ {
		ta, _ := a.Cluster.GroundTruth(m, "cpu")
		tb, _ := b.Cluster.GroundTruth(m, "cpu")
		cpuA += ta.Integral(0, a.End)
		cpuB += tb.Integral(0, b.End)
	}
	if cpuB <= cpuA {
		t.Fatalf("parallel GC did not burn more CPU: %v vs %v", cpuB, cpuA)
	}
}
