package grade10_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/pgsim"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// TestReportPinned pins what the analysis writes for the sixteen paper
// runs: the paper's eight workloads (workload.All, whose datasets are
// generated from fixed seeds) on both graph engines, simulated with the
// experiments engine configs at cost scale 1, monitored every 50 ms and
// analyzed serially, as the benchmark's inputs are. Each run's pin is the
// SHA-256 of its full text report (report.WriteAll: attribution,
// bottlenecks, issues with their trails, critical path) and its archive
// content ID. A change to the analysis that moves any reported figure fails
// here; rewriting a pin is a behaviour change.
func TestReportPinned(t *testing.T) {
	want := map[string][2]string{
		"giraph/bfs-rmat":             {"23dd20652d3f7e386169bb0d27327ca8e1387d26d61f2c5e10fb73202521d5e2", "428f26866a3e"},
		"giraph/bfs-datagen":          {"1b4fa7e7d975657c2f7a73ce6d4f9abc7c71147e5d05b0eb0d109a1b9bb4046f", "dbd23f5dcc74"},
		"giraph/pagerank-rmat":        {"0f98fffd1edeb664545305135d0653d42b04277b6998814a6f316fa29c26d989", "4114a1465a92"},
		"giraph/pagerank-datagen":     {"56190ef36dc234fa217f435587d3cfba28d06d2692e65266130c1fc32189a738", "c9e61a3edb68"},
		"giraph/wcc-rmat":             {"3d10779697f3e71e77f1a7c8913df12036c7c0470c54fe807a26d918af41d9ad", "29ee93aa29d5"},
		"giraph/wcc-datagen":          {"526e380b61a9c7e66d32133b7bd5b703cedb22dfbc20223846af2adb8b0d8bf2", "0e5872266618"},
		"giraph/cdlp-rmat":            {"a6c7c1e9541404f1e8a78eff25bfcfb572cfee1eeb42f4e58c6622aaccb32e77", "0714dee922db"},
		"giraph/cdlp-datagen":         {"387fedd5d7c92975d731a967b682ae7692048a3cc12e4f260dbf8c8ad69404f5", "5110e30ac7db"},
		"powergraph/bfs-rmat":         {"81818407de2ed81e764f31a58a201b3bacd479234136a031eb699aeb6c81782e", "fc4eedfb7598"},
		"powergraph/bfs-datagen":      {"e7d205913e7e169f4eda883b7ca7e3673cd20b283a4d6988e2e859a4d806ba55", "ab8d921c81ff"},
		"powergraph/pagerank-rmat":    {"a8d5d27639752cbd17beb21851b192218de86d84f8d636715ff09526992a773e", "5299044e0572"},
		"powergraph/pagerank-datagen": {"4687e91d6cd630ba00f19403db2bbb862cf3787d35b9ffb048528c86fdcf212b", "bf200e8db8fc"},
		"powergraph/wcc-rmat":         {"b262d5c3a7c79ba20069856d07dd18f8538ccd5cd9851b2d68428dd1c1a1560f", "a9faef49de36"},
		"powergraph/wcc-datagen":      {"9384958cbb849649750884802754334eb90f6af91bfe810d4f61125d4cd4f159", "0030d499d27e"},
		"powergraph/cdlp-rmat":        {"f093a1305c0b68b52897b4b2e768348346a5df8268bf6e5a168471a780b16989", "603961e97e33"},
		"powergraph/cdlp-datagen":     {"3bc7e5d3ae96ff3c42c975a381dd526d113d7db88332113141c3f0e619c5820f", "5984ea8687ee"},
	}
	for _, engine := range []string{"giraph", "powergraph"} {
		for _, w := range workload.All() {
			name := engine + "/" + w.Name()
			sum, id := analyzePinned(t, engine, w)
			if pin := want[name]; sum != pin[0] || id != pin[1] {
				t.Errorf("%s: report sha256 %s, content ID %s; want %s, %s", name, sum, id, pin[0], pin[1])
			}
		}
	}
}

// analyzePinned simulates one workload on engine and returns the SHA-256
// of its report and its archive content ID.
func analyzePinned(t *testing.T, engine string, w workload.Spec) (reportSum, id string) {
	t.Helper()
	g := w.Dataset.Graph()
	prog, err := workload.NewProgram(w.Algorithm, g)
	if err != nil {
		t.Fatal(err)
	}
	var (
		sim  cluster.Run
		info rundir.Info
	)
	switch engine {
	case "giraph":
		cfg := experiments.GiraphConfig(1)
		res, err := giraphsim.Run(prog, graph.HashPartition(g, cfg.Workers), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, info = res.Run, workload.RunInfo(engine, prog.Name(), cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine)
	case "powergraph":
		cfg := experiments.PowerGraphConfig(1, false)
		res, err := pgsim.Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, info = res.Run, workload.RunInfo(engine, prog.Name(), cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine)
	}
	info.StartNS, info.EndNS = int64(sim.Start), int64(sim.End)
	mon, err := cluster.Monitor(sim.Cluster, sim.Start, sim.End, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	models, err := grade10.ModelsForEngine(engine, grade10.RunParams(info))
	if err != nil {
		t.Fatal(err)
	}
	out, err := grade10.Characterize(grade10.Input{Log: sim.Log, Monitoring: mon, Models: models, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), profstore.ContentID(profstore.BuildRecord(info, out))
}
