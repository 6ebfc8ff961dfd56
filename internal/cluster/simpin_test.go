package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/dataflowsim"
	"grade10/internal/enginelog"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/pgsim"
	"grade10/internal/rundir"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

// TestSimulatorOutputPinned pins what the three simulated engines write: the
// SHA-256 of the text execution log and of the monitoring CSV of one small
// fixed run each. A change to the engines or their shared job harness that
// moves any event, timestamp or utilization sample fails here. The Giraph
// run's small heap and message queue make it collect garbage and stall on
// the queue; the PowerGraph run has the §IV-D sync bug on, so the seeded bug
// RNG is pinned too; every run is long enough for the OS noise to fire. Rewriting a digest is a behaviour change: every downstream profile,
// report and archive ID moves with it.
func TestSimulatorOutputPinned(t *testing.T) {
	const (
		wantGiraphLog = "6e6acf79f9bb184bf81f4acb5c7cf441e619b8a30738735c24c5c81e21064d2d"
		wantGiraphMon = "5921fc5b5d0b004e8fb1f4b5bd2fe035dc1a5022dcb68d8bb7d37ca12e95fec0"
		wantPGLog     = "3df18aa662fd4209633538cebb35e0cb1c182f51210225a4470518cbe788fe1c"
		wantPGMon     = "688579f978ec6941f4f9527923c360d3ae4f6f57fb4eef4e3304e709bd7802d9"
		wantDFLog     = "ed23ab321119dd53206e8f47a2c322fb0ed41671ede7211bdbf2f534eed5fa2e"
		wantDFMon     = "35f4b641bcf829df83480503e3de9db9b3a01119939e2106fc8e5181f98a7257"
	)
	g := graph.RMAT(9, 8, 5)

	gcfg := experiments.GiraphConfig(4)
	gcfg.Workers, gcfg.ThreadsPerWorker = 3, 2
	gcfg.HeapCapacity, gcfg.QueueCapacity, gcfg.CommChunkBytes = 256<<10, 8<<10, 4<<10
	gres, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 3), graph.HashPartition(g, 3), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "giraph", gres.Log, gres.Cluster, gres.Start, gres.End, wantGiraphLog, wantGiraphMon)

	pcfg := experiments.PowerGraphConfig(1, true)
	pcfg.Workers, pcfg.ThreadsPerWorker = 3, 2
	pcfg.BugProbability = 0.5
	pres, err := pgsim.Run(vertexprog.NewCDLP(g, 3), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Stats.BugInjections == 0 {
		t.Fatal("powergraph run injected no sync bug; the bug RNG is not covered")
	}
	checkPinned(t, "powergraph", pres.Log, pres.Cluster, pres.Start, pres.End, wantPGLog, wantPGMon)

	dres, err := dataflowsim.Run(dataflowsim.Job{
		Name: "etl", InputRows: 20000,
		Stages: []dataflowsim.StageSpec{
			{Tasks: 6, CostPerRow: 2e-5, Selectivity: 0.8, ShuffleSkew: 1},
			{Tasks: 5, CostPerRow: 3e-5, Selectivity: 1.5},
			{Tasks: 3, CostPerRow: 1e-5, Selectivity: 0.1},
		},
	}, dataflowsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "dataflow", dres.Log, dres.Cluster, dres.Start, dres.End, wantDFLog, wantDFMon)
}

func checkPinned(t *testing.T, name string, log *enginelog.Log, cl *cluster.Cluster,
	start, end vtime.Time, wantLog, wantMon string) {
	t.Helper()
	var logText, monCSV bytes.Buffer
	if err := enginelog.Write(&logText, log); err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(cl, start, end, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := rundir.WriteMonitoring(&monCSV, mon); err != nil {
		t.Fatal(err)
	}
	if got := digest(logText.Bytes()); got != wantLog {
		t.Errorf("%s execution log sha256 = %s, want %s", name, got, wantLog)
	}
	if got := digest(monCSV.Bytes()); got != wantMon {
		t.Errorf("%s monitoring csv sha256 = %s, want %s", name, got, wantMon)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
