package grade10_test

import (
	"bytes"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/explain"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// TestPipelineParallelReportBitIdentical is the end-to-end determinism guard
// for PR 2's parallelization: the complete rendered report — attribution,
// bottlenecks, issue detection, critical path — must be byte-identical
// whether the analysis pipeline runs serially or fanned out across workers.
func TestPipelineParallelReportBitIdentical(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "det", Gen: func() *graph.Graph { return graph.RMAT(10, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
		50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	render := func(parallelism int) []byte {
		t.Helper()
		out, err := grade10.Characterize(grade10.Input{
			Log:         run.Result.Log,
			Monitoring:  mon,
			Models:      run.Models,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteAll(&buf, out); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := render(1)
	if len(serial) == 0 {
		t.Fatal("empty serial report")
	}
	for _, workers := range []int{0, 2, 8} {
		if par := render(workers); !bytes.Equal(serial, par) {
			t.Fatalf("parallelism %d: report differs from serial run", workers)
		}
	}
}

// TestExplainParallelBitIdentical extends the guard to the provenance layer:
// the explain engine's derivation chains (text and JSON) must be
// byte-identical whatever parallelism the profile's attribution fan-out ran
// at — each query recomputes its chains serially from the profile's inputs
// and reads the profile's own cells alongside, so worker count must never
// reorder or reshape the evidence.
func TestExplainParallelBitIdentical(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "det", Gen: func() *graph.Graph { return graph.RMAT(10, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
		50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"phase=/pagerank/execute/superstep/worker/compute/thread resource=cpu",
		"resource=cpu machine=0",
		"phase=/pagerank/execute/superstep/worker/compute/thread",
	}
	render := func(parallelism int) []byte {
		t.Helper()
		out, err := grade10.Characterize(grade10.Input{
			Log:         run.Result.Log,
			Monitoring:  mon,
			Models:      run.Models,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, qs := range queries {
			q, err := explain.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			d, err := explain.Explain(out.Profile, q)
			if err != nil {
				t.Fatalf("query %q: %v", qs, err)
			}
			if err := d.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	serial := render(1)
	if len(serial) == 0 {
		t.Fatal("empty serial derivation")
	}
	for _, workers := range []int{0, 2, 8} {
		if par := render(workers); !bytes.Equal(serial, par) {
			t.Fatalf("parallelism %d: explain output differs from serial run", workers)
		}
	}
}

// TestDiffParallelBitIdentical extends the guard to the cross-run layer:
// archived records and both diff renderings (text and JSON) must be
// byte-identical whatever parallelism the analyses ran at — archives built
// on different hosts or settings would otherwise never be comparable.
func TestDiffParallelBitIdentical(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	baseRun, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "det", Gen: func() *graph.Graph { return graph.RMAT(10, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisyCfg := cfg
	noisyCfg.OSNoiseCores = 6
	noisyRun, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "det", Gen: func() *graph.Graph { return graph.RMAT(10, 8, 42) }},
		Algorithm: "pagerank"}, noisyCfg)
	if err != nil {
		t.Fatal(err)
	}

	record := func(run *workload.GiraphRun, c giraphsim.Config, parallelism int) *profstore.Record {
		t.Helper()
		mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
			50*vtime.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out, err := grade10.Characterize(grade10.Input{
			Log: run.Result.Log, Monitoring: mon, Models: run.Models,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return profstore.BuildRecord(rundir.Info{
			Engine: "giraph", Job: "pagerank", Workers: c.Workers,
			ThreadsPerWorker: c.ThreadsPerWorker, Cores: c.Machine.Cores,
			NetBandwidth: c.Machine.NetBandwidth, DiskBandwidth: c.Machine.DiskBandwidth,
			StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End),
		}, out)
	}

	renderDiff := func(parallelism int) (string, []byte, []byte) {
		t.Helper()
		a := record(baseRun, cfg, parallelism)
		b := record(noisyRun, noisyCfg, parallelism)
		rep, err := profdiff.Diff(a, b, profdiff.DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := profdiff.WriteText(&text, rep); err != nil {
			t.Fatal(err)
		}
		if err := profdiff.WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		return profstore.ContentID(a) + "/" + profstore.ContentID(b), text.Bytes(), js.Bytes()
	}

	ids1, text1, js1 := renderDiff(1)
	if len(text1) == 0 || len(js1) == 0 {
		t.Fatal("empty diff render")
	}
	for _, workers := range []int{0, 2, 8} {
		ids, text, js := renderDiff(workers)
		if ids != ids1 {
			t.Fatalf("parallelism %d: content IDs changed: %s vs %s", workers, ids, ids1)
		}
		if !bytes.Equal(text, text1) {
			t.Fatalf("parallelism %d: diff text differs from serial run", workers)
		}
		if !bytes.Equal(js, js1) {
			t.Fatalf("parallelism %d: diff JSON differs from serial run", workers)
		}
	}
}
