// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV), plus ablation micro-benchmarks for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report the headline numbers of each figure as
// custom metrics, so a bench run doubles as a reproduction check.
package grade10_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/attribution/reference"
	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/dataflowsim"
	"grade10/internal/enginelog"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/issues"
	"grade10/internal/metrics"
	"grade10/internal/pgsim"
	"grade10/internal/race"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// BenchmarkFigure2WorkedExample regenerates the paper's §III-D constructed
// example through the real attribution pipeline.
func BenchmarkFigure2WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Consumption["r2"][2], "r2-slice2-%")
			b.ReportMetric(r.Consumption["r2"][3], "r2-slice3-%")
		}
	}
}

// BenchmarkTable2Upsampling regenerates Table II: upsampling error versus
// monitoring granularity for three system configurations.
func BenchmarkTable2Upsampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Ratio == 64 {
					b.ReportMetric(r.Grade10Error*100, r.System+"-err64x-%")
				}
			}
		}
	}
}

// BenchmarkFig3AttributionRules regenerates Figure 3: the effect of tuned
// attribution rules on the Compute phase's demand estimate and bottleneck
// flags.
func BenchmarkFig3AttributionRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			count := func(pts []experiments.Fig3Point) float64 {
				n := 0.0
				for _, p := range pts {
					if p.Bottlenecked {
						n++
					}
				}
				return n
			}
			b.ReportMetric(count(r.Tuned), "tuned-btl-slices")
			b.ReportMetric(count(r.Untuned), "untuned-btl-slices")
		}
	}
}

// BenchmarkFig4Bottlenecks regenerates Figure 4: bottleneck impact across
// the eight workloads on both engines.
func BenchmarkFig4Bottlenecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxCPU, maxGC := 0.0, 0.0
			for _, r := range rows {
				if r.System == "giraph" && r.Resource == "cpu" && r.Impact > maxCPU {
					maxCPU = r.Impact
				}
				if r.Resource == "gc" && r.Impact > maxGC {
					maxGC = r.Impact
				}
			}
			b.ReportMetric(maxCPU*100, "giraph-max-cpu-%")
			b.ReportMetric(maxGC*100, "giraph-max-gc-%")
		}
	}
}

// BenchmarkFig5Imbalance regenerates Figure 5: imbalance impact across the
// five PowerGraph phase types for the eight workloads.
func BenchmarkFig5Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxGather := 0.0
			for _, r := range rows {
				if r.PhaseType == "gather" && r.Impact > maxGather {
					maxGather = r.Impact
				}
			}
			b.ReportMetric(maxGather*100, "max-gather-imbalance-%")
		}
	}
}

// BenchmarkFig6SyncBug regenerates Figure 6: straggler detection exposing
// the injected PowerGraph synchronization bug.
func BenchmarkFig6SyncBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.StepSlowdown, "step-slowdown-x")
			b.ReportMetric(float64(r.AffectedSteps)/float64(r.TotalSteps)*100, "affected-steps-%")
		}
	}
}

// --- Ablation and substrate micro-benchmarks ---

func analyzerFixture(b testing.TB) (*core.ExecutionTrace, *core.ResourceTrace,
	*core.RuleSet, core.Timeslices) {
	b.Helper()
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "bench", Gen: func() *graph.Graph { return graph.RMAT(11, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.BuildExecutionTrace(run.Result.Log, run.Models.Exec)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
		50*vtime.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	rt := core.NewResourceTrace()
	for _, rs := range mon {
		res := run.Models.Res.Lookup(rs.Resource)
		if res == nil {
			continue
		}
		if err := rt.Add(res, rs.Machine, rs.Samples); err != nil {
			b.Fatal(err)
		}
	}
	slices := core.NewTimeslices(tr.Start, tr.End, 10*vtime.Millisecond)
	return tr, rt, run.Models.Rules, slices
}

// BenchmarkAttribution measures the core attribution pipeline (demand
// estimation, upsampling, per-phase attribution) on a real trace.
func BenchmarkAttribution(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attribution.Attribute(tr, rt, rules, slices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBottleneckDetection measures §III-E detection on a real profile.
func BenchmarkBottleneckDetection(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	prof, err := attribution.Attribute(tr, rt, rules, slices)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bottleneck.Detect(prof)
	}
}

// BenchmarkReplaySimulator measures the §III-F trace replay in its two
// parts: compiling a finished trace's schedule, once per analysis, and one
// replay over it, once per what-if candidate. It runs on the Giraph fixture
// and on synthetic BSP logs of 50 and 500 sequential supersteps; a replay is
// one pass over the schedule, so its time grows linearly with the superstep
// count.
func BenchmarkReplaySimulator(b *testing.B) {
	fixture, _, _, _ := analyzerFixture(b)
	for _, c := range []struct {
		name string
		tr   *core.ExecutionTrace
	}{
		{"fixture", fixture},
		{"supersteps=50", superstepTrace(b, 50)},
		{"supersteps=500", superstepTrace(b, 500)},
	} {
		b.Run(c.name+"/compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				issues.Compile(c.tr)
			}
		})
		sched := issues.Compile(c.tr)
		b.Run(c.name+"/replay", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched.Replay(nil)
			}
		})
	}
}

// superstepTrace builds a BSP trace of n sequential supersteps on four
// workers, each computing for a worker- and step-dependent time and then
// waiting at a cluster-wide barrier.
func superstepTrace(b testing.TB, n int) *core.ExecutionTrace {
	b.Helper()
	root := core.NewRootType("bsp")
	ss := root.Child("superstep", true)
	ss.Sequential = true
	worker := ss.Child("worker", true)
	worker.Child("compute", false)
	worker.Child("barrier", false, "compute").SyncGroup = true
	model, err := core.NewExecutionModel(root)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/bsp", -1)
	for s := 0; s < n; s++ {
		ssPath := enginelog.JoinIndexed("/bsp", "superstep", s)
		l.StartPhase(ssPath, -1)
		start := now
		var end vtime.Time
		for w := 0; w < workers; w++ {
			end = vtime.Max(end, start.Add(vtime.Duration(10+(s*7+w*3)%11)*vtime.Millisecond))
		}
		for w := 0; w < workers; w++ {
			wPath := enginelog.JoinIndexed(ssPath, "worker", w)
			computed := start.Add(vtime.Duration(10+(s*7+w*3)%11) * vtime.Millisecond)
			now = start
			l.StartPhase(wPath, w)
			l.StartPhase(wPath+"/compute", -1)
			now = computed
			l.EndPhase(wPath + "/compute")
			l.StartPhase(wPath+"/barrier", -1)
			now = end
			l.BlockedSince(wPath+"/barrier", "sync", computed)
			l.EndPhase(wPath + "/barrier")
			l.EndPhase(wPath)
		}
		l.EndPhase(ssPath)
	}
	l.EndPhase("/bsp")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkGiraphEngine measures the BSP engine simulation end to end.
func BenchmarkGiraphEngine(b *testing.B) {
	g := graph.RMAT(11, 8, 42)
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	part := graph.HashPartition(g, cfg.Workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 5), part, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerGraphEngine measures the GAS engine simulation end to end.
func BenchmarkPowerGraphEngine(b *testing.B) {
	g := graph.RMAT(11, 8, 42)
	cfg := pgsim.DefaultConfig()
	cfg.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgsim.Run(vertexprog.NewPageRank(g, 0.85, 5), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyVertexCut measures the partitioner against the graph size.
func BenchmarkGreedyVertexCut(b *testing.B) {
	g := graph.RMAT(14, 16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc := graph.GreedyVertexCut(g, 16)
		if i == 0 {
			b.ReportMetric(vc.ReplicationFactor(), "replication-factor")
		}
	}
}

// --- Ablations ---

// BenchmarkAblationTimesliceWidth sweeps the analysis granularity: the
// paper's §III-C notes the timeslice duration controls how fine-grained the
// analysis is; this shows its cost.
func BenchmarkAblationTimesliceWidth(b *testing.B) {
	for _, width := range []vtime.Duration{5 * vtime.Millisecond,
		10 * vtime.Millisecond, 50 * vtime.Millisecond} {
		b.Run(width.String(), func(b *testing.B) {
			tr, rt, rules, _ := analyzerFixture(b)
			slices := core.NewTimeslices(tr.Start, tr.End, width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := attribution.Attribute(tr, rt, rules, slices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpsamplingRatio measures how reconstruction error scales
// with the monitoring ratio on a live profile (the Table II mechanism as a
// single-run metric).
func BenchmarkAblationUpsamplingRatio(b *testing.B) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "bench-upsample", Gen: func() *graph.Graph { return graph.RMAT(11, 8, 5) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.BuildExecutionTrace(run.Result.Log, run.Models.Exec)
	if err != nil {
		b.Fatal(err)
	}
	exact, err := run.Result.Cluster.GroundTruth(0, cluster.ResCPU)
	if err != nil {
		b.Fatal(err)
	}
	ground := metrics.SampleSeriesOf(exact, tr.Start, tr.End, 10*vtime.Millisecond)
	truth := ground.ToSeries()
	cpuRes := run.Models.Res.Lookup(cluster.ResCPU)
	slices := core.NewTimeslices(tr.Start, tr.End, 10*vtime.Millisecond)
	for _, ratio := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("%dx", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := core.NewResourceTrace()
				if err := rt.Add(cpuRes, 0, ground.Downsample(ratio)); err != nil {
					b.Fatal(err)
				}
				prof, err := attribution.Attribute(tr, rt, run.Models.Rules, slices)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					up := prof.Get(cluster.ResCPU, 0).UpsampledSeries(slices)
					e := metrics.RelativeError(up, truth, tr.Start, tr.End, 10*vtime.Millisecond)
					b.ReportMetric(e*100, "error-%")
				}
			}
		})
	}
}

// --- Streaming (live characterization) benchmarks ---

// BenchmarkWindowedAttribution measures the incremental path the streaming
// engine takes — attribution.AttributeWindow over fixed windows of
// timeslices — on the exact workload BenchmarkAttribution analyzes in one
// shot, making the two directly comparable: windowing bounds the per-flush
// cost (what lets the live service keep up with a running job) while total
// work stays within a small factor of the batch pass.
func BenchmarkWindowedAttribution(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	leaves := tr.Leaves()
	const windowSlices = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < slices.Count; s += windowSlices {
			w0 := slices.Start.Add(vtime.Duration(s) * slices.Width)
			w1 := vtime.Min(w0.Add(vtime.Duration(windowSlices)*slices.Width), slices.End)
			win := core.NewTimeslices(w0, w1, slices.Width)
			var overlap []*core.Phase
			for _, p := range leaves {
				if p.Start < w1 && p.End > w0 {
					overlap = append(overlap, p)
				}
			}
			wtr := &core.ExecutionTrace{Root: tr.Root, Start: w0, End: w1}
			if _, err := attribution.AttributeWindow(wtr, overlap, rt, rules, win, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamIngest measures the full streaming engine end to end in
// bounded-memory mode: parsing serialized log and monitoring text, building
// the live phase tree, and flushing incremental windows — the cost a live
// deployment pays per byte of run output.
func BenchmarkStreamIngest(b *testing.B) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "bench-stream", Gen: func() *graph.Graph { return graph.RMAT(11, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
		10*vtime.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	var logBuf, monBuf bytes.Buffer
	if err := enginelog.Write(&logBuf, run.Result.Log); err != nil {
		b.Fatal(err)
	}
	if err := rundir.WriteMonitoring(&monBuf, mon); err != nil {
		b.Fatal(err)
	}
	logLines := bytes.SplitAfter(logBuf.Bytes(), []byte("\n"))
	monLines := strings.Split(strings.TrimRight(monBuf.String(), "\n"), "\n")
	b.SetBytes(int64(logBuf.Len() + monBuf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := stream.New(stream.Config{
			Models: run.Models, ExpectedInstances: len(mon),
			Timeslice: vtime.Millisecond, WindowSlices: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, line := range logLines {
			eng.IngestChunk(line)
		}
		eng.LogDone()
		for _, line := range monLines {
			eng.IngestMonitoringLine(line)
		}
		eng.MonitoringDone()
		if _, err := eng.Finalize(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(eng.Stats().WindowsFlushed), "windows")
		}
	}
}

// enginelogFixture encodes one 4-worker Giraph PageRank log in both on-disk
// formats.
func enginelogFixture(tb testing.TB) (text, binary []byte) {
	tb.Helper()
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	run, err := workload.RunGiraph(workload.Spec{
		Dataset:   workload.Dataset{Name: "bench-parse", Gen: func() *graph.Graph { return graph.RMAT(11, 8, 42) }},
		Algorithm: "pagerank"}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var textBuf, binBuf bytes.Buffer
	if err := enginelog.Write(&textBuf, run.Result.Log); err != nil {
		tb.Fatal(err)
	}
	if err := enginelog.WriteBinary(&binBuf, run.Result.Log); err != nil {
		tb.Fatal(err)
	}
	return textBuf.Bytes(), binBuf.Bytes()
}

// decodeLoop is one decode benchmark: ReadStats over log, b.N times.
func decodeLoop(log []byte) func(*testing.B) {
	return func(b *testing.B) {
		b.SetBytes(int64(len(log)))
		for i := 0; i < b.N; i++ {
			if _, _, _, err := enginelog.ReadStats(bytes.NewReader(log)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnginelogParse decodes the same fixture log from both on-disk
// formats; MB/s is over the encoded size, so the binary side reflects both
// the smaller encoding and the cheaper decode.
func BenchmarkEnginelogParse(b *testing.B) {
	text, binary := enginelogFixture(b)
	b.Run("format=text", decodeLoop(text))
	b.Run("format=binary", decodeLoop(binary))
}

// TestBinaryDecodeFasterThanText is the binary format's reason to exist, as
// a gate: decoding the fixture log from the binary encoding must take fewer
// ns/op than decoding it from text. Each side takes decodeSamples
// testing.Benchmark runs of BenchmarkEnginelogParse's loop, interleaved
// text/binary so load from concurrently running tests hits both sides
// alike, and the medians are compared.
func TestBinaryDecodeFasterThanText(t *testing.T) {
	if testing.Short() {
		t.Skip("times the decode benchmarks; skipped with -short")
	}
	if race.Enabled {
		t.Skip("the race detector's instrumentation distorts the timing comparison")
	}
	const decodeSamples = 5
	text, binary := enginelogFixture(t)
	txts := make([]int64, decodeSamples)
	bins := make([]int64, decodeSamples)
	for i := range txts {
		txts[i] = testing.Benchmark(decodeLoop(text)).NsPerOp()
		bins[i] = testing.Benchmark(decodeLoop(binary)).NsPerOp()
	}
	txt, bin := medianNs(txts), medianNs(bins)
	if bin >= txt {
		t.Errorf("binary enginelog decode (median %d ns/op of %v) not faster than text (median %d ns/op of %v)",
			bin, bins, txt, txts)
	}
	t.Logf("enginelog decode medians: text %d ns/op, binary %d ns/op", txt, bin)
}

// medianNs returns the median of an odd-length sample, sorting it in place.
func medianNs(xs []int64) int64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// BenchmarkAttributionColumnar compares the columnar core against the frozen
// row-based oracle in internal/attribution/reference, both serial. The two
// produce bit-identical profiles (see the reference equivalence tests); only
// wall-clock and allocations should differ.
func BenchmarkAttributionColumnar(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	leaves := tr.Leaves()
	b.Run("impl=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reference.Attribute(leaves, rt, rules, slices, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("impl=columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := attribution.AttributeWindow(tr, leaves, rt, rules,
				slices, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Serial vs parallel pipeline benchmarks ---

// benchWorkerCounts are the pool sizes the parallel benchmarks sweep.
// workers=1 is the serial baseline (par.Do runs inline, no goroutines).
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkAttributionParallel measures the attribution fan-out across
// (resource, machine) instances at increasing pool sizes. Output is
// byte-identical at every width (see TestPipelineParallelReportBitIdentical);
// only wall-clock should move.
func BenchmarkAttributionParallel(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := attribution.AttributeWindow(tr, tr.Leaves(), rt, rules, slices, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIssueReplayParallel measures the §III-F candidate replays — one
// full trace re-simulation per bottleneck-removal or imbalance candidate —
// distributed over the worker pool.
func BenchmarkIssueReplayParallel(b *testing.B) {
	tr, rt, rules, slices := analyzerFixture(b)
	prof, err := attribution.Attribute(tr, rt, rules, slices)
	if err != nil {
		b.Fatal(err)
	}
	btl := bottleneck.Detect(prof)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := issues.Config{Parallelism: w}
			for i := 0; i < b.N; i++ {
				issues.Analyze(prof, btl, cfg)
			}
		})
	}
}

// BenchmarkSuperstepParallel measures the BSP engine with the host-side
// per-partition superstep precompute fanned out over the pool. Virtual time
// and the engine log are unaffected (see giraphsim's determinism guard).
func BenchmarkSuperstepParallel(b *testing.B) {
	g := graph.RMAT(11, 8, 42)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := giraphsim.DefaultConfig()
			cfg.Workers = 4
			cfg.Parallelism = w
			part := graph.HashPartition(g, cfg.Workers)
			for i := 0; i < b.N; i++ {
				if _, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 5), part, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataflowEngine measures the Spark-like extension engine.
func BenchmarkDataflowEngine(b *testing.B) {
	job := dataflowsim.Job{
		Name: "bench", InputRows: 100_000,
		Stages: []dataflowsim.StageSpec{
			{Tasks: 32, CostPerRow: 2e-6, Selectivity: 1, ShuffleSkew: 0.8},
			{Tasks: 32, CostPerRow: 4e-6, Selectivity: 0.3},
		},
	}
	cfg := dataflowsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataflowsim.Run(job, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
