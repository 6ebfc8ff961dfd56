package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"

	"grade10/internal/cluster"
	"grade10/internal/grade10"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// RegressResult is the regression-watchdog validation: the same workload run
// twice — once at the engine's default background noise, once with a heavy
// injected CPU noise load (cluster.Noise) — both archived through profstore,
// then compared with profdiff. The diff must classify the pair as regressed
// and localize the slowdown to the compute leaf × cpu, which is where extra
// background CPU load lands in the Giraph model.
type RegressResult struct {
	NoisyID       string
	BaselineNoise float64
	InjectedNoise float64
	Report        *profdiff.Report

	// Localized is true when the diff names a compute-thread leaf × cpu as
	// the top regression — the ground truth for injected CPU noise.
	Localized bool
}

// RegressNoiseCores is the injected background load (of the model's 8-core
// machines): large enough to push the makespan past the default regression
// threshold, small enough to leave the phase structure intact.
const RegressNoiseCores = 7.5

// Regress runs the watchdog validation on pagerank over the built-in rmat
// dataset — large enough that compute carries a meaningful share of the
// makespan, so injected CPU noise moves the end-to-end verdict and not just
// the compute-leaf rows.
func Regress() (*RegressResult, error) {
	var ds workload.Dataset
	for _, d := range workload.Datasets() {
		if d.Name == "rmat" {
			ds = d
		}
	}
	spec := workload.Spec{Dataset: ds, Algorithm: "pagerank"}

	baseCfg := GiraphConfig(1)
	baseCfg.Workers = 2
	baseline := baseCfg.OSNoiseCores

	dir, err := os.MkdirTemp("", "grade10-regress-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := profstore.Open(dir, profstore.Options{})
	if err != nil {
		return nil, err
	}

	archive := func(noise float64, label string) (string, error) {
		cfg := GiraphConfig(1)
		cfg.Workers = 2
		cfg.OSNoiseCores = noise
		run, err := workload.RunGiraph(spec, cfg)
		if err != nil {
			return "", err
		}
		monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start,
			run.Result.End, 50*vtime.Millisecond)
		if err != nil {
			return "", err
		}
		out, err := grade10.Characterize(grade10.Input{
			Log: run.Result.Log, Monitoring: monitoring, Models: run.Models,
		})
		if err != nil {
			return "", err
		}
		rec := profstore.BuildRecord(rundir.Info{
			Engine: "giraph", Job: spec.Algorithm, Workers: cfg.Workers,
			ThreadsPerWorker: cfg.ThreadsPerWorker, Cores: cfg.Machine.Cores,
			NetBandwidth: cfg.Machine.NetBandwidth, DiskBandwidth: cfg.Machine.DiskBandwidth,
			StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End),
		}, out)
		rec.Label = label
		meta, _, err := store.Put(rec)
		if err != nil {
			return "", err
		}
		return meta.ID, nil
	}

	baseID, err := archive(baseline, "baseline")
	if err != nil {
		return nil, err
	}
	noisyID, err := archive(RegressNoiseCores, "noisy")
	if err != nil {
		return nil, err
	}

	a, err := store.Get(baseID)
	if err != nil {
		return nil, err
	}
	b, err := store.Get(noisyID)
	if err != nil {
		return nil, err
	}
	rep, err := profdiff.Diff(a, b, profdiff.DefaultThreshold)
	if err != nil {
		return nil, err
	}

	r := &RegressResult{
		NoisyID: noisyID, BaselineNoise: baseline, InjectedNoise: RegressNoiseCores,
		Report: rep,
	}
	if tr := rep.TopRegression; tr != nil {
		r.Localized = strings.HasSuffix(tr.TypePath, "/compute/thread") && tr.Resource == "cpu"
	}
	return r, nil
}

// PrintRegress writes the harness summary and the full diff report.
func PrintRegress(w io.Writer, r *RegressResult) {
	fmt.Fprintf(w, "injected cluster.Noise: %.1f cores (baseline %.1f) on run %s\n",
		r.InjectedNoise, r.BaselineNoise, r.NoisyID)
	fmt.Fprintf(w, "detected: verdict=%s localized=%v\n\n", r.Report.Verdict, r.Localized)
	_ = profdiff.WriteText(w, r.Report)
}
