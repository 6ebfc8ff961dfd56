// Command perfbench measures grade10 end to end and layer by layer on the
// three paths its users run:
//
//   - batch-text: cmd/grade10 on run directories with text execution logs;
//   - live-retain: cmd/serve's live ingest of a job as it writes its log and
//     monitoring, with window flushes and the exact finalize (retain mode);
//   - fleet-binary: cmd/serve -fleet characterizing runs with binary logs
//     concurrently behind admission control.
//
// Inputs are the paper's eight evaluation workloads on both simulated
// engines, sixteen runs over graphs generated from --seed; a round
// characterizes all of them. Every run's output is checked against the
// serial batch report of the simulator's in-memory log. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fleet-binary --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"grade10/internal/profstore"
)

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 9

// minRounds keeps the tail percentile meaningful on a short --seconds.
const minRounds = 20

func main() {
	workload := flag.String("workload", "", "batch-text, live-retain or fleet-binary")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	res, err := bench(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench generates the workload's inputs, sets the program up setupReps
// times, then characterizes the runs round after round for the measurement
// time and summarizes them.
func bench(workload string, seed int64, measure time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	runs, err := prepare(workload, seed, work)
	if err != nil {
		return nil, err
	}
	// Set-up is the program's, not the inputs': building a fresh path (for
	// the fleet, opening an empty archive) and characterizing every run once
	// on it, the first time cold. The last set-up's path is the one
	// measured, so its caches are warm.
	var p path
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		p, err = newPath(workload, runs, filepath.Join(work, fmt.Sprint("archive", i)))
		if err != nil {
			return nil, err
		}
		if _, err := p.round(traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Metrics: map[string]metric{}}
	var rounds [][]runSample // each round's samples, in input order
	var heapPeaks []float64
	before := readCounters()
	start := time.Now()
	for tried := 0; tried < minRounds || time.Since(start) < measure; tried++ {
		var heap *heapWatch
		if traced {
			heap = watchHeap()
		}
		got, err := p.round(traced)
		if heap != nil {
			heapPeaks = append(heapPeaks, float64(heap.peak())/1e6)
		}
		if err != nil {
			// A failed round still counts its runs, as failures.
			fmt.Fprintln(os.Stderr, "perfbench: round failed:", err)
			res.Attempted += len(runs)
			res.Failed += len(runs)
			continue
		}
		res.Attempted += len(got)
		for _, s := range got {
			if !s.ok {
				res.Failed++
			}
		}
		rounds = append(rounds, got)
	}
	elapsed := time.Since(start)
	used := readCounters().sub(before)
	res.Correct = res.Failed == 0
	if len(rounds) == 0 {
		return nil, errors.New("no round completed")
	}
	samples := slices.Concat(rounds...)
	n := float64(len(samples))

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		lat := ms(samples, func(s runSample) time.Duration { return s.latency })
		set("run_ms", "ms", typical(rounds, func(s runSample) time.Duration { return s.latency }))
		set("run_p90_ms", "ms", quantile(lat, 0.9))
		set("runs_per_s", "1/s", n/elapsed.Seconds())
		set("cpu_ms_per_run", "ms", used.cpu.Seconds()*1e3/n)
		set("alloc_mb_per_run", "MB", float64(used.allocBytes)/1e6/n)
		set("setup_s", "s", quantile(setups, 0.5))
		return res, nil
	}
	set("queue_wait_ms", "ms", typical(rounds, func(s runSample) time.Duration { return s.wait }))
	set("ingest_ms", "ms", typical(rounds, func(s runSample) time.Duration { return s.ingest }))
	set("analyze_ms", "ms", typical(rounds, func(s runSample) time.Duration { return s.analyze }))
	set("unaccounted_ms", "ms", typical(rounds, func(s runSample) time.Duration {
		return s.latency - s.wait - s.ingest - s.analyze
	}))
	allocs := make([]float64, len(samples))
	var windows int64
	for i, s := range samples {
		allocs[i] = float64(s.analyzeAlloc) / 1e6
		windows += s.windows
	}
	set("analyze_alloc_mb", "MB", quantile(allocs, 0.5))
	set("heap_peak_mb", "MB", quantile(heapPeaks, 0.5))
	set("windows_per_run", "count", float64(windows)/n)
	set("gc_cycles_per_run", "count", float64(used.gcCycles)/n)
	return res, nil
}

// engines are the two frameworks the simulator runs and grade10 models.
var engines = []string{"giraph", "powergraph"}

// prepare simulates the workload's runs under dir — every evaluation
// workload on both engines, with text logs except on the fleet — and
// computes each run's reference output.
func prepare(workload string, seed int64, dir string) ([]*runInput, error) {
	if workload != "batch-text" && workload != "live-retain" && workload != "fleet-binary" {
		return nil, fmt.Errorf("unknown workload %q (have batch-text, live-retain, fleet-binary)", workload)
	}
	var runs []*runInput
	for _, w := range specs(seed) {
		for _, engine := range engines {
			in, err := simulate(runDir(dir, len(runs)), engine, w, workload == "fleet-binary")
			if err != nil {
				return nil, err
			}
			if err := expect(in); err != nil {
				return nil, err
			}
			if workload == "live-retain" {
				if in.steps, err = liveFeed(in); err != nil {
					return nil, err
				}
			}
			runs = append(runs, in)
		}
	}
	return runs, nil
}

// newPath builds the path that characterizes runs; archive is a fresh
// directory for the fleet's profile archive.
func newPath(workload string, runs []*runInput, archive string) (path, error) {
	switch workload {
	case "batch-text":
		return &batchPath{runs: runs}, nil
	case "live-retain":
		return &livePath{runs: runs}, nil
	default:
		store, err := profstore.Open(archive, profstore.Options{})
		if err != nil {
			return nil, err
		}
		return &fleetPath{runs: runs, store: store}, nil
	}
}

// heapWatch samples the live heap (bytes in reachable or not yet swept
// objects) every millisecond and keeps its high-water mark.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				w.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// peak stops the watch and returns the high-water mark.
func (w *heapWatch) peak() uint64 {
	close(w.stop)
	return <-w.done
}

// counters are process-wide resource totals.
type counters struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rm := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rm)
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: rm[0].Value.Uint64(),
		gcCycles:   rm[1].Value.Uint64(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.cpu - o.cpu, c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles}
}

// ms extracts one duration per sample, in milliseconds.
func ms(samples []runSample, f func(runSample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s)) / 1e6
	}
	return out
}

// typical is the mean over a round's inputs of each input's median
// duration across rounds, in milliseconds. The inputs differ in size, so a
// median over all samples would fall between two inputs' clusters and swing
// with either; per-input medians resist outlier rounds, and the mean weighs
// every input alike.
func typical(rounds [][]runSample, f func(runSample) time.Duration) float64 {
	var sum float64
	for i := range rounds[0] {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, float64(f(r[i]))/1e6)
		}
		sum += quantile(xs, 0.5)
	}
	return sum / float64(len(rounds[0]))
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
