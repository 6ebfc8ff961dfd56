package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"grade10/internal/fleet"
	"grade10/internal/grade10"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/ui"
)

// runSample is what the benchmark observed about one characterized run.
// The layer fields are filled only in traced rounds.
type runSample struct {
	// latency runs from handing the run to the program to its final
	// profile (report or archive record) being available.
	latency time.Duration
	// wait runs from handing the run over to the program starting on it:
	// the fleet's admission queue; elsewhere only the hand-off itself.
	wait time.Duration
	// ingest is the time spent reading and decoding the run's inputs and
	// building its phase tree; analyze the time spent in analysis sections
	// (window flushes and the exact batch pipeline); analyzeAlloc the heap
	// bytes those sections allocated.
	ingest, analyze time.Duration
	analyzeAlloc    int64
	// windows counts the live windows flushed for this run.
	windows int64
	// ok reports that the program's output matched the reference.
	ok bool
}

// path is one benchmarked way of characterizing runs. round characterizes
// every run of the workload once and returns a sample per run.
type path interface {
	round(traced bool) ([]runSample, error)
}

// batchPath is cmd/grade10 on text run directories, one after another: load
// and decode each, build the models from run.json, run the full pipeline,
// render the report.
type batchPath struct{ runs []*runInput }

func (p *batchPath) round(traced bool) ([]runSample, error) {
	return eachRun(p.runs, traced, batchRun)
}

// eachRun characterizes runs one after another.
func eachRun(runs []*runInput, traced bool, f func(*runInput, bool) (runSample, error)) ([]runSample, error) {
	out := make([]runSample, len(runs))
	for i, in := range runs {
		s, err := f(in, traced)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func batchRun(in *runInput, traced bool) (runSample, error) {
	var s runSample
	handed := time.Now()
	start := time.Now()
	run, err := rundir.Load(in.dir)
	if err != nil {
		return s, err
	}
	loaded := time.Now()
	models, err := modelsFor(run.Info)
	if err != nil {
		return s, err
	}
	var alloc0 uint64
	if traced {
		alloc0 = obs.HeapAllocBytes()
	}
	analyzeStart := time.Now()
	out, err := grade10.Characterize(grade10.Input{
		Log: run.Log, Monitoring: run.Monitoring, Models: models,
	})
	if err != nil {
		return s, err
	}
	s.analyze = time.Since(analyzeStart)
	if traced {
		s.analyzeAlloc = int64(obs.HeapAllocBytes() - alloc0)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		return s, err
	}
	s.latency = time.Since(handed)
	s.wait = start.Sub(handed)
	s.ingest = loaded.Sub(start)
	s.ok = bytes.Equal(buf.Bytes(), in.wantReport) &&
		run.LogStats.Events == len(in.sim.Log.Events) && !run.LogStats.Degraded()
	return s, nil
}

// livePath is cmd/serve's single-run ingest in retain mode, once per run:
// the run's text log and monitoring rows arrive step by step as a live job
// writes them, windows flush (each one encoded as an SSE frame for the UI)
// as the watermark passes them, and finalize runs the exact batch pipeline
// whose report /report serves.
type livePath struct{ runs []*runInput }

func (p *livePath) round(traced bool) ([]runSample, error) {
	return eachRun(p.runs, traced, liveRun)
}

func liveRun(in *runInput, traced bool) (runSample, error) {
	var s runSample
	var acct *obs.RunAccount
	if traced {
		acct = &obs.RunAccount{}
	}
	handed := time.Now()
	start := time.Now()
	models, err := modelsFor(in.sim.Info)
	if err != nil {
		return s, err
	}
	eng, err := stream.New(stream.Config{
		Models:            models,
		ExpectedInstances: monitoredInstances(in.sim.Info),
		RetainForFinal:    true,
		OnWindowFlush:     ui.NewBroker(0).OnWindowFlush,
		Account:           acct,
	})
	if err != nil {
		return s, err
	}
	for _, st := range in.steps {
		eng.IngestChunk(st.log)
		for _, line := range st.mon {
			eng.IngestMonitoringLine(line)
		}
	}
	ingested := time.Now()
	flushedDuringIngest := acct.Snapshot().WallSeconds
	eng.LogDone()
	eng.MonitoringDone()
	out, err := eng.Finalize()
	if err != nil {
		return s, err
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		return s, err
	}
	s.latency = time.Since(handed)
	s.wait = start.Sub(handed)
	st := eng.Stats()
	s.windows = st.WindowsFlushed
	if traced {
		o := acct.Snapshot()
		s.ingest = ingested.Sub(start) - seconds(flushedDuringIngest)
		s.analyze = seconds(o.WallSeconds)
		s.analyzeAlloc = o.AllocBytes
	}
	s.ok = bytes.Equal(buf.Bytes(), in.wantReport) && st.Events == int64(len(in.sim.Log.Events)) &&
		st.ParseErrors == 0 && st.InvalidEvents == 0 && st.InvalidSamples == 0 && st.WindowsFlushed > 0
	return s, nil
}

// Fleet settings. Admission and backlog are cmd/serve's defaults
// (-fleet-active 8, -fleet-queue 64); the round registers every run at once,
// so half of them queue. Tailing is shortened from serve's -poll 100ms and
// -idle 1s, keeping their 1:10 ratio: those defaults wait out a producer
// that may still be writing, but each run here is complete when registered,
// so any idle wait is dead time that would dilute every change to grade10.
const (
	fleetActive = 8
	fleetQueue  = 64
	fleetPoll   = 5 * time.Millisecond
	fleetIdle   = 50 * time.Millisecond
	// fleetWatch is how often a traced round samples the fleet's admission
	// counts and overhead accounts. Neither takes a stream engine's lock, so
	// watching never waits on (or stalls) a run's finalize.
	fleetWatch = time.Millisecond
	// fleetTimeout bounds one round; a round that exceeds it fails.
	fleetTimeout = 60 * time.Second
)

// fleetPath is cmd/serve -fleet -store: runs with binary logs are
// registered with a fleet, which admits them, tails each directory into its
// own stream engine, finalizes, and archives the record. Archiving the same
// run again rewrites its record in place, so every round pays the full
// archive cost on one store.
type fleetPath struct {
	runs  []*runInput
	store *profstore.Store
}

// stampedArchive is the fleet's archive, noting when each record lands:
// the moment a fleet run's profile becomes available.
type stampedArchive struct {
	*profstore.Store
	landed chan landing // buffered for every run of the round, so Put never blocks
}

type landing struct {
	label string
	at    time.Time
}

func (a *stampedArchive) Put(rec *profstore.Record) (profstore.Meta, []string, error) {
	m, evicted, err := a.Store.Put(rec)
	a.landed <- landing{rec.Label, time.Now()}
	return m, evicted, err
}

func (p *fleetPath) round(traced bool) ([]runSample, error) {
	arch := &stampedArchive{Store: p.store, landed: make(chan landing, len(p.runs))}
	fl := fleet.New(fleet.Config{
		MaxActive: fleetActive, QueueDepth: fleetQueue,
		Poll: fleetPoll, Idle: fleetIdle, Archive: arch,
	})
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
		defer cancel()
		return fl.Shutdown(ctx)
	}
	// For error paths; the success path shuts down below and checks.
	defer func() { _ = shutdown() }()

	byLabel := map[string]int{}
	submitted := make([]time.Time, len(p.runs))
	for i, r := range p.runs {
		submitted[i] = time.Now()
		name, d, err := fl.Register(r.dir)
		if err != nil {
			return nil, err
		}
		if d == fleet.DecisionShed {
			return nil, fmt.Errorf("fleet shed %s", name)
		}
		byLabel["fleet:"+name] = i
	}

	// A traced round also watches admission and ingest: queued runs are
	// promoted in registration order, and a run's overhead account appears
	// once its inputs are ingested.
	activeAt := make([]time.Time, len(p.runs))
	ingestedAt := make([]time.Time, len(p.runs))
	flushedDuringIngest := make([]float64, len(p.runs))
	var watch <-chan time.Time
	if traced {
		copy(activeAt, submitted[:min(fleetActive, len(p.runs))])
		t := time.NewTicker(fleetWatch)
		defer t.Stop()
		watch = t.C
	}
	landedAt := make([]time.Time, len(p.runs))
	timeout := time.NewTimer(fleetTimeout)
	defer timeout.Stop()
	for left := len(p.runs); left > 0; {
		select {
		case l := <-arch.landed:
			landedAt[byLabel[l.label]] = l.at
			left--
		case now := <-watch:
			_, queued, _ := fl.Counts()
			for i := fleetActive; i < len(p.runs)-queued; i++ {
				if activeAt[i].IsZero() {
					activeAt[i] = now
				}
			}
			for _, o := range fl.Overhead() {
				if i := byLabel["fleet:"+o.Run]; ingestedAt[i].IsZero() {
					ingestedAt[i] = now
					flushedDuringIngest[i] = o.WallSeconds
				}
			}
		case <-timeout.C:
			return nil, fmt.Errorf("fleet round exceeded %s", fleetTimeout)
		}
	}
	if err := shutdown(); err != nil {
		return nil, err
	}

	samples := make([]runSample, len(p.runs))
	for _, v := range fl.Snapshot().Runs {
		if v.Status != fleet.StatusDone {
			return nil, fmt.Errorf("fleet run %s %s: %s", v.Name, v.Status, v.Error)
		}
		i := byLabel["fleet:"+v.Name]
		s := &samples[i]
		s.latency = landedAt[i].Sub(submitted[i])
		o := v.Overhead
		s.ok = v.ArchiveID == p.runs[i].wantID && o != nil && o.Windows > 0
		if o == nil {
			continue
		}
		s.windows = o.Windows
		if traced && !ingestedAt[i].IsZero() {
			s.wait = activeAt[i].Sub(submitted[i])
			s.ingest = ingestedAt[i].Sub(activeAt[i]) - seconds(flushedDuringIngest[i])
			s.analyze = seconds(o.WallSeconds)
			s.analyzeAlloc = o.AllocBytes
		}
	}
	return samples, nil
}

// runDir names the run directories run0, run1, ...: the fleet names each
// run after its directory.
func runDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("run%d", i)) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
