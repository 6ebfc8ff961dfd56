package stream

import (
	"grade10/internal/grade10"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// NewForRun builds an engine for one run from its metadata: cfg is the
// template (sizing, parallelism, hooks), and whatever it leaves unset is
// derived from info — the models through the same entry point as the batch
// CLI, and the expected monitoring feeds from the models' consumable
// resources, one per worker for a per-machine resource and one for a global
// one. A positive span [StartNS, EndNS) is the end the run's monitoring must
// reach for a follow to finish it from its content.
func NewForRun(info rundir.Info, cfg Config) (*Engine, error) {
	if cfg.Models.Exec == nil {
		models, err := grade10.ModelsForEngine(info.Engine, grade10.RunParams(info))
		if err != nil {
			return nil, err
		}
		cfg.Models = models
	}
	if cfg.ExpectedInstances <= 0 {
		cfg.ExpectedInstances = 0
		for _, r := range cfg.Models.Res.Consumables() {
			if r.PerMachine {
				cfg.ExpectedInstances += info.Workers
			} else {
				cfg.ExpectedInstances++
			}
		}
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if info.EndNS > info.StartNS {
		e.runEnd, e.hasRunEnd = vtime.Time(info.EndNS), true
	}
	return e, nil
}

// Follow tails a run directory into an engine. The tail reads no data
// until run.json appears and parses (it may legitimately land after the
// data); build then turns the metadata into the engine, and every log byte
// and monitoring line streams straight in. Log bytes are tailed raw, so
// both enginelog formats stream transparently; monitoring lines go through
// IngestMonitoringLine, which counts malformed rows, and over-long
// monitoring lines the tail dropped count in Stats.Truncated.
//
// Follow returns, handing back the engine for the caller to finalize (nil
// when run.json never appeared), as soon as a poll leaves the engine holding
// the whole run (see Engine.complete). A producer that dies or stops mid-run
// never completes its content: then Follow returns once the files have been
// idle for opt.Idle, and idle reports it. Follow also returns when stop
// closes, or with the error of a failed build.
func Follow(dir string, opt rundir.FollowOptions, stop <-chan struct{}, build func(rundir.Info) (*Engine, error)) (e *Engine, idle bool, err error) {
	fs := &followSink{build: build}
	err = rundir.Follow(dir, opt, stop, fs.sink())
	if err != nil || fs.e == nil || fs.complete {
		return fs.e, false, err
	}
	select {
	case <-stop:
		return fs.e, false, nil
	default:
		return fs.e, true, nil
	}
}

// followSink is Follow's side of the tail: the engine once run.json built it
// (the tail delivers no data before), and whether the content completed.
type followSink struct {
	build    func(rundir.Info) (*Engine, error)
	e        *Engine
	complete bool
}

func (fs *followSink) sink() rundir.FollowSink {
	return rundir.FollowSink{
		Info: func(info rundir.Info) error {
			e, err := fs.build(info)
			if err != nil {
				return err
			}
			fs.e = e
			return nil
		},
		LogChunk:            func(chunk []byte) { fs.e.IngestChunk(chunk) },
		MonitoringLine:      func(line string) { fs.e.IngestMonitoringLine(line) },
		MonitoringTruncated: func(n int) { fs.e.addTruncated(n) },
		Complete: func() bool {
			fs.complete = fs.e != nil && fs.e.complete()
			return fs.complete
		},
	}
}
