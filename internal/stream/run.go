package stream

import (
	"grade10/internal/grade10"
	"grade10/internal/rundir"
)

// NewForRun builds an engine for one run from its metadata: cfg is the
// template (sizing, parallelism, hooks), and whatever it leaves unset is
// derived from info — the models through the same entry point as the batch
// CLI, and the expected monitoring feeds as workers × monitored resources.
func NewForRun(info rundir.Info, cfg Config) (*Engine, error) {
	if cfg.Models.Exec == nil {
		models, err := grade10.ModelsForEngine(info.Engine, grade10.ModelParams{
			Job:              info.Job,
			Cores:            info.Cores,
			NetBandwidth:     info.NetBandwidth,
			DiskBandwidth:    info.DiskBandwidth,
			ThreadsPerWorker: info.ThreadsPerWorker,
		})
		if err != nil {
			return nil, err
		}
		cfg.Models = models
	}
	if cfg.ExpectedInstances <= 0 {
		resources := 3 // cpu, net-in, net-out
		if info.DiskBandwidth > 0 {
			resources++
		}
		cfg.ExpectedInstances = info.Workers * resources
	}
	return New(cfg)
}

// Follow tails a run directory into an engine. Log bytes and monitoring
// lines buffer until run.json appears (it may legitimately land after the
// data); build then turns the metadata into the engine, the buffer replays
// into it, and everything after streams straight in. Log bytes are tailed
// raw, so both enginelog formats stream transparently; monitoring lines go
// through IngestMonitoringLine, which counts malformed rows, and over-long
// monitoring lines the tail dropped count in Stats.Truncated. Follow returns
// when the run goes idle or stop closes, handing back the engine for the
// caller to finalize — nil when run.json never appeared. A build error ends
// the follow.
func Follow(dir string, opt rundir.FollowOptions, stop <-chan struct{}, build func(rundir.Info) (*Engine, error)) (*Engine, error) {
	var (
		e            *Engine
		pendingLog   []byte
		pendingMon   []string
		pendingTrunc int
	)
	err := rundir.Follow(dir, opt, stop, rundir.FollowSink{
		Info: func(info rundir.Info) error {
			var err error
			if e, err = build(info); err != nil {
				return err
			}
			if len(pendingLog) > 0 {
				e.IngestChunk(pendingLog)
			}
			for _, line := range pendingMon {
				e.IngestMonitoringLine(line)
			}
			e.addTruncated(pendingTrunc)
			pendingLog, pendingMon = nil, nil
			return nil
		},
		LogChunk: func(chunk []byte) {
			if e != nil {
				e.IngestChunk(chunk)
			} else {
				pendingLog = append(pendingLog, chunk...)
			}
		},
		MonitoringLine: func(line string) {
			if e != nil {
				e.IngestMonitoringLine(line)
			} else {
				pendingMon = append(pendingMon, line)
			}
		},
		MonitoringTruncated: func(n int) {
			if e != nil {
				e.addTruncated(n)
			} else {
				pendingTrunc += n
			}
		},
	})
	return e, err
}
