package rundir

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"grade10/internal/enginelog"
)

// FollowSink receives the contents of a run directory incrementally as the
// producer writes it. Callbacks run on the Follow goroutine; nil callbacks
// are skipped.
type FollowSink struct {
	// Info fires once, as soon as run.json appears and parses, before any
	// data callback. A non-nil error ends the follow, and Follow returns it.
	// A run.json that Load would reject for its schema version ends the
	// follow with Load's error instead, before Info fires.
	Info func(Info) error
	// LogChunk fires with every raw byte range appended to execution.log,
	// whatever its format — the consumer feeds a format-detecting parser
	// (e.g. stream.Engine.IngestChunk). The slice is only valid during the
	// callback.
	LogChunk func([]byte)
	// MonitoringLine fires for every line of monitoring.csv, split by
	// enginelog.LineSplitter: with its '\n' terminator, and including the
	// header, comments and malformed lines, which the consumer's parser
	// skips or counts (e.g. stream.Engine.IngestMonitoringLine). Over-long
	// lines are dropped. A final line without a terminator arrives when the
	// follow ends.
	MonitoringLine func(string)
	// MonitoringTruncated fires with the number of over-long monitoring
	// lines dropped from a chunk, when there are any.
	MonitoringTruncated func(n int)
	// Complete is asked after every poll whether everything delivered so
	// far makes a whole run (e.g. the stream engine's content check). Once it
	// answers true, Follow drains both data files once more and returns
	// without waiting for Idle.
	Complete func() bool
}

// FollowOptions tunes the tail-follow loop. Times are wall-clock.
type FollowOptions struct {
	// Poll is the file polling interval; default 100ms.
	Poll time.Duration
	// Idle is the fallback for a run whose content never completes (a
	// producer that died or stopped mid-run, or a sink without Complete):
	// the follow ends once run.json exists and neither data file has grown
	// for this long; default 1s.
	Idle time.Duration
}

func (o *FollowOptions) fill() {
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	if o.Idle <= 0 {
		o.Idle = time.Second
	}
}

// Follow tails a run directory while cmd/runsim (or any producer) is still
// writing it, delivering log bytes and monitoring lines to the sink as they
// land on disk. It reads neither data file until run.json has parsed, so
// data written before the metadata waits on disk, not in memory; each poll
// then delivers the log before the monitoring. It handles files that do not
// exist yet and partially written trailing lines. Follow returns as soon as
// a poll leaves the sink's Complete answering true, with no sleep in
// between; when the content never completes, once run.json is present and
// the data files have been idle for Idle; or when stop is closed. On
// completion and on stop it drains both data files once more (if run.json
// has parsed), so bytes appended since the poll still reach the sink (a poll
// reads the log before the monitoring that proved it whole), but no longer
// looks for run.json.
func Follow(dir string, opt FollowOptions, stop <-chan struct{}, sink FollowSink) error {
	opt.fill()
	f := newFollower(dir, sink)
	defer f.finish()
	lastGrowth := time.Now()
	for {
		grew, err := f.poll()
		if err != nil {
			return err
		}
		if sink.Complete != nil && sink.Complete() {
			_, err := f.drain()
			return err
		}
		if grew {
			lastGrowth = time.Now()
		} else if f.infoSeen && time.Since(lastGrowth) >= opt.Idle {
			return nil
		}
		select {
		case <-stop:
			_, err := f.drain()
			return err
		case <-time.After(opt.Poll):
		}
	}
}

// follower is Follow's state for one run directory, apart from the clock.
type follower struct {
	dir      string
	sink     FollowSink
	log, mon tail
	infoSeen bool
}

func newFollower(dir string, sink FollowSink) *follower {
	return &follower{
		dir:  dir,
		sink: sink,
		log:  tail{path: filepath.Join(dir, logFile)},
		mon:  tail{path: filepath.Join(dir, monitoringFile)},
	}
}

// monitoringChunk splits a monitoring chunk into lines for the sink and
// reports how many over-long lines the split dropped.
func (f *follower) monitoringChunk(chunk []byte) {
	dropped := f.mon.lines.Truncated()
	f.mon.lines.Feed(chunk, f.monitoringLine)
	if dropped = f.mon.lines.Truncated() - dropped; dropped > 0 && f.sink.MonitoringTruncated != nil {
		f.sink.MonitoringTruncated(dropped)
	}
}

func (f *follower) monitoringLine(line []byte) {
	if f.sink.MonitoringLine != nil {
		f.sink.MonitoringLine(string(line))
	}
}

// drain delivers whatever both data files gained since the last call and
// returns the number of bytes read. Until run.json has parsed it reads
// nothing: the bytes wait on disk, not in memory.
func (f *follower) drain() (int64, error) {
	if !f.infoSeen {
		return 0, nil
	}
	n, err := f.log.drain(f.sink.LogChunk)
	if err != nil {
		return n, fmt.Errorf("rundir: following %s: %w", logFile, err)
	}
	m, err := f.mon.drain(f.monitoringChunk)
	if err != nil {
		return n + m, fmt.Errorf("rundir: following %s: %w", monitoringFile, err)
	}
	return n + m, nil
}

// poll looks for run.json until it has parsed once, then drains both data
// files. It reports whether anything arrived.
func (f *follower) poll() (bool, error) {
	grew := false
	if !f.infoSeen {
		meta, err := os.ReadFile(filepath.Join(f.dir, infoFile))
		if err != nil {
			return false, nil // not written yet; retry next poll
		}
		info, unparsed, err := decodeInfo(meta)
		switch {
		case unparsed:
			return false, nil // mid-write; retry next poll
		case err != nil:
			return false, err
		}
		f.infoSeen, grew = true, true
		if f.sink.Info != nil {
			if err := f.sink.Info(info); err != nil {
				return grew, err
			}
		}
	}
	n, err := f.drain()
	return grew || n > 0, err
}

// finish delivers a final monitoring line that never got its terminator.
func (f *follower) finish() { f.mon.lines.Finish(f.monitoringLine) }

// tail reads what a producer appends to one file, poll after poll. lines
// splits the chunks of a text file.
type tail struct {
	path   string
	offset int64
	lines  enginelog.LineSplitter
}

// drain reads everything appended since the last call and passes it to fn
// chunk by chunk, through a read buffer it holds only for this call; a chunk
// is only valid during the call. It returns the number of bytes read. A
// missing file is not an error (the producer has not created it yet).
func (t *tail) drain(fn func(chunk []byte)) (int64, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	from := t.offset
	err = enginelog.ReadChunks(io.NewSectionReader(f, from, math.MaxInt64-from), func(chunk []byte) {
		t.offset += int64(len(chunk))
		if fn != nil {
			fn(chunk)
		}
	})
	return t.offset - from, err
}
