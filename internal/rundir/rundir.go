// Package rundir persists one simulated run to a directory — execution log,
// monitoring samples, and run metadata — and loads it back. It is the
// interchange between cmd/runsim (the SUT side of the paper's Figure 1) and
// cmd/grade10 (the characterization side), making the file-based pipeline
// explicit.
package rundir

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"time"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// InfoVersion is the current run.json schema version. Files written before
// versioning existed carry no field and load as version 1.
const InfoVersion = 1

// Info is the run metadata cmd/grade10 needs to rebuild the models.
type Info struct {
	// Version is the run.json schema version (see InfoVersion). A missing
	// field is treated as 1 on load; negative versions and versions newer
	// than InfoVersion are rejected so old readers fail loudly instead of
	// misreading new runs.
	Version int `json:"version,omitempty"`
	// Engine is "giraph" or "powergraph".
	Engine string `json:"engine"`
	// Job is the root phase name (program name).
	Job string `json:"job"`
	// Workers, ThreadsPerWorker, Cores and NetBandwidth describe the SUT.
	Workers          int     `json:"workers"`
	ThreadsPerWorker int     `json:"threads_per_worker"`
	Cores            float64 `json:"cores"`
	NetBandwidth     float64 `json:"net_bandwidth"`
	DiskBandwidth    float64 `json:"disk_bandwidth,omitempty"`
	// StartNS and EndNS bound the run in virtual nanoseconds.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Placement is the co-scheduling manifest: which shared physical host
	// each run-local machine executed on. Runs naming the same host are
	// co-scheduled there, which is what fleet cross-job blame joins on. The
	// field is optional and additive (absent = the run had its machines to
	// itself), so it stays within schema version 1.
	Placement []Placement `json:"placement,omitempty"`
}

// Placement maps one run-local machine index onto a shared physical host.
type Placement struct {
	Machine int    `json:"machine"`
	Host    string `json:"host"`
}

// HostOf returns the shared host the run-local machine was placed on, or ""
// when the manifest does not cover it.
func (i Info) HostOf(machine int) string {
	for _, p := range i.Placement {
		if p.Machine == machine {
			return p.Host
		}
	}
	return ""
}

// Run is a fully loaded run directory.
type Run struct {
	Info       Info
	Log        *enginelog.Log
	Monitoring []cluster.ResourceSamples
	// LogStats reports how the execution log parsed; a truncated or garbled
	// log is degraded (skipped lines counted), not fatal.
	LogStats enginelog.ParseStats
	// LogFormat is the on-disk encoding Load detected (text or binary).
	LogFormat enginelog.Format
	// LogBytes is the on-disk size of the execution log and LogParse the
	// wall-clock time Load spent decoding it — the inputs for throughput
	// diagnostics (MB/s, events/s). Both are zero for in-memory runs.
	LogBytes int64
	LogParse time.Duration
}

const (
	infoFile       = "run.json"
	logFile        = "execution.log"
	monitoringFile = "monitoring.csv"
)

// SaveOptions tunes how SaveOpts persists a run.
type SaveOptions struct {
	// BinaryLog writes execution.log in the compact binary enginelog format
	// instead of text. Loaders auto-detect by magic bytes, so the two are
	// interchangeable downstream.
	BinaryLog bool
}

// SaveOpts writes the run into dir, creating it if needed. The execution
// log is written in the text format unless opt asks for the binary one.
func SaveOpts(dir string, run *Run, opt SaveOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if run.Info.Version == 0 {
		run.Info.Version = InfoVersion
	}
	meta, err := json.MarshalIndent(run.Info, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, infoFile), append(meta, '\n'), 0o644); err != nil {
		return err
	}
	lf, err := os.Create(filepath.Join(dir, logFile))
	if err != nil {
		return err
	}
	defer lf.Close()
	if opt.BinaryLog {
		err = enginelog.WriteBinary(lf, run.Log)
	} else {
		err = enginelog.Write(lf, run.Log)
	}
	if err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(dir, monitoringFile))
	if err != nil {
		return err
	}
	defer mf.Close()
	if err := WriteMonitoring(mf, run.Monitoring); err != nil {
		return err
	}
	return mf.Close()
}

// Load reads a run directory written by Save.
func Load(dir string) (*Run, error) {
	meta, err := os.ReadFile(filepath.Join(dir, infoFile))
	if err != nil {
		return nil, err
	}
	run := &Run{}
	if run.Info, _, err = decodeInfo(meta); err != nil {
		return nil, err
	}
	lf, err := os.Open(filepath.Join(dir, logFile))
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	if fi, err := lf.Stat(); err == nil {
		run.LogBytes = fi.Size()
	}
	parseStart := time.Now()
	run.Log, run.LogStats, run.LogFormat, err = enginelog.ReadStats(lf)
	run.LogParse = time.Since(parseStart)
	if err != nil {
		return nil, err
	}
	mf, err := os.Open(filepath.Join(dir, monitoringFile))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	run.Monitoring, err = ReadMonitoring(mf)
	if err != nil {
		return nil, err
	}
	return run, nil
}

// decodeInfo parses run.json and checks its schema version: a missing
// version is 1, and a negative one or one newer than InfoVersion is an
// error. unparsed reports bytes that do not decode as an Info at all, which
// a follower may be reading mid-write.
func decodeInfo(data []byte) (info Info, unparsed bool, err error) {
	if err := json.Unmarshal(data, &info); err != nil {
		return Info{}, true, fmt.Errorf("rundir: parsing %s: %w", infoFile, err)
	}
	switch {
	case info.Version == 0:
		info.Version = 1 // pre-versioning run.json
	case info.Version < 0:
		return Info{}, false, fmt.Errorf("rundir: %s schema version %d is invalid", infoFile, info.Version)
	case info.Version > InfoVersion:
		return Info{}, false, fmt.Errorf("rundir: %s schema version %d is newer than supported version %d",
			infoFile, info.Version, InfoVersion)
	}
	return info, false, nil
}

// WriteMonitoring serializes monitoring samples as CSV:
// machine,resource,capacity,start_ns,end_ns,avg.
func WriteMonitoring(w io.Writer, monitoring []cluster.ResourceSamples) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "machine,resource,capacity,start_ns,end_ns,avg"); err != nil {
		return err
	}
	for _, rs := range monitoring {
		for _, s := range rs.Samples.Samples {
			_, err := fmt.Fprintf(bw, "%d,%s,%g,%d,%d,%g\n",
				rs.Machine, rs.Resource, rs.Capacity, int64(s.Start), int64(s.End), s.Avg)
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MonitoringRow is one parsed monitoring CSV record: a single coarse sample
// of one resource instance. It is the unit of streaming monitoring ingest.
type MonitoringRow struct {
	Machine  int
	Resource string
	Capacity float64
	Sample   metrics.Sample
}

// ParseMonitoringLine parses one CSV line written by WriteMonitoring. It
// returns ok=false for blank lines, comments, and the header.
func ParseMonitoringLine(line string) (MonitoringRow, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "machine,") || strings.HasPrefix(line, "#") {
		return MonitoringRow{}, false, nil
	}
	var fields [monitoringFields]string
	if n := splitCommas(line, &fields); n != monitoringFields {
		return MonitoringRow{}, false, fmt.Errorf("expected 6 fields, got %d", n)
	}
	machine, err := strconv.Atoi(fields[0])
	if err != nil {
		return MonitoringRow{}, false, fmt.Errorf("machine: %v", err)
	}
	capacity, err := parseFinite(fields[2])
	if err != nil {
		return MonitoringRow{}, false, fmt.Errorf("capacity: %v", err)
	}
	start, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return MonitoringRow{}, false, fmt.Errorf("start: %v", err)
	}
	end, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return MonitoringRow{}, false, fmt.Errorf("end: %v", err)
	}
	avg, err := parseFinite(fields[5])
	if err != nil {
		return MonitoringRow{}, false, fmt.Errorf("avg: %v", err)
	}
	return MonitoringRow{
		Machine: machine, Resource: fields[1], Capacity: capacity,
		Sample: metrics.Sample{Start: vtime.Time(start), End: vtime.Time(end), Avg: avg},
	}, true, nil
}

// monitoringFields is the number of fields in a monitoring CSV line.
const monitoringFields = 6

// splitCommas splits s at every comma into dst without allocating and
// returns the number of fields strings.Split(s, ",") would. dst holds those
// fields when they fit; a longer line is only counted.
func splitCommas(s string, dst *[monitoringFields]string) int {
	n := strings.Count(s, ",") + 1
	if n > len(dst) {
		return n
	}
	for i := 0; i < n-1; i++ {
		j := strings.IndexByte(s, ',')
		dst[i], s = s[:j], s[j+1:]
	}
	dst[n-1] = s
	return n
}

// parseFinite parses a float and rejects NaN and ±Inf, which would
// otherwise propagate through upsampling into every derived figure.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}

// ReadMonitoring parses the CSV written by WriteMonitoring. It is strict: a
// malformed line, or one longer than enginelog.MaxLineLen, is an error naming
// its line number.
func ReadMonitoring(r io.Reader) ([]cluster.ResourceSamples, error) {
	type key struct {
		machine  int
		resource string
	}
	order := []key{}
	byKey := map[key]*cluster.ResourceSamples{}
	var lines enginelog.LineSplitter
	lineNo := 0
	var err error
	parse := func(line []byte) {
		if err != nil || lines.Truncated() > 0 {
			return
		}
		lineNo++
		row, ok, perr := ParseMonitoringLine(string(line))
		if perr != nil {
			err = fmt.Errorf("rundir: monitoring line %d: %v", lineNo, perr)
			return
		}
		if !ok {
			return
		}
		k := key{row.Machine, row.Resource}
		rs, ok := byKey[k]
		if !ok {
			rs = &cluster.ResourceSamples{
				Machine: row.Machine, Resource: row.Resource, Capacity: row.Capacity,
				Samples: &metrics.SampleSeries{},
			}
			byKey[k] = rs
			order = append(order, k)
		}
		rs.Samples.Samples = append(rs.Samples.Samples, row.Sample)
	}
	if rerr := lines.FeedReader(r, parse); rerr != nil {
		return nil, rerr
	}
	lines.Finish(parse)
	if err == nil && lines.Truncated() > 0 {
		// Lines after the over-long one were not counted, so it is the next.
		err = fmt.Errorf("rundir: monitoring line %d: longer than %d bytes", lineNo+1, enginelog.MaxLineLen)
	}
	if err != nil {
		return nil, err
	}
	out := make([]cluster.ResourceSamples, 0, len(order))
	for _, k := range order {
		if err := byKey[k].Samples.Validate(); err != nil {
			return nil, fmt.Errorf("rundir: monitoring %s@%d: %w", k.resource, k.machine, err)
		}
		out = append(out, *byKey[k])
	}
	return out, nil
}
