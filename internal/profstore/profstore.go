// Package profstore is the append-only archive of analyzed runs — the
// persistence layer that turns the one-shot characterization pipeline into a
// continuously observable perf trajectory. Each archived run is a Record: a
// compact, stable-encoded summary of one grade10.Output (phase-type tree,
// attribution totals, bottleneck rows, issue list) keyed by a deterministic
// content hash, so re-archiving the same analysis is idempotent and the same
// run produces the same ID at every -parallelism setting.
//
// Layout on disk:
//
//	<dir>/index.json     append-ordered metadata of every retained run
//	<dir>/runs/<id>.json one Record per archived run
//
// This is the only layout; Open migrates the sharded one of earlier builds.
//
// Retention is bounded: Options.MaxRuns caps the archive, and the oldest
// records (lowest sequence number) are evicted deterministically; evictions
// are counted for the grade10_runs_evicted_total gauge.
package profstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/rundir"
)

// Version is the record and index schema version. Records without a version
// field load as version 1.
const Version = 1

// PhaseSummary aggregates all instances of one phase type on one machine.
// Machine is -1 when the phases were not bound to a machine anywhere in
// their ancestry (core.Phase semantics).
type PhaseSummary struct {
	TypePath string `json:"type_path"`
	Machine  int    `json:"machine"`
	// Leaf marks attribution-bearing phase types (no children in the
	// execution model); localization in profdiff ranks leaves only, so
	// ancestors do not absorb the blame for their children.
	Leaf    bool  `json:"leaf"`
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MeanNS  int64 `json:"mean_ns"`
	MaxNS   int64 `json:"max_ns"`
	// BlockedNS sums blocking time per resource across the instances.
	BlockedNS map[string]int64 `json:"blocked_ns,omitempty"`
}

// ResourceSummary integrates one resource instance over the profiled span.
type ResourceSummary struct {
	// Key is the instance key, e.g. "cpu@0" or "barrier@global".
	Key      string  `json:"key"`
	Resource string  `json:"resource"`
	Machine  int     `json:"machine"`
	Capacity float64 `json:"capacity"`
	// ConsumedUnitSeconds etc. are unit·second integrals of the upsampled
	// consumption and its attributed/unattributed split.
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	// AvgUtilization is mean consumption over capacity across the span.
	AvgUtilization float64 `json:"avg_utilization"`
}

// AttributionCell is the attributed consumption of one phase type on one
// resource, summed over machines and instances — the cross-run comparable
// core of the paper's 3-D attribution array.
type AttributionCell struct {
	TypePath    string  `json:"type_path"`
	Resource    string  `json:"resource"`
	UnitSeconds float64 `json:"unit_seconds"`
}

// BottleneckSummary aggregates detected bottlenecks of one
// (type path, resource, kind).
type BottleneckSummary struct {
	TypePath string `json:"type_path"`
	Resource string `json:"resource"`
	Kind     string `json:"kind"`
	Phases   int    `json:"phases"`
	TotalNS  int64  `json:"total_ns"`
}

// IssueSummary is one §III-F issue with its estimated impact.
type IssueSummary struct {
	Kind string `json:"kind"`
	// Target is the resource (bottleneck issues) or phase type (imbalance).
	Target       string  `json:"target"`
	OriginalNS   int64   `json:"original_ns"`
	OptimisticNS int64   `json:"optimistic_ns"`
	Impact       float64 `json:"impact"`
}

// Record is one archived run: everything profdiff needs to explain a
// cross-run delta, none of the raw per-timeslice bulk.
type Record struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	// Seq is the store-assigned append order; eviction drops lowest first.
	Seq   int64  `json:"seq"`
	Label string `json:"label,omitempty"`

	Engine      string `json:"engine"`
	Job         string `json:"job"`
	Workers     int    `json:"workers"`
	Timeslices  int    `json:"timeslices"`
	TimesliceNS int64  `json:"timeslice_ns"`
	MakespanNS  int64  `json:"makespan_ns"`

	Phases      []PhaseSummary      `json:"phases"`
	Resources   []ResourceSummary   `json:"resources"`
	Attribution []AttributionCell   `json:"attribution"`
	Bottlenecks []BottleneckSummary `json:"bottlenecks"`
	Issues      []IssueSummary      `json:"issues"`

	Stragglers            int     `json:"stragglers"`
	UnderutilizedFraction float64 `json:"underutilized_fraction"`
}

// BuildRecord summarizes one characterization into an archivable Record.
// Every slice is sorted on a total order, and every float is accumulated in
// the pipeline's deterministic output order, so the encoded record — and the
// content ID derived from it — is byte-identical across -parallelism.
func BuildRecord(info rundir.Info, out *grade10.Output) *Record {
	rec := &Record{
		Version:     Version,
		Engine:      info.Engine,
		Job:         info.Job,
		Workers:     info.Workers,
		Timeslices:  out.Slices.Count,
		TimesliceNS: int64(out.Slices.Width),
		MakespanNS:  int64(out.Trace.End.Sub(out.Trace.Start)),
	}

	// Phase summaries keyed by (type path, machine).
	type phaseKey struct {
		tp      string
		machine int
	}
	phases := map[phaseKey]*PhaseSummary{}
	out.Trace.Root.Walk(func(p *core.Phase) {
		if p.Type == nil {
			return // synthetic trace root
		}
		k := phaseKey{p.Type.Path(), p.Machine}
		ps, ok := phases[k]
		if !ok {
			ps = &PhaseSummary{TypePath: k.tp, Machine: k.machine, Leaf: p.Type.IsLeaf()}
			phases[k] = ps
		}
		ps.Count++
		d := int64(p.Duration())
		ps.TotalNS += d
		if d > ps.MaxNS {
			ps.MaxNS = d
		}
		for _, b := range p.Blocked {
			if ps.BlockedNS == nil {
				ps.BlockedNS = map[string]int64{}
			}
			ps.BlockedNS[b.Resource] += int64(b.Duration())
		}
	})
	rec.Phases = make([]PhaseSummary, 0, len(phases))
	for _, ps := range phases {
		ps.MeanNS = ps.TotalNS / int64(ps.Count)
		rec.Phases = append(rec.Phases, *ps)
	}
	sort.Slice(rec.Phases, func(i, j int) bool {
		a, b := rec.Phases[i], rec.Phases[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		return a.Machine < b.Machine
	})

	// Resource summaries and the (type path, resource) attribution cells.
	// Profile instances are in deterministic rt.Instances() order; usage
	// lists are in deterministic leaf order — accumulation order is fixed.
	type cellKey struct{ tp, res string }
	cells := map[cellKey]float64{}
	for _, ip := range out.Profile.Instances {
		consumed, attributed, unattributed := ip.Totals(out.Slices)
		avg := 0.0
		for _, c := range ip.Consumption {
			avg += c
		}
		if out.Slices.Count > 0 {
			avg /= float64(out.Slices.Count)
		}
		capacity := ip.Instance.Resource.Capacity
		util := 0.0
		if capacity > 0 {
			util = avg / capacity
		}
		rec.Resources = append(rec.Resources, ResourceSummary{
			Key:                     ip.Instance.Key(),
			Resource:                ip.Instance.Resource.Name,
			Machine:                 ip.Instance.Machine,
			Capacity:                capacity,
			ConsumedUnitSeconds:     consumed,
			AttributedUnitSeconds:   attributed,
			UnattributedUnitSeconds: unattributed,
			AvgUtilization:          util,
		})
		for _, u := range ip.Usage {
			if u.Phase.Type == nil {
				continue
			}
			cells[cellKey{u.Phase.Type.Path(), ip.Instance.Resource.Name}] += u.Total(out.Slices)
		}
	}
	sort.Slice(rec.Resources, func(i, j int) bool { return rec.Resources[i].Key < rec.Resources[j].Key })
	rec.Attribution = make([]AttributionCell, 0, len(cells))
	for k, v := range cells {
		rec.Attribution = append(rec.Attribution, AttributionCell{TypePath: k.tp, Resource: k.res, UnitSeconds: v})
	}
	sort.Slice(rec.Attribution, func(i, j int) bool {
		a, b := rec.Attribution[i], rec.Attribution[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		return a.Resource < b.Resource
	})

	// Bottleneck rows aggregated by (type path, resource, kind).
	type btlKey struct{ tp, res, kind string }
	btls := map[btlKey]*BottleneckSummary{}
	for _, b := range out.Bottlenecks.Bottlenecks {
		tp := "?"
		if b.Phase.Type != nil {
			tp = b.Phase.Type.Path()
		}
		k := btlKey{tp, b.Resource, b.Kind.String()}
		row, ok := btls[k]
		if !ok {
			row = &BottleneckSummary{TypePath: k.tp, Resource: k.res, Kind: k.kind}
			btls[k] = row
		}
		row.Phases++
		row.TotalNS += int64(b.Time)
	}
	rec.Bottlenecks = make([]BottleneckSummary, 0, len(btls))
	for _, row := range btls {
		rec.Bottlenecks = append(rec.Bottlenecks, *row)
	}
	sort.Slice(rec.Bottlenecks, func(i, j int) bool {
		a, b := rec.Bottlenecks[i], rec.Bottlenecks[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})

	for _, is := range out.Issues.Issues {
		target := is.Resource
		if target == "" {
			target = is.PhaseType
		}
		rec.Issues = append(rec.Issues, IssueSummary{
			Kind:         is.Kind.String(),
			Target:       target,
			OriginalNS:   int64(is.Original),
			OptimisticNS: int64(is.Optimistic),
			Impact:       is.Impact,
		})
	}
	sort.Slice(rec.Issues, func(i, j int) bool {
		a, b := rec.Issues[i], rec.Issues[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	rec.Stragglers = len(out.Issues.Outliers)
	rec.UnderutilizedFraction = out.Issues.Underutilization.Fraction
	return rec
}

// ContentID derives the record's deterministic ID: the first 12 hex digits
// of the SHA-256 of its stable encoding with the store-assigned fields (ID,
// Seq, Label) zeroed. Two analyses of the same run — at any parallelism —
// share an ID; archiving is idempotent.
func ContentID(rec *Record) string {
	clone := *rec
	clone.ID, clone.Seq, clone.Label = "", 0, ""
	data, err := json.Marshal(&clone)
	if err != nil {
		// Record marshaling cannot fail: plain structs, string-keyed maps.
		panic("profstore: encoding record: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// Meta is the index entry of one archived run.
type Meta struct {
	ID         string `json:"id"`
	Seq        int64  `json:"seq"`
	Label      string `json:"label,omitempty"`
	Engine     string `json:"engine"`
	Job        string `json:"job"`
	Workers    int    `json:"workers"`
	MakespanNS int64  `json:"makespan_ns"`
}

// index is the persisted store state.
type index struct {
	Version      int    `json:"version"`
	NextSeq      int64  `json:"next_seq"`
	EvictedTotal int64  `json:"evicted_total"`
	Runs         []Meta `json:"runs"`
}

// Options tunes a store.
type Options struct {
	// MaxRuns bounds retention; 0 means unlimited. When an append pushes the
	// archive past the bound, the oldest records (lowest Seq) are evicted.
	MaxRuns int
}

// ErrCorruptIndex matches (via errors.Is) every CorruptIndexError, so callers
// can branch on "the archive metadata is damaged" without caring which file.
var ErrCorruptIndex = errors.New("profstore: corrupt index")

// ErrCorruptRecord matches (via errors.Is) every CorruptRecordError.
var ErrCorruptRecord = errors.New("profstore: corrupt record")

// ErrNewerVersion matches (via errors.Is) a schema newer than this build's.
var ErrNewerVersion = errors.New("profstore: newer schema version")

func newerVersion(what string, v int) error {
	return fmt.Errorf("%w: %s is version %d, this build reads up to %d", ErrNewerVersion, what, v, Version)
}

// CorruptIndexError reports an index file that exists but does not parse.
// Path is the offending file (index.json, or a legacy shards.json).
type CorruptIndexError struct {
	Path string
	Err  error
}

func (e *CorruptIndexError) Error() string {
	return fmt.Sprintf("profstore: corrupt index %s: %v", e.Path, e.Err)
}

func (e *CorruptIndexError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorruptIndex) true for every CorruptIndexError.
func (e *CorruptIndexError) Is(target error) bool { return target == ErrCorruptIndex }

// CorruptRecordError reports an archived record file that does not parse.
type CorruptRecordError struct {
	Path string
	Err  error
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("profstore: corrupt record %s: %v", e.Path, e.Err)
}

func (e *CorruptRecordError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorruptRecord) true for every CorruptRecordError.
func (e *CorruptRecordError) Is(target error) bool { return target == ErrCorruptRecord }

// Archive is the run-archive surface the service, the fleet, alert baselines
// and regression scans consume: a Store, or a wrapper that embeds one.
// Implementations must be safe for concurrent use.
type Archive interface {
	// Len returns the number of retained runs.
	Len() int
	// EvictedTotal returns the runs evicted over the archive's lifetime.
	EvictedTotal() int64
	// List returns the retained runs in append order (ascending Seq).
	List() []Meta
	// Put archives a record (see Store.Put).
	Put(rec *Record) (Meta, []string, error)
	// Get loads one record by ID or unique ID prefix.
	Get(id string) (*Record, error)
	// Resolve maps an ID or unique ID prefix to its index entry.
	Resolve(id string) (Meta, error)
}

var _ Archive = (*Store)(nil)

// Store is an on-disk run archive. All methods are safe for concurrent use,
// so the fleet, HTTP handlers and scrapes share one Store: a mutex guards the
// index, and every file is written to a temporary name and renamed into
// place, so Get reads records unlocked and a crash never leaves a torn file.
type Store struct {
	dir  string
	opts Options

	mu  sync.Mutex
	idx index
}

const (
	indexFile = "index.json"
	runsDir   = "runs"
)

// Open opens (or creates) the archive at dir, first migrating a sharded
// archive left by earlier builds.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, runsDir), 0o755); err != nil {
		return nil, err
	}
	if err := migrateShards(dir); err != nil {
		return nil, err
	}
	idx, err := readIndex(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts, idx: idx}, nil
}

// readIndex loads one index file; a missing file is an empty index.
func readIndex(path string) (index, error) {
	idx := index{Version: Version}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return idx, nil
	case err != nil:
		return idx, err
	}
	if err := json.Unmarshal(data, &idx); err != nil {
		return idx, &CorruptIndexError{Path: path, Err: err}
	}
	if idx.Version == 0 {
		idx.Version = 1
	}
	if idx.Version > Version {
		return idx, newerVersion(path, idx.Version)
	}
	for _, m := range idx.Runs {
		// IDs name record files: reject any that could leave runs/.
		if m.ID == "" || len(m.ID) > 128 || strings.ContainsAny(m.ID, "/\\\x00") {
			return idx, &CorruptIndexError{Path: path, Err: fmt.Errorf("run id %q is not a file name", m.ID)}
		}
	}
	return idx, nil
}

// Len returns the number of retained runs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx.Runs)
}

// EvictedTotal returns the number of runs evicted over the store's lifetime.
func (s *Store) EvictedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.EvictedTotal
}

// List returns the retained runs in append order (oldest first).
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Meta(nil), s.idx.Runs...)
}

// Put archives the record, assigning its Seq and (if empty) its content ID,
// then evicts the oldest runs past Options.MaxRuns. Re-archiving an ID
// already present replaces the record in place at a fresh sequence number.
// It returns the stored meta and the IDs evicted by this append.
func (s *Store) Put(rec *Record) (Meta, []string, error) {
	if rec.Version == 0 {
		rec.Version = Version
	}
	if rec.ID == "" {
		rec.ID = ContentID(rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.idx.NextSeq
	s.idx.NextSeq++
	meta := Meta{ID: rec.ID, Seq: rec.Seq, Label: rec.Label, Engine: rec.Engine,
		Job: rec.Job, Workers: rec.Workers, MakespanNS: rec.MakespanNS}

	if err := writeJSON(s.runPath(rec.ID), rec); err != nil {
		return Meta{}, nil, err
	}
	// Drop a replaced entry, append the new one, then evict oldest-first.
	runs := s.idx.Runs[:0]
	for _, m := range s.idx.Runs {
		if m.ID != rec.ID {
			runs = append(runs, m)
		}
	}
	s.idx.Runs = append(runs, meta)
	var evicted []string
	if s.opts.MaxRuns > 0 {
		for len(s.idx.Runs) > s.opts.MaxRuns {
			oldest := s.idx.Runs[0]
			s.idx.Runs = s.idx.Runs[1:]
			s.idx.EvictedTotal++
			evicted = append(evicted, oldest.ID)
			if err := os.Remove(s.runPath(oldest.ID)); err != nil && !os.IsNotExist(err) {
				return Meta{}, nil, err
			}
		}
	}
	if err := writeJSON(filepath.Join(s.dir, indexFile), &s.idx); err != nil {
		return Meta{}, nil, err
	}
	return meta, evicted, nil
}

// Get loads one record by ID or unique ID prefix.
func (s *Store) Get(id string) (*Record, error) {
	meta, err := s.Resolve(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.runPath(meta.ID))
	if err != nil {
		return nil, err
	}
	rec := &Record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, &CorruptRecordError{Path: s.runPath(meta.ID), Err: err}
	}
	if rec.Version == 0 {
		rec.Version = 1
	}
	if rec.Version > Version {
		return nil, newerVersion("run "+meta.ID, rec.Version)
	}
	return rec, nil
}

// Resolve maps an ID or unique ID prefix to its index entry.
func (s *Store) Resolve(id string) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		return Meta{}, fmt.Errorf("profstore: empty run id")
	}
	var match *Meta
	for i := range s.idx.Runs {
		m := &s.idx.Runs[i]
		if m.ID == id {
			return *m, nil
		}
		if len(id) >= 4 && len(id) < len(m.ID) && m.ID[:len(id)] == id {
			if match != nil {
				return Meta{}, fmt.Errorf("profstore: run id prefix %q is ambiguous", id)
			}
			match = m
		}
	}
	if match == nil {
		return Meta{}, fmt.Errorf("profstore: no run %q in %s", id, s.dir)
	}
	return *match, nil
}

func (s *Store) runPath(id string) string {
	return filepath.Join(s.dir, runsDir, id+".json")
}

// writeJSON writes v as indented JSON to a temporary file renamed over path,
// so a crash leaves either the old file or the new one, never a torn mix.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
