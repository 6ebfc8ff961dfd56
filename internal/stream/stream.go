// Package stream is Grade10's online characterization engine: it consumes
// the execution log and the monitoring file incrementally, as raw bytes
// tailed from the run directory a job is still writing (Follow), and
// maintains a live performance profile while the job executes, the way
// GiViP streams profiling data out of a running Giraph cluster.
//
// The engine discretizes virtual time on the same timeslice grid as the
// batch pipeline and groups slices into fixed-width windows. A window is
// flushed as soon as the watermark (the furthest instant both the log feed
// and the monitoring feed have covered) passes its end: the window's leaves
// and clipped monitoring samples run through the same attribution and
// bottleneck implementations as the batch path (attribution.AttributeWindow,
// bottleneck.Detect), and the results fold into cumulative live
// aggregates plus a bounded ring of recent windows.
//
// Events build the phase tree through core.TreeBuilder, under the same rules
// as the batch pipeline. Memory is bounded by window state, not by the
// trace: closed leaf phases retire once the flushed frontier passes them,
// consumed monitoring samples are trimmed, and the raw event stream is never
// buffered. With RetainForFinal the engine instead keeps the whole phase tree
// and monitoring, so Finalize can finish that tree and run the rest of the
// batch pipeline on it (grade10.CharacterizeTrace), producing output
// byte-identical to cmd/grade10 on the same run. That equivalence is the
// correctness anchor of the online path; the windowed live view is a
// documented approximation (monitoring samples straddling a window boundary
// are split, and blocking intervals reported after their window flushed are
// only counted).
//
// Robustness: malformed log lines are counted and skipped (never fatal),
// events that violate phase nesting are counted as invalid, gaps in
// monitoring are zero-filled, and Finalize force-closes still-open phases so
// a truncated stream still yields a profile.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grade10/internal/alert"
	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/explain"
	"grade10/internal/grade10"
	"grade10/internal/metrics"
	"grade10/internal/obs"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// Config tunes the online engine.
type Config struct {
	// Models are the expert inputs for the engine being observed (required).
	Models grade10.Models
	// Timeslice is the analysis granularity; default grade10.DefaultTimeslice.
	Timeslice vtime.Duration
	// WindowSlices is the number of timeslices per flush window; default 64.
	WindowSlices int
	// MaxWindows bounds the ring of retained per-window results; default 32.
	MaxWindows int
	// ExpectedInstances is how many monitoring resource instances the run
	// produces (machines × modeled consumable resources). Until that many
	// feeds have appeared (or MonitoringDone), windows are held back so the
	// live aggregates never bake in half-arrived monitoring. Default 1:
	// wait for monitoring to exist at all.
	ExpectedInstances int
	// RetainForFinal keeps the whole phase tree and full monitoring so
	// Finalize can run the exact batch pipeline. Disable for strictly
	// bounded memory; Finalize then returns only the windowed aggregates.
	RetainForFinal bool
	// Parallelism is the worker count for per-window attribution and, in
	// retain mode, the final batch pipeline. Results are identical for every
	// value; 0 takes par.Default().
	Parallelism int
	// Tracer collects self-trace spans for window flushes, the per-instance
	// attribution jobs inside them, and (in retain mode) the final batch
	// pipeline. Nil disables self-tracing at zero cost.
	Tracer *obs.Tracer
	// OnWindowFlush, when set, is called after each window flush with the
	// flushed WindowResult (immutable once handed over), and once more with
	// nil after Finalize completes. It is invoked with the engine lock held:
	// the callback must be fast and must not call back into the engine —
	// hand the result to a channel or a non-blocking broker and return.
	// This is the live UI's SSE feed.
	OnWindowFlush func(*WindowResult)
	// Alerts, when set, is evaluated after every window flush against an
	// observation built from the flushed window and the engine counters.
	// Evaluation order is deterministic, so results are identical at every
	// Parallelism.
	Alerts *alert.Evaluator
	// OnAlert, when set, receives the state transitions each window
	// evaluation produced (only called when there are any). Like
	// OnWindowFlush it runs with the engine lock held: hand the events to a
	// non-blocking sink and return.
	OnAlert func([]alert.Event)
	// Now is the wall clock used for ingest staleness tracking; nil takes
	// time.Now. Injectable for tests.
	Now func() time.Time
	// Account, when set, accrues the framework's own cost of characterizing
	// this run: wall time in the compute sections (window flush, final
	// characterization), heap bytes allocated across them, and raw ingest
	// volume. Accounting is diagnostics only — nothing it measures feeds
	// analysis output, so results stay byte-identical with it on or off.
	// Nil disables it; instrumented paths then pay one predictable branch.
	Account *obs.RunAccount
}

func (c *Config) fill() error {
	if c.Models.Exec == nil || c.Models.Res == nil || c.Models.Rules == nil {
		return fmt.Errorf("stream: Config.Models must be fully populated")
	}
	if c.Timeslice <= 0 {
		c.Timeslice = grade10.DefaultTimeslice
	}
	if c.WindowSlices <= 0 {
		c.WindowSlices = 64
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 32
	}
	return nil
}

// Stats are the engine's ingest and robustness counters.
type Stats struct {
	// Lines and ParseErrors come from the log parser. Truncated counts
	// over-long lines dropped from either input: the execution log, and
	// the monitoring file of a followed run.
	Lines       int64 `json:"lines"`
	ParseErrors int64 `json:"parse_errors"`
	Truncated   int64 `json:"truncated_lines"`
	// Events counts accepted events; InvalidEvents counts the ones the
	// phase-tree rules reject (unknown phase, duplicate start, end before
	// start); LateEvents counts blocking intervals that began before the
	// flushed frontier (their window was computed without them) and every
	// event that arrives after Finalize, which is dropped: the final trace
	// is immutable.
	Events        int64 `json:"events"`
	InvalidEvents int64 `json:"invalid_events"`
	LateEvents    int64 `json:"late_events"`
	// Samples counts accepted monitoring samples; InvalidSamples counts
	// dropped ones (overlaps, inverted intervals); GapsFilled counts
	// zero-filled monitoring gaps; IgnoredSamples counts samples for
	// resources the model does not cover (as in the batch path).
	Samples        int64 `json:"samples"`
	InvalidSamples int64 `json:"invalid_samples"`
	GapsFilled     int64 `json:"gaps_filled"`
	IgnoredSamples int64 `json:"ignored_samples"`
	// ForcedClosures counts phases force-closed by Finalize on a truncated
	// stream.
	ForcedClosures int64 `json:"forced_closures"`
	// WindowsFlushed counts flushed windows.
	WindowsFlushed int64 `json:"windows_flushed"`
}

// feedID identifies a resource instance's feed without formatting its key.
type feedID struct {
	resource string
	machine  int
}

// instFeed is the per-resource-instance monitoring buffer.
type instFeed struct {
	res      *core.Resource
	machine  int
	key      string
	capacity float64
	// samples[firstPending:] are not yet fully behind the flushed frontier.
	// In bounded mode the prefix is physically dropped.
	samples      []metrics.Sample
	firstPending int
	lastEnd      vtime.Time
	seen         bool
}

// typeAgg aggregates closed phase instances of one type.
type typeAgg struct {
	count   int
	total   vtime.Duration
	max     vtime.Duration
	blocked map[string]vtime.Duration
}

// bottleneckKey identifies one aggregated bottleneck row.
type bottleneckKey struct {
	TypePath string
	Resource string
	Kind     bottleneck.Kind
}

// bottleneckAgg accumulates one bottleneck row across windows.
type bottleneckAgg struct {
	Time    vtime.Duration
	Phases  int
	Windows int
}

// instAgg accumulates one resource instance across windows.
type instAgg struct {
	consumed     float64 // unit·seconds
	attributed   float64
	unattributed float64
	satSeconds   float64
	lastUtil     float64
	spanSeconds  float64 // flushed seconds this instance was profiled over
}

// Engine is the online characterization engine. All methods are safe for
// concurrent use; ingest methods are typically called from one goroutine
// (a Follow) while HTTP handlers snapshot from others.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	parser enginelog.StreamParser

	originSet bool
	origin    vtime.Time // timeslice grid origin: first phase start
	maxEnd    vtime.Time // latest phase end seen

	tree    *core.TreeBuilder
	pending []*core.Phase // closed leaves not yet retired

	feeds     map[feedID]*instFeed
	feedOrder []*instFeed // first-seen order

	watermark        vtime.Time
	logDone, monDone bool

	// runEnd is run.json's end_ns, recorded by NewForRun when the run's span
	// is positive; without it (hasRunEnd false) content never completes.
	runEnd    vtime.Time
	hasRunEnd bool

	nextWindow int        // index of the next window to flush
	frontier   vtime.Time // end of the last flushed window

	windows  []*WindowResult
	explainQ int64 // explain queries served
	instAggs map[string]*instAgg
	btlAggs  map[bottleneckKey]*bottleneckAgg
	typeAggs map[string]*typeAgg
	heatAggs map[heatKey]float64
	counters map[string]*CounterValue

	stats    Stats
	finalOut *grade10.Output
	finalErr error

	// finalized and lastIngestNS are written under mu but are atomics so
	// IngestAge never waits on the engine lock — a scrape must not stall
	// behind a window flush or a finalize. lastIngestNS is the wall-clock
	// time (Unix ns) of the most recent input (event, line, or sample —
	// valid or not); it starts at engine creation so a feed that never
	// produces anything still reads as stale.
	finalized    atomic.Bool
	lastIngestNS atomic.Int64
}

// New creates an engine for one run.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{
		cfg:      cfg,
		tree:     core.NewTreeBuilder(cfg.Models.Exec),
		feeds:    map[feedID]*instFeed{},
		instAggs: map[string]*instAgg{},
		btlAggs:  map[bottleneckKey]*bottleneckAgg{},
		typeAggs: map[string]*typeAgg{},
		heatAggs: map[heatKey]float64{},
		counters: map[string]*CounterValue{},
	}
	e.touch()
	return e, nil
}

// touch records input activity for IngestAge.
func (e *Engine) touch() { e.lastIngestNS.Store(e.cfg.Now().UnixNano()) }

// Tracer returns the engine's self-tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.cfg.Tracer }

// IngestAge returns the wall-clock age of the most recent ingested input
// (any event, line, or sample; from engine creation before the first one)
// and whether the engine has been finalized — a finalized engine is complete,
// not stale. It takes no engine lock, so it answers even while a window
// flush or Finalize is running.
func (e *Engine) IngestAge() (age time.Duration, finalized bool) {
	return e.cfg.Now().Sub(time.Unix(0, e.lastIngestNS.Load())), e.finalized.Load()
}

// IngestChunk feeds a raw byte range of the execution log in either format;
// the encoding is auto-detected from the first bytes fed. Chunks may split
// lines or binary records arbitrarily.
func (e *Engine) IngestChunk(chunk []byte) {
	e.cfg.Account.AddIngest(int64(len(chunk)), 0)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.touch()
	e.parser.Feed(chunk, e.ingestEventLocked)
}

// ingestEventLocked folds one decoded event into the live state, counting
// it as one ingest item.
func (e *Engine) ingestEventLocked(ev enginelog.Event) {
	e.cfg.Account.AddIngest(0, 1)
	if e.finalized.Load() {
		e.stats.LateEvents++
		return
	}
	if ev.Kind == enginelog.Counter {
		c := e.counters[ev.Name]
		if c == nil {
			c = &CounterValue{}
			e.counters[ev.Name] = c
		}
		c.Count++
		c.Sum += ev.Value
		c.Last = ev.Value
		e.noteWatermarkLocked(ev.Time)
	} else {
		ph, err := e.tree.Add(ev)
		if ph == nil || err != nil { // rejected, or a kind the tree does not know
			e.stats.InvalidEvents++
			return
		}
		switch ev.Kind {
		case enginelog.PhaseStart:
			if !e.originSet {
				e.originSet = true
				e.origin = ev.Time
				e.frontier = ev.Time
			}
			e.noteWatermarkLocked(ev.Time)
		case enginelog.PhaseEnd:
			e.closePhaseLocked(ph)
			e.noteWatermarkLocked(ev.Time)
		case enginelog.Blocked:
			if ev.Time < e.frontier {
				e.stats.LateEvents++
			}
			e.noteWatermarkLocked(ev.End)
		}
	}
	e.stats.Events++
	e.maybeFlushLocked()
}

// closePhaseLocked folds a phase the tree builder just ended into the live
// state.
func (e *Engine) closePhaseLocked(ph *core.Phase) {
	if ph.End > e.maxEnd {
		e.maxEnd = ph.End
	}
	if len(ph.Children) == 0 {
		e.pending = append(e.pending, ph)
	}
	tp := "?"
	if ph.Type != nil {
		tp = ph.Type.Path()
	}
	ta := e.typeAggs[tp]
	if ta == nil {
		ta = &typeAgg{blocked: map[string]vtime.Duration{}}
		e.typeAggs[tp] = ta
	}
	ta.count++
	d := ph.Duration()
	ta.total += d
	if d > ta.max {
		ta.max = d
	}
	for _, b := range ph.Blocked {
		ta.blocked[b.Resource] += b.Duration()
	}
}

func (e *Engine) noteWatermarkLocked(t vtime.Time) {
	if t > e.watermark {
		e.watermark = t
	}
}

// ingestSample feeds one monitoring record. Samples for resources the model
// does not cover are ignored (as in the batch path); overlapping samples are
// dropped and gaps zero-filled, both counted.
func (e *Engine) ingestSample(machine int, resource string, capacity float64, s metrics.Sample) {
	e.cfg.Account.AddIngest(0, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.touch()
	res := e.cfg.Models.Res.Lookup(resource)
	if res == nil || res.Kind != core.Consumable {
		e.stats.IgnoredSamples++
		return
	}
	if s.End <= s.Start {
		e.stats.InvalidSamples++
		return
	}
	if !res.PerMachine {
		machine = core.GlobalMachine
	}
	id := feedID{resource, machine}
	f := e.feeds[id]
	if f == nil {
		f = &instFeed{res: res, machine: machine, key: core.InstanceKey(resource, machine), capacity: capacity}
		e.feeds[id] = f
		e.feedOrder = append(e.feedOrder, f)
	}
	if f.seen {
		switch {
		case s.Start < f.lastEnd:
			e.stats.InvalidSamples++
			return
		case s.Start > f.lastEnd:
			f.samples = append(f.samples, metrics.Sample{Start: f.lastEnd, End: s.Start})
			e.stats.GapsFilled++
		}
	}
	f.samples = append(f.samples, s)
	f.lastEnd = s.End
	f.seen = true
	e.stats.Samples++
	e.maybeFlushLocked()
}

// IngestMonitoringLine feeds one monitoring CSV line (rundir format), with
// or without its '\n' terminator; every byte it is handed counts as ingest
// volume. Malformed lines are counted as invalid samples and skipped; like a
// well-formed row (counted by ingestSample) each is one ingest item.
func (e *Engine) IngestMonitoringLine(line string) {
	e.cfg.Account.AddIngest(int64(len(line)), 0)
	row, ok, err := rundir.ParseMonitoringLine(line)
	if err != nil {
		e.cfg.Account.AddIngest(0, 1)
		e.mu.Lock()
		e.stats.InvalidSamples++
		e.mu.Unlock()
		return
	}
	if ok {
		e.ingestSample(row.Machine, row.Resource, row.Capacity, row.Sample)
	}
}

// complete reports whether the engine holds a whole run, so a follow can end
// it without waiting for Idle: run.json gave a positive span, a phase started
// and none is still open (the root phase's end was decoded), the log parser
// holds no partial line or record, and every expected monitoring feed
// reaches the run's end_ns.
func (e *Engine) complete() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasRunEnd || !e.originSet || len(e.tree.Open()) > 0 || e.parser.Buffered() ||
		len(e.feedOrder) < max(e.cfg.ExpectedInstances, 1) {
		return false
	}
	for _, f := range e.feedOrder {
		if f.lastEnd < e.runEnd {
			return false
		}
	}
	return true
}

// addTruncated counts over-long monitoring lines dropped before ingest.
func (e *Engine) addTruncated(n int) {
	e.mu.Lock()
	e.stats.Truncated += int64(n)
	e.mu.Unlock()
}

// LogDone marks the event feed complete; remaining windows no longer wait
// on the log watermark. Any buffered partial line or binary record is
// flushed first.
func (e *Engine) LogDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parser.Finish(e.ingestEventLocked)
	e.logDone = true
	e.maybeFlushLocked()
}

// MonitoringDone marks the monitoring feed complete.
func (e *Engine) MonitoringDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.monDone = true
	e.maybeFlushLocked()
}

// windowDur returns the window width in virtual time.
func (e *Engine) windowDur() vtime.Duration {
	return e.cfg.Timeslice * vtime.Duration(e.cfg.WindowSlices)
}

// flushBoundLocked returns the instant up to which windows may flush: the
// minimum of the log and monitoring watermarks, each lifted to infinity
// once its feed is done. Until MonitoringDone, flushing waits for at least
// ExpectedInstances monitoring feeds (monitoring often arrives grouped per
// instance; flushing on the first group would bake zero consumption for
// the instances still in flight into the live aggregates).
func (e *Engine) flushBoundLocked() (vtime.Time, bool) {
	logWM := e.watermark
	if e.logDone {
		logWM = vtime.Infinity
	}
	monWM := vtime.Infinity
	if !e.monDone {
		want := e.cfg.ExpectedInstances
		if want < 1 {
			want = 1
		}
		if len(e.feedOrder) < want {
			return 0, false
		}
		for _, f := range e.feedOrder {
			if f.lastEnd < monWM {
				monWM = f.lastEnd
			}
		}
	}
	return vtime.Min(logWM, monWM), true
}

func (e *Engine) maybeFlushLocked() {
	if !e.originSet || e.finalized.Load() {
		return
	}
	bound, ok := e.flushBoundLocked()
	if !ok {
		return
	}
	done := e.logDone && e.monDone
	wd := e.windowDur()
	for {
		w0 := e.origin.Add(wd * vtime.Duration(e.nextWindow))
		w1 := w0.Add(wd)
		if done {
			end := e.maxEnd
			if w0 >= end {
				return
			}
			if w1 > end {
				w1 = end // final clipped window
			}
		} else if w1 > bound {
			return
		}
		e.flushWindowLocked(w0, w1)
		e.nextWindow++
		e.frontier = w1
		e.retireLocked()
	}
}

// flushWindowLocked attributes and analyzes one window [w0, w1) through the
// shared batch implementations and folds the result into the live state.
func (e *Engine) flushWindowLocked(w0, w1 vtime.Time) {
	defer e.accountSection()()
	e.cfg.Account.AddWindow()
	win := core.NewTimeslices(w0, w1, e.cfg.Timeslice)

	// Leaves overlapping the window: retired-pending closed leaves plus
	// currently-open model-leaf phases (extended provisionally to the
	// watermark). In core.SortPhases order, as tr.Leaves() returns them, so
	// attribution accumulates in the same deterministic order as the batch
	// path.
	var leaves []*core.Phase
	for _, ph := range e.pending {
		if ph.Start < w1 && ph.End > w0 {
			leaves = append(leaves, ph)
		}
	}
	var reopened []*core.Phase
	horizon := vtime.Max(e.watermark, w1)
	for _, ph := range e.tree.Open() {
		if ph.Start < w1 && len(ph.Children) == 0 && ph.Type != nil && ph.Type.IsLeaf() {
			ph.End = horizon
			reopened = append(reopened, ph)
			leaves = append(leaves, ph)
		}
	}
	core.SortPhases(leaves)

	rt := core.NewResourceTrace()
	for _, f := range e.feedOrder {
		sub := f.samples[f.firstPending:]
		lo := 0
		for lo < len(sub) && sub[lo].End <= w0 {
			lo++
		}
		hi := lo
		for hi < len(sub) && sub[hi].Start < w1 {
			hi++
		}
		if err := rt.Add(f.res, f.machine, &metrics.SampleSeries{Samples: sub[lo:hi]}); err != nil {
			continue // unreachable: feeds are contiguous by construction
		}
	}

	tr := &core.ExecutionTrace{Root: e.tree.Root(), Start: w0, End: w1}
	span := e.cfg.Tracer.StartSpan("window-flush", -1)
	if e.cfg.Tracer.Enabled() {
		span.SetItems(int64(len(leaves)))
		span.SetWindow(int64(w0), int64(w1))
	}
	prof, err := attribution.AttributeWindow(tr, leaves, rt, e.cfg.Models.Rules, win,
		e.cfg.Parallelism, e.cfg.Tracer)
	var rep *bottleneck.Report
	if err == nil {
		// The scan reads the same provisional ends as attribution, so an
		// open leaf's bottlenecks count in the windows that counted its use.
		rep = bottleneck.Detect(prof)
	}
	for _, ph := range reopened {
		ph.End = -1
	}
	if err != nil {
		span.End()
		return // unreachable: windows are never empty
	}
	wr := e.foldWindowLocked(win, prof, rep)
	if e.cfg.OnWindowFlush != nil {
		e.cfg.OnWindowFlush(wr)
	}
	if e.cfg.Alerts != nil {
		if evs := e.cfg.Alerts.Eval(e.windowObsLocked(wr, rep.Rows, w1)); len(evs) > 0 && e.cfg.OnAlert != nil {
			e.cfg.OnAlert(evs)
		}
	}
	span.End()
}

// windowObsLocked builds the alert observation for one flushed window: the
// window's coverage, per-instance figures and bottleneck time per resource
// (from its detection rows) plus the engine's cumulative robustness
// counters. Everything here derives from virtual time and
// deterministic fold state — never the wall clock — so alert evaluation is
// bit-identical at every Parallelism.
func (e *Engine) windowObsLocked(wr *WindowResult, rows []bottleneck.Row, w1 vtime.Time) alert.Obs {
	st := e.statsLocked()
	scalars := map[string]float64{
		"coverage":        wr.Coverage,
		"parse_errors":    float64(st.ParseErrors),
		"truncated_lines": float64(st.Truncated),
		"invalid_events":  float64(st.InvalidEvents),
		"late_events":     float64(st.LateEvents),
		"invalid_samples": float64(st.InvalidSamples),
		"gaps_filled":     float64(st.GapsFilled),
		"ignored_samples": float64(st.IgnoredSamples),
		"forced_closures": float64(st.ForcedClosures),
		"events":          float64(st.Events),
		"samples":         float64(st.Samples),
		"windows_flushed": float64(st.WindowsFlushed),
		"open_phases":     float64(len(e.tree.Open())),
	}
	lag := 0.0
	if e.watermark > w1 {
		lag = e.watermark.Sub(w1).Seconds()
	}
	scalars["lag_seconds"] = lag

	util := make(map[string]float64, len(wr.Instances))
	sat := make(map[string]float64, len(wr.Instances))
	for _, wi := range wr.Instances {
		util[wi.Key] = wi.Utilization
		sat[wi.Key] = float64(wi.SaturatedSlices)
	}
	btl := map[string]float64{}
	for _, r := range rows {
		btl[r.Resource] += r.Time.Seconds()
	}
	return alert.Obs{
		Tick:    wr.Index,
		TimeNS:  int64(w1),
		Scalars: scalars,
		Keyed: map[string]map[string]float64{
			"utilization":        util,
			"saturated_slices":   sat,
			"bottleneck_seconds": btl,
		},
	}
}

// retireLocked drops live state wholly behind the flushed frontier. Retain
// mode keeps the phase tree and every sample for Finalize.
func (e *Engine) retireLocked() {
	kept := e.pending[:0]
	for _, ph := range e.pending {
		if ph.End > e.frontier {
			kept = append(kept, ph)
		} else if !e.cfg.RetainForFinal {
			e.pruneLocked(ph)
		}
	}
	for i := len(kept); i < len(e.pending); i++ {
		e.pending[i] = nil
	}
	e.pending = kept

	for _, f := range e.feedOrder {
		for f.firstPending < len(f.samples) && f.samples[f.firstPending].End <= e.frontier {
			f.firstPending++
		}
		if !e.cfg.RetainForFinal && f.firstPending > 0 {
			f.samples = append([]metrics.Sample(nil), f.samples[f.firstPending:]...)
			f.firstPending = 0
		}
	}
}

// pruneLocked retires a phase from the live tree and recursively retires
// closed, now-childless ancestors behind the frontier.
func (e *Engine) pruneLocked(ph *core.Phase) {
	root := e.tree.Root()
	for ph != root {
		parent := ph.Parent
		e.tree.Retire(ph)
		if parent == root || len(parent.Children) > 0 ||
			parent.End < 0 || parent.End > e.frontier {
			return
		}
		ph = parent
	}
}

// Finalize marks both feeds complete, flushes every remaining window
// (including the clipped final one), and force-closes still-open phases at
// the watermark (counted). With RetainForFinal it then finishes the engine's
// phase tree and runs the rest of the batch pipeline on it, returning output
// identical to grade10.Characterize on the same run; in bounded mode it
// returns (nil, nil) and the windowed aggregates are the final result.
// Finalize is idempotent.
func (e *Engine) Finalize() (*grade10.Output, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finalized.Load() {
		return e.finalOut, e.finalErr
	}
	e.parser.Finish(e.ingestEventLocked)
	e.logDone, e.monDone = true, true

	// Force-close surviving phases at the watermark. Every accepted start
	// lies behind it, so no forced end precedes its start, and the closing
	// order cannot change the fold.
	for p, ph := range e.tree.Open() {
		ev := enginelog.Event{Kind: enginelog.PhaseEnd, Time: vtime.Max(e.watermark, ph.Start), Path: p}
		if _, err := e.tree.Add(ev); err == nil {
			e.closePhaseLocked(ph)
			e.stats.ForcedClosures++
		}
	}
	e.maybeFlushLocked()
	e.finalized.Store(true)
	if e.cfg.OnWindowFlush != nil {
		e.cfg.OnWindowFlush(nil) // finalize notification
	}

	if !e.cfg.RetainForFinal {
		return nil, nil
	}
	if e.stats.Events == 0 {
		e.finalErr = fmt.Errorf("stream: no events ingested")
		return nil, e.finalErr
	}
	defer e.accountSection()()
	span := e.cfg.Tracer.StartSpan("build-execution-trace", -1)
	tr, err := e.tree.Finish()
	span.End()
	if err != nil {
		e.finalErr = fmt.Errorf("grade10: parsing log: %w", err)
		return nil, e.finalErr
	}
	in := grade10.Input{
		Monitoring:  e.monitoringLocked(),
		Models:      e.cfg.Models,
		Timeslice:   e.cfg.Timeslice,
		Parallelism: e.cfg.Parallelism,
		Tracer:      e.cfg.Tracer,
	}
	e.finalOut, e.finalErr = grade10.CharacterizeTrace(tr, in)
	return e.finalOut, e.finalErr
}

// accountSection opens one accounted compute section (a window flush or the
// final characterization) and returns the func that closes it, charging the
// section's wall time and heap allocation to the run. Without an account
// both are no-ops.
func (e *Engine) accountSection() func() {
	a := e.cfg.Account
	if a == nil {
		return func() {}
	}
	start, alloc0 := time.Now(), obs.HeapAllocBytes()
	return func() {
		a.AddWall(time.Since(start))
		a.AddAlloc(int64(obs.HeapAllocBytes() - alloc0))
	}
}

// monitoringLocked reassembles the batch Monitoring input from the retained
// feeds, in first-seen order as rundir.ReadMonitoring would produce it.
func (e *Engine) monitoringLocked() []cluster.ResourceSamples {
	out := make([]cluster.ResourceSamples, 0, len(e.feedOrder))
	for _, f := range e.feedOrder {
		out = append(out, cluster.ResourceSamples{
			Machine: f.machine, Resource: f.res.Name, Capacity: f.capacity,
			Samples: &metrics.SampleSeries{Samples: f.samples},
		})
	}
	return out
}

// FinalStatus reports whether Finalize has run, and with what result: the
// exact batch output in retain mode, else nil.
func (e *Engine) FinalStatus() (out *grade10.Output, finalized bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finalOut, e.finalized.Load(), e.finalErr
}

// ExplainQueries returns the number of explain queries served (the
// grade10_explain_queries_total counter).
func (e *Engine) ExplainQueries() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.explainQ
}

// WindowDerivation is the answer to an explain query: the exact full-run
// derivation of a finalized, retained run.
type WindowDerivation struct {
	// WindowStartNS/WindowEndNS bound the analyzed span; Final marks the
	// exact full-run derivation, the only kind served.
	WindowStartNS int64               `json:"window_start_ns"`
	WindowEndNS   int64               `json:"window_end_ns"`
	Final         bool                `json:"final"`
	Derivation    *explain.Derivation `json:"derivation"`
}

// Explain answers one explain query by recomputing its derivation chains
// from the finalized run's retained profile. Live windows are not
// explained: a flush attributes open leaves with provisional ends that it
// reverts afterwards, and late blocking events still reach the tree after
// their window flushed, so a later recomputation could read different
// activity than the flush did (DESIGN.md §9). Returns explain.ParseError /
// explain.EvalError for bad queries, and a plain error naming why when the
// run has no final profile to explain.
func (e *Engine) Explain(queryStr string) ([]WindowDerivation, error) {
	q, err := explain.ParseQuery(queryStr)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.explainQ++
	out, finalized, finalErr := e.finalOut, e.finalized.Load(), e.finalErr
	e.mu.Unlock()
	switch {
	case !finalized:
		return nil, fmt.Errorf("stream: run is not finalized yet: explain answers from the final profile")
	case finalErr != nil:
		return nil, fmt.Errorf("stream: run has no final profile to explain: %w", finalErr)
	case out == nil:
		return nil, fmt.Errorf("stream: run was analyzed in bounded mode and retains no profile to explain")
	}
	// The final profile is immutable: derive without the lock.
	span := e.cfg.Tracer.StartSpan("explain-query", -1)
	if e.cfg.Tracer.Enabled() {
		span.SetDetail(q.String())
	}
	defer span.End()
	d, err := explain.NewExplainer(out.Profile).Explain(q)
	if err != nil {
		return nil, err
	}
	return []WindowDerivation{{
		WindowStartNS: int64(out.Profile.Slices.Start),
		WindowEndNS:   int64(out.Profile.Slices.End),
		Final:         true,
		Derivation:    d,
	}}, nil
}
