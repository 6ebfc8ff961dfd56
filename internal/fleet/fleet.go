package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grade10/internal/alert"
	"grade10/internal/grade10"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

// RunStatus is a registered run's lifecycle state.
type RunStatus string

const (
	// StatusQueued: admitted to the backlog, waiting for an active slot.
	StatusQueued RunStatus = "queued"
	// StatusActive: a worker is tailing the run directory into its engine.
	StatusActive RunStatus = "active"
	// StatusDone: finalized; the compact record and blame profile remain.
	// A Registered run's stream engine has been torn down; a pinned run
	// keeps its engine.
	StatusDone RunStatus = "done"
	// StatusFailed: ingest or finalize errored; Error carries the cause.
	StatusFailed RunStatus = "failed"
	// StatusStalled: run.json never appeared within StallTimeout; torn down.
	StatusStalled RunStatus = "stalled"
)

// Config tunes the fleet manager.
type Config struct {
	// MaxActive / QueueDepth bound admission (see NewScheduler).
	MaxActive  int
	QueueDepth int
	// StallTimeout tears an active run down if its metadata (run.json) has
	// not appeared that long after admission; 0 disables.
	StallTimeout time.Duration
	// Poll and Idle are per-run tailing knobs (rundir.FollowOptions). A run
	// finishes once its content is complete; Idle only ends one whose
	// producer stopped before that.
	Poll time.Duration
	Idle time.Duration
	// Engine is the per-run stream engine template (timeslice, window
	// sizing, parallelism, retention, self-tracer, flush hook). Its
	// Timeslice is also the cross-job blame grid width.
	// Models and the expected monitoring feeds come from each run's
	// metadata. The fleet sets only the overhead account itself; the alert
	// hooks come from Alerts, and OnWindowFlush reaches every run's engine
	// unchanged. Registered runs always retain inputs for the exact
	// finalize; a pinned run honours RetainForFinal.
	Engine stream.Config
	// Archive, when set, receives every finalized run's record. Runs finish
	// concurrently and handlers read it meanwhile, so it must be safe for
	// concurrent use, as profstore.Store is.
	Archive profstore.Archive
	// Alerts, when set, is evaluated against every finalized run's record
	// (after archiving): baseline-regression rules compare the fresh record
	// to the archive-learned statistics, and a later clean run resolves what
	// a noisy one fired. The pinned run's engine also evaluates it on every
	// window flush. The evaluator is internally synchronized.
	Alerts *alert.Evaluator
	// OnAlert, when set, receives the transitions each evaluation produced
	// (only called when there are any), off the fleet lock; window-level
	// transitions arrive under the pinned engine's lock.
	OnAlert func([]alert.Event)
	// Logger receives per-run lifecycle diagnostics; default discards.
	Logger *slog.Logger
	// OnIncident, when set, is notified of fleet-level incidents — the stall
	// watchdog tearing a run down ("stall") or the admission scheduler
	// shedding a registration ("shed") — off the fleet lock. The service
	// points this at the flight bundle capturer; the fleet itself carries no
	// flight dependency.
	OnIncident func(kind, detail, run string)
}

func (c *Config) fill() {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// runState is everything the fleet holds about one run. While active it
// owns a stream engine; after a Registered run's teardown only the compact
// artifacts (record, bottleneck fold, blame profile) remain, bounding fleet
// memory by the active cap rather than the registration count.
type runState struct {
	name  string
	dir   string
	label string // archived with the record
	// pinned marks the run Follow added (see Follow for how it differs).
	pinned bool

	status RunStatus
	err    string

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	info    rundir.Info
	infoSet bool

	engine  *stream.Engine
	account *obs.RunAccount // survives engine teardown: finished runs still report overhead
	result
}

// result is a finished run's compact artifacts, which outlive its engine.
type result struct {
	bottlenecks []stream.BottleneckSummary
	archiveID   string
	makespanNS  int64
	blame       *BlameProfile
}

func (rs *runState) requestStop() { rs.stopOnce.Do(func() { close(rs.stop) }) }

// Fleet is the multi-run characterization service: a bounded set of
// concurrent per-run stream engines behind the admission scheduler, feeding
// one shared archive and the cross-job blame join.
type Fleet struct {
	cfg   Config
	sched *Scheduler

	mu    sync.Mutex
	runs  map[string]*runState
	order []string // registration order, for stable /fleet/runs listings

	// pinned is the run an empty ?run= resolves to; nil until its engine
	// exists. Its name and engine never change once stored, so Pinned reads
	// them without f.mu (every window flush asks for the pinned name).
	pinned atomic.Pointer[runState]

	wg     sync.WaitGroup
	closed bool
}

// New returns an empty fleet.
func New(cfg Config) *Fleet {
	cfg.fill()
	return &Fleet{
		cfg:   cfg,
		sched: NewScheduler(cfg.MaxActive, cfg.QueueDepth),
		runs:  map[string]*runState{},
	}
}

// Counts reports admission state: active runs, queued runs, lifetime sheds.
func (f *Fleet) Counts() (active, queued int, shed int64) { return f.sched.Counts() }

// Register admits one run directory under its base name. The returned
// decision says whether ingest started immediately, was queued, or was shed
// (at which point the fleet retains nothing and the caller may retry later).
func (f *Fleet) Register(dir string) (name string, d Decision, err error) {
	name, err = runName(dir)
	if err != nil {
		return "", DecisionShed, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", DecisionShed, fmt.Errorf("fleet: shut down")
	}
	if _, dup := f.runs[name]; dup {
		return "", DecisionShed, fmt.Errorf("fleet: run %q is already registered", name)
	}
	d, err = f.sched.Admit(name)
	if err != nil {
		return "", DecisionShed, err
	}
	if d == DecisionShed {
		if f.cfg.OnIncident != nil {
			// Notify off the fleet lock; the shed itself is already settled.
			go f.cfg.OnIncident("shed", fmt.Sprintf("admission shed for %s", dir), name)
		}
		return name, d, nil // load-shed: counted by the scheduler, not retained
	}
	rs := f.addLocked(name, "fleet:"+name)
	rs.dir = dir
	if d == DecisionActive {
		f.startLocked(rs)
	} else {
		rs.status = StatusQueued
	}
	return name, d, nil
}

// runName names a run after its directory. The directory is made absolute
// first, so a relative path such as "." or "x/.." names the directory it
// denotes rather than the path's last element.
func runName(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("fleet: cannot derive a run name from %q: %w", dir, err)
	}
	name := filepath.Base(abs)
	if name == "" || name == string(filepath.Separator) {
		return "", fmt.Errorf("fleet: cannot derive a run name from %q", dir)
	}
	return name, nil
}

// addLocked records a new run. Caller holds f.mu.
func (f *Fleet) addLocked(name, label string) *runState {
	rs := &runState{
		name: name, label: label,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	f.runs[name] = rs
	f.order = append(f.order, name)
	return rs
}

// Follow tails the run directory dir as the fleet's pinned run, as serve -run
// and runsim -serve do, and returns once the run has finished: its content
// completed, it went idle, or stop closed. The run is named after the
// directory and runs the same worker body as a Registered run, on the
// caller's goroutine and without admission. It differs from a Registered run
// in five ways: its engine outlives finalize, it honours the template's
// RetainForFinal, its engine evaluates Alerts on every window flush, its
// record carries label, and Pinned reports it once run.json has built its
// engine. A fleet pins at most one run.
func (f *Fleet) Follow(dir, label string, stop <-chan struct{}) error {
	name, err := runName(dir)
	if err != nil {
		return err
	}
	f.mu.Lock()
	err = f.pinnableLocked(name)
	var rs *runState
	if err == nil {
		rs = f.addLocked(name, label)
		rs.dir, rs.pinned, rs.status = dir, true, StatusActive
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.runWorker(rs, stop)
}

// pinnableLocked reports why name cannot become the pinned run, if it
// cannot. Caller holds f.mu.
func (f *Fleet) pinnableLocked(name string) error {
	if f.closed {
		return fmt.Errorf("fleet: shut down")
	}
	for _, rs := range f.runs {
		if rs.pinned {
			return fmt.Errorf("fleet: run %q is already pinned", rs.name)
		}
	}
	if f.runs[name] != nil {
		return fmt.Errorf("fleet: run %q is already registered", name)
	}
	return nil
}

// Pinned returns the pinned run's name and engine; ok is false until
// run.json has built its engine.
func (f *Fleet) Pinned() (name string, e *stream.Engine, ok bool) {
	rs := f.pinned.Load()
	if rs == nil {
		return "", nil, false
	}
	return rs.name, rs.engine, true
}

// startLocked transitions a run to active and launches its worker.
// Caller holds f.mu.
func (f *Fleet) startLocked(rs *runState) {
	rs.status = StatusActive
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.runWorker(rs, rs.stop)
	}()
	if f.cfg.StallTimeout > 0 {
		go f.stallWatch(rs)
	}
}

// stallWatch tears the run down if run.json has not appeared StallTimeout
// after admission. Once metadata exists the run finishes when its content
// completes, or through the per-run Idle fallback if its producer dies, so
// the watchdog stands down.
func (f *Fleet) stallWatch(rs *runState) {
	t := time.NewTimer(f.cfg.StallTimeout)
	defer t.Stop()
	select {
	case <-rs.done:
	case <-t.C:
		f.mu.Lock()
		stalled := rs.status == StatusActive && !rs.infoSet
		if stalled {
			rs.status = StatusStalled
			rs.err = fmt.Sprintf("no run metadata within %s", f.cfg.StallTimeout)
		}
		f.mu.Unlock()
		if stalled {
			f.cfg.Logger.Warn("fleet run stalled", "run", rs.name, "dir", rs.dir)
			if f.cfg.OnIncident != nil {
				f.cfg.OnIncident("stall", rs.err, rs.name)
			}
			rs.requestStop()
		}
	}
}

// runWorker is every run's worker body: it tails the run directory into the
// engine run.json builds until stop closes or the run ends, then finalizes
// it. A run that ends through the Idle fallback, before its content
// completed, is logged: its producer may have died rather than finished.
func (f *Fleet) runWorker(rs *runState, stop <-chan struct{}) error {
	defer close(rs.done)
	opt := rundir.FollowOptions{Poll: f.cfg.Poll, Idle: f.cfg.Idle}
	_, idle, err := stream.Follow(rs.dir, opt, stop, func(info rundir.Info) (*stream.Engine, error) {
		return f.buildEngine(rs, info)
	})
	if idle {
		f.cfg.Logger.Warn("fleet run went idle before its content completed", "run", rs.name, "dir", rs.dir)
	}
	return f.finishRun(rs, err)
}

// releaseLocked frees a Registered run's admission slot and starts the runs
// the scheduler promotes into it. finishRun calls it in the critical section
// that publishes the run's terminal status, so no snapshot reads the run
// settled while Counts still holds its slot. The pinned run holds no slot.
// Caller holds f.mu.
func (f *Fleet) releaseLocked(rs *runState) {
	if rs.pinned {
		return
	}
	promoted := f.sched.Release(rs.name)
	for len(promoted) > 0 {
		next, ok := f.runs[promoted[0]]
		promoted = promoted[1:]
		if !ok || next.status != StatusQueued {
			continue
		}
		if f.closed {
			// Shutdown has begun: a queued run never starts, so nothing
			// half-written gets archived as finished. Hand its slot on.
			promoted = append(promoted, f.sched.Release(next.name)...)
			continue
		}
		f.startLocked(next)
	}
}

// finishRun is the one finalize path: it finalizes the run's engine,
// archives the record, evaluates the record-level alerts, builds the blame
// profile, and settles the terminal status. A Registered run's engine is
// torn down; the pinned run keeps serving its own.
func (f *Fleet) finishRun(rs *runState, followErr error) error {
	f.mu.Lock()
	engine := rs.engine
	stalled := rs.status == StatusStalled
	f.mu.Unlock()

	var res result
	err := followErr
	switch {
	case err != nil:
	case engine != nil:
		res, err = f.finalize(rs, engine)
	case !stalled: // a stalled run's watchdog already settled its status
		err = fmt.Errorf("stopped before run metadata appeared in %s", rs.dir)
	}

	f.mu.Lock()
	if !rs.pinned {
		rs.engine = nil // teardown: the windows and raw inputs go
	}
	switch {
	case err != nil && rs.status != StatusStalled:
		rs.status, rs.err = StatusFailed, err.Error()
	case err == nil && engine != nil:
		rs.status, rs.result = StatusDone, res
	}
	f.releaseLocked(rs)
	f.mu.Unlock()
	switch {
	case err != nil:
		f.cfg.Logger.Warn("fleet run failed", "run", rs.name, "err", err)
	case engine != nil:
		f.cfg.Logger.Info("fleet run done", "run", rs.name,
			"makespan", vtime.Duration(res.makespanNS).String(), "archived", res.archiveID != "")
	}
	return err
}

// finalize runs the exact finalize on a run's engine, archives the record,
// evaluates the record-level alerts, and builds the blame profile. A bounded
// engine has no exact profile: its result has no record and no blame.
func (f *Fleet) finalize(rs *runState, e *stream.Engine) (result, error) {
	out, err := e.Finalize()
	if err != nil {
		return result{}, err
	}
	res := result{bottlenecks: e.Snapshot().Bottlenecks}
	if out == nil {
		return res, nil
	}
	if res.archiveID, err = f.archive(rs, out); err != nil {
		return result{}, err
	}
	res.blame = BuildBlameProfile(rs.name, rs.info, out, f.cfg.Engine.Timeslice)
	res.makespanNS = int64(out.Trace.End.Sub(out.Trace.Start))
	return res, nil
}

// archive builds the run's record, archives it, and evaluates the
// record-level alert rules against it, returning the archive ID ("" without
// an archive). With neither an archive nor alert rules no record is built.
func (f *Fleet) archive(rs *runState, out *grade10.Output) (string, error) {
	if f.cfg.Archive == nil && f.cfg.Alerts == nil {
		return "", nil
	}
	rec := profstore.BuildRecord(rs.info, out)
	rec.Label = rs.label
	var archiveID string
	if f.cfg.Archive != nil {
		meta, evicted, err := f.cfg.Archive.Put(rec)
		if err != nil {
			return "", fmt.Errorf("archiving: %w", err)
		}
		archiveID = meta.ID
		if len(evicted) > 0 {
			f.cfg.Logger.Info("fleet archive evicted runs", "count", len(evicted))
		}
	}
	if f.cfg.Alerts != nil {
		if evs := f.cfg.Alerts.EvalRecord(rec, rs.name); len(evs) > 0 {
			for _, ev := range evs {
				f.cfg.Logger.Info("fleet alert transition", "run", rs.name,
					"rule", ev.Rule, "from", ev.From, "to", ev.To)
			}
			if f.cfg.OnAlert != nil {
				f.cfg.OnAlert(evs)
			}
		}
	}
	return archiveID, nil
}

// buildEngine is a run's engine build once run.json appears: it sizes the
// engine from the fleet's template and the run metadata and publishes it.
// Every engine carries a per-run overhead account so /fleet/runs and
// /debug/overhead can report what characterizing the run cost.
func (f *Fleet) buildEngine(rs *runState, info rundir.Info) (*stream.Engine, error) {
	acct := &obs.RunAccount{}
	cfg := f.cfg.Engine
	cfg.Account = acct
	if rs.pinned {
		if f.cfg.Alerts != nil {
			cfg.Alerts, cfg.OnAlert = f.cfg.Alerts, f.cfg.OnAlert
		}
	} else {
		cfg.RetainForFinal = true // exact finalize feeds the archive and blame
	}
	e, err := stream.NewForRun(info, cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	rs.info, rs.infoSet, rs.engine, rs.account = info, true, e, acct
	f.mu.Unlock()
	if rs.pinned {
		f.pinned.Store(rs) // an empty ?run= resolves to it from here on
	}
	f.cfg.Logger.Info("fleet run ingesting",
		"run", rs.name, "engine", info.Engine, "job", info.Job, "workers", info.Workers)
	return e, nil
}

// Watch polls watchDir for new subdirectories and registers each exactly
// once (shed directories included — re-registering on every poll would melt
// the shed counter; the operator can POST /fleet/runs to retry). It returns
// when stop closes.
func (f *Fleet) Watch(watchDir string, stop <-chan struct{}) error {
	poll := f.cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	seen := map[string]bool{}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		entries, err := os.ReadDir(watchDir)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if seen[n] {
				continue
			}
			seen[n] = true
			name, d, err := f.Register(filepath.Join(watchDir, n))
			if err != nil {
				f.cfg.Logger.Warn("fleet watch: register failed", "dir", n, "err", err)
				continue
			}
			f.cfg.Logger.Info("fleet watch: discovered run", "run", name, "decision", d.String())
		}
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
	}
}

// Shutdown requests every run to stop and drains the workers — in-flight
// window flushes and finalizes complete (each started run still archives)
// — until ctx expires. Queued runs never start. The pinned run ends when its
// Follow's stop closes.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	states := make([]*runState, 0, len(f.runs))
	for _, rs := range f.runs {
		states = append(states, rs)
	}
	f.mu.Unlock()
	for _, rs := range states {
		rs.requestStop()
	}
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: shutdown timed out with runs still draining: %w", ctx.Err())
	}
}

// RunView is one run's row in /fleet/runs.
type RunView struct {
	Name       string    `json:"name"`
	Dir        string    `json:"dir"`
	Status     RunStatus `json:"status"`
	Pinned     bool      `json:"pinned,omitempty"`
	Error      string    `json:"error,omitempty"`
	Engine     string    `json:"engine,omitempty"`
	Job        string    `json:"job,omitempty"`
	Workers    int       `json:"workers,omitempty"`
	ArchiveID  string    `json:"archive_id,omitempty"`
	MakespanNS int64     `json:"makespan_ns,omitempty"`
	// StalenessSeconds is wall-clock time since the run last ingested
	// anything; only meaningful while active.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
	// Overhead is the framework's own accrued cost of characterizing this
	// run; present once ingest has started (it survives engine teardown).
	Overhead *obs.OverheadSnapshot `json:"overhead,omitempty"`
}

// FleetSnapshot is the /fleet/runs payload.
type FleetSnapshot struct {
	Active    int       `json:"active"`
	Queued    int       `json:"queued"`
	ShedTotal int64     `json:"shed_total"`
	Runs      []RunView `json:"runs"`
}

// Snapshot lists every retained run in registration order plus the
// admission counters. Engines are read after the fleet lock is released, so
// one run's long finalize never stalls the others' ingest.
func (f *Fleet) Snapshot() FleetSnapshot {
	active, queued, shed := f.sched.Counts()
	snap := FleetSnapshot{Active: active, Queued: queued, ShedTotal: shed}
	var engines []*stream.Engine
	f.mu.Lock()
	for _, name := range f.order {
		rs := f.runs[name]
		v := RunView{
			Name: rs.name, Dir: rs.dir, Status: rs.status, Pinned: rs.pinned, Error: rs.err,
			ArchiveID: rs.archiveID, MakespanNS: rs.makespanNS,
		}
		if rs.infoSet {
			v.Engine, v.Job, v.Workers = rs.info.Engine, rs.info.Job, rs.info.Workers
		}
		if rs.account != nil {
			o := rs.account.Snapshot()
			v.Overhead = &o
		}
		snap.Runs = append(snap.Runs, v)
		engines = append(engines, rs.engine)
	}
	f.mu.Unlock()
	for i, e := range engines {
		if e == nil {
			continue
		}
		if age, finalized := e.IngestAge(); !finalized {
			snap.Runs[i].StalenessSeconds = age.Seconds()
		}
	}
	return snap
}

// HealthView is the fleet's /healthz body: overall status plus every reason
// the fleet currently counts as degraded, one line per ailing run.
type HealthView struct {
	Status  string   `json:"status"` // "ok" or "degraded"
	Reasons []string `json:"reasons,omitempty"`
}

// Health enumerates the fleet's degraded conditions: stalled runs (metadata
// never appeared), failed runs (ingest or finalize errored), and lifetime
// load sheds. An empty reason list is a healthy fleet.
func (f *Fleet) Health() HealthView {
	snap := f.Snapshot()
	var reasons []string
	for _, run := range snap.Runs {
		switch run.Status {
		case StatusStalled:
			reasons = append(reasons, fmt.Sprintf("run %s stalled: %s", run.Name, run.Error))
		case StatusFailed:
			reasons = append(reasons, fmt.Sprintf("run %s failed: %s", run.Name, run.Error))
		}
	}
	if snap.ShedTotal > 0 {
		reasons = append(reasons, fmt.Sprintf("%d registration(s) shed at capacity", snap.ShedTotal))
	}
	if len(reasons) > 0 {
		return HealthView{Status: "degraded", Reasons: reasons}
	}
	return HealthView{Status: "ok"}
}

// EngineFor returns the stream engine of an actively ingesting run or of
// the pinned run, or ok=false when the run is unknown or already torn down
// (a Registered run's engine is released when it finishes; it lives on only
// as an archive record). Every per-run endpoint resolves ?run= through this.
func (f *Fleet) EngineFor(name string) (*stream.Engine, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rs, ok := f.runs[name]
	if !ok || rs.engine == nil {
		return nil, false
	}
	return rs.engine, true
}

// Staleness reports per-run ingest age (seconds) for runs that are actively
// ingesting — the source for the per-run staleness gauges.
func (f *Fleet) Staleness() map[string]float64 {
	out := map[string]float64{}
	for name, e := range f.activeEngines() {
		if age, finalized := e.IngestAge(); !finalized {
			out[name] = age.Seconds()
		}
	}
	return out
}

// activeEngines copies the live engines out from under the fleet lock:
// callers then query them unlocked, so a run holding its engine lock (a
// window flush, a finalize) delays only readers of that run.
func (f *Fleet) activeEngines() map[string]*stream.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]*stream.Engine{}
	for name, rs := range f.runs {
		if rs.engine != nil {
			out[name] = rs.engine
		}
	}
	return out
}

// Overhead reports every run's accrued framework cost, most expensive (by
// wall time) first — the /debug/overhead payload and the UI overhead panel's
// source. Runs whose ingest never started are omitted.
func (f *Fleet) Overhead() []obs.RunOverhead {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []obs.RunOverhead
	for _, name := range f.order {
		rs := f.runs[name]
		if rs.account == nil {
			continue
		}
		out = append(out, obs.RunOverhead{Run: name, OverheadSnapshot: rs.account.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallSeconds != out[j].WallSeconds {
			return out[i].WallSeconds > out[j].WallSeconds
		}
		return out[i].Run < out[j].Run
	})
	return out
}

// FleetBottleneck tags one bottleneck aggregate with the run it came from.
type FleetBottleneck struct {
	Run      string  `json:"run"`
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
	Phases   int     `json:"phases"`
	Windows  int     `json:"windows"`
}

// Bottlenecks ranks bottlenecks across every run — live engine folds for
// active runs, the retained fold for finished ones — by blocked/contended
// seconds, returning the top k (k<=0 means all).
func (f *Fleet) Bottlenecks(k int) []FleetBottleneck {
	type source struct {
		run    string
		rows   []stream.BottleneckSummary
		engine *stream.Engine
	}
	f.mu.Lock()
	sources := make([]source, 0, len(f.order))
	for _, name := range f.order {
		rs := f.runs[name]
		sources = append(sources, source{rs.name, rs.bottlenecks, rs.engine})
	}
	f.mu.Unlock()
	var all []FleetBottleneck
	for _, src := range sources {
		rows := src.rows
		if src.engine != nil {
			rows = src.engine.Snapshot().Bottlenecks
		}
		for _, b := range rows {
			all = append(all, FleetBottleneck{
				Run: src.run, TypePath: b.TypePath, Resource: b.Resource,
				Kind: b.Kind, Seconds: b.Seconds, Phases: b.Phases, Windows: b.Windows,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Blame joins the target's demand against every other finished run's and
// returns the cross-job blame report. Only runs that finalized (StatusDone)
// participate — an in-flight neighbor has no settled demand timeline yet.
func (f *Fleet) Blame(target string) (*BlameReport, error) {
	f.mu.Lock()
	var profiles []*BlameProfile
	for _, name := range f.order {
		rs := f.runs[name]
		if rs.status == StatusDone && rs.blame != nil {
			profiles = append(profiles, rs.blame)
		}
	}
	f.mu.Unlock()
	return Blame(profiles, target, BlameConfig{
		SliceWidth:  f.cfg.Engine.Timeslice,
		Parallelism: f.cfg.Engine.Parallelism,
	})
}
