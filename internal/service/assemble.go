// Package service is Grade10's serving core: one HTTP server and one
// assembly for every way a live characterization is served — one run tailed
// from its directory (serve -run, and runsim -serve once its simulation has
// saved the run) and a fleet of runs behind the admission scheduler
// (serve -fleet).
//
// Every mode is a fleet (internal/fleet), which owns each run's lifecycle and
// tails every run from its directory. serve -run and runsim -serve are a
// fleet holding one pinned run (fleet.Follow); serve -fleet watches a
// directory for runs.
//
// Assemble builds what a Config turns on in dependency order: archive,
// alert evaluator and webhook notifier, SSE broker, fleet, bundle capturer,
// routes, metrics, listener. Shutdown tears it down in the
// one order that drains cleanly: fleet runs, SSE streams, HTTP, queued
// bundle captures, queued webhooks.
//
// Every mode serves the same per-run endpoints (/profile /phases
// /bottlenecks /windows /stats /report /explain /trace and the UI's /api/*)
// through one ?run= resolver: an empty ?run= names the pinned run, any other
// name an actively ingesting run.
package service

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/flight"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/stream"
	"grade10/internal/ui"
)

// Config selects what a service characterizes and which components serve
// it; zero values turn optional components off. The fields mirror cmd/serve's
// flags.
type Config struct {
	// Dir is the run directory Run tails as the pinned run, named by its
	// base name; RunLabel is archived with its record.
	Dir, RunLabel string
	// Watch is the directory Run polls for run subdirectories, each
	// Registered with the fleet; runs may also be registered over POST
	// /fleet/runs. Without Watch the service serves one pinned run and
	// refuses registrations.
	Watch string

	// Addr is the HTTP listen address; empty starts no listener (serve the
	// Server as an http.Handler).
	Addr string
	// Logger should tee into LogRing, the flight recorder's log ring behind
	// /logs and bundles (obs.NewLoggerWithRing). Defaults: a fresh ring and
	// a logger writing only to it.
	Logger  *slog.Logger
	LogRing *obs.LogRing

	// Poll and Idle tune run-directory tailing (rundir.FollowOptions).
	Poll, Idle time.Duration
	// Engine is the per-run stream engine template: timeslice, windows,
	// parallelism, retention, self-tracer. Models and the
	// expected monitoring feeds come from the run metadata unless set; the
	// service wires the flush, alert, and overhead hooks.
	Engine stream.Config
	// MaxActive, QueueDepth, and StallTimeout bound fleet admission.
	MaxActive, QueueDepth int
	StallTimeout          time.Duration

	// StaleAfter makes /healthz answer 503 once an active run's last input
	// is older than this; 0 disables.
	StaleAfter time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/; UI mounts the visual
	// profiler under /ui/ and /api/ with live SSE on /api/events.
	Pprof, UI bool

	// StoreDir opens the profile archive behind /runs, /runs/{id} and
	// /diff; every finished run is archived. StoreMax bounds retention.
	StoreDir string
	StoreMax int

	// AlertRules are evaluated on every window flush of the pinned run and,
	// against archive-learned baselines, on every finished run; AlertWebhook
	// receives each batch of transitions.
	AlertRules   []alert.Rule
	AlertWebhook string

	// BundleDir enables bundle captures: at most BundleMax kept, one per
	// trigger kind per BundleMinInterval, each with a BundleCPUProfile-long
	// CPU profile (negative disables it).
	BundleDir         string
	BundleMax         int
	BundleMinInterval time.Duration
	BundleCPUProfile  time.Duration

	// ShutdownTimeout is Shutdown's drain budget; default 5s.
	ShutdownTimeout time.Duration
}

// Server is the assembled service and its HTTP handler.
type Server struct {
	cfg Config
	log *slog.Logger

	mux    *http.ServeMux
	routes []obs.Route
	reg    *obs.Registry
	httpm  *obs.HTTPMetrics

	fleet *fleet.Fleet

	archive           profstore.Archive // nil without a store
	lastDiffRegressed atomic.Int64      // the /diff watchdog gauge
	alerts            *alert.Evaluator
	notifier          *alert.Notifier
	broker            *ui.Broker
	capt              *flight.Capturer

	httpSrv  *http.Server
	listener net.Listener
	done     chan struct{} // closed on shutdown; stops the health watch
	shutOnce sync.Once
}

// Assemble builds the service and, with an Addr, starts serving HTTP.
func Assemble(cfg Config) (*Server, error) {
	if cfg.LogRing == nil {
		cfg.LogRing = obs.NewLogRing()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(cfg.LogRing.Wrap(slog.NewTextHandler(io.Discard, nil)))
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	s := &Server{
		cfg: cfg, log: cfg.Logger,
		mux: http.NewServeMux(), reg: obs.NewRegistry(), done: make(chan struct{}),
	}
	// The archive opens first so baseline-regression rules learn from prior
	// runs before any new record lands.
	if cfg.StoreDir != "" {
		a, err := profstore.Open(cfg.StoreDir, profstore.Options{MaxRuns: cfg.StoreMax})
		if err != nil {
			return nil, err
		}
		s.archive = a
	}
	if len(cfg.AlertRules) > 0 {
		var base *alert.Baselines
		if s.archive != nil {
			base = alert.LearnArchive(s.archive)
			s.log.Info("learned alert baselines", "runs", base.Runs(), "cells", base.Len())
		}
		s.alerts = alert.NewEvaluator(cfg.AlertRules, base)
		if cfg.AlertWebhook != "" {
			s.notifier = alert.NewNotifier(cfg.AlertWebhook, alert.NotifierOptions{Logger: s.log})
		}
	}
	if cfg.UI {
		s.broker = ui.NewBroker(0)
	}
	s.fleet = fleet.New(s.fleetConfig())
	overhead := s.fleet.Overhead
	if cfg.BundleDir != "" {
		var err error
		s.capt, err = flight.NewCapturer(flight.Config{
			Dir: cfg.BundleDir, MaxBundles: cfg.BundleMax, MinInterval: cfg.BundleMinInterval,
			CPUProfile: cfg.BundleCPUProfile, Tracer: cfg.Engine.Tracer, LogRing: cfg.LogRing,
			Windows: s.windows, Alerts: s.alerts, Overhead: overhead, Logger: s.log,
		})
		if err != nil {
			s.closeBackground()
			return nil, err
		}
		s.capt.WatchHealth(s.done, s.degraded)
	}

	s.mountRoutes()
	s.handle("/logs", "recent log records from the flight recorder's ring (?level=&limit=)",
		flight.LogsHandler(cfg.LogRing))
	s.handle("/debug/overhead", "framework overhead accounting per run (JSON)", flight.OverheadHandler(overhead))
	if s.capt != nil {
		bundles := flight.BundlesHandler(s.capt)
		s.handle("/debug/bundle", "POST: capture a diagnostics bundle now (?detail=)", flight.TriggerHandler(s.capt))
		s.handle("/debug/bundles", "captured diagnostics bundles (JSON)", bundles)
		s.handle("/debug/bundles/", "fetch one diagnostics bundle as a tar stream", bundles)
	}
	if s.broker != nil {
		uis := ui.NewServer(ui.Config{
			Resolve: s.resolve, Broker: s.broker,
		})
		s.mux.Handle("/ui/", uis)
		s.mux.Handle("/api/", uis)
		s.mux.Handle("/ui", http.RedirectHandler("/ui/", http.StatusMovedPermanently))
		s.routes = append(s.routes, uis.Routes()...)
	}
	s.registerMetrics(overhead)

	if cfg.Addr != "" {
		var err error
		if s.listener, err = net.Listen("tcp", cfg.Addr); err != nil {
			s.closeBackground()
			return nil, err
		}
		s.httpSrv = &http.Server{Handler: s}
		go func() {
			if err := s.httpSrv.Serve(s.listener); err != http.ErrServerClosed {
				s.log.Error("http: " + err.Error())
			}
		}()
	}
	return s, nil
}

// fleetConfig wires the fleet's hooks to the service's components: the
// pinned run's flushed windows feed the SSE stream, stall and shed
// incidents trigger bundles, and finished runs are archived and
// alert-evaluated.
func (s *Server) fleetConfig() fleet.Config {
	cfg := fleet.Config{
		MaxActive: s.cfg.MaxActive, QueueDepth: s.cfg.QueueDepth, StallTimeout: s.cfg.StallTimeout,
		Poll: s.cfg.Poll, Idle: s.cfg.Idle, Engine: s.cfg.Engine, Logger: s.log,
		Archive: s.archive,
		OnIncident: func(kind, detail, run string) {
			if s.capt != nil {
				s.capt.Trigger(flight.Trigger(kind), detail, []string{run})
			}
		},
	}
	if s.broker != nil && s.pinnedMode() {
		// The fleet holds only the pinned run, so every flush is its own.
		cfg.Engine.OnWindowFlush = s.broker.OnWindowFlush
	}
	if s.alerts != nil {
		cfg.Alerts, cfg.OnAlert = s.alerts, s.publishAlerts
	}
	return cfg
}

// windows snapshots every active run's window ring, in registration order,
// for a bundle's windows.json. Neither the fleet snapshot nor
// Engine.Windows waits on an engine lock, so a capture answers even while
// a run is stuck in a flush or a finalize.
func (s *Server) windows() []flight.RunWindows {
	runs := s.fleet.Snapshot().Runs
	out := make([]flight.RunWindows, 0, len(runs))
	for _, r := range runs {
		if e, ok := s.fleet.EngineFor(r.Name); ok {
			if ws := e.Windows(); len(ws) > 0 {
				out = append(out, flight.RunWindows{Run: r.Name, Windows: ws})
			}
		}
	}
	return out
}

// registerMetrics puts every component's families on the registry behind
// /metrics.
func (s *Server) registerMetrics(overhead func() []obs.RunOverhead) {
	reg := s.reg
	registerProfileMetrics(reg, s.fleet)
	obs.RegisterRuntime(reg)
	obs.BridgeTracer(reg, s.cfg.Engine.Tracer)
	registerHealthMetrics(reg, s.degraded)
	registerFleetMetrics(reg, s.fleet)
	if s.archive != nil {
		registerArchiveMetrics(reg, s.archive, &s.lastDiffRegressed)
	}
	s.cfg.LogRing.RegisterMetrics(reg)
	s.capt.RegisterMetrics(reg)
	flight.RegisterOverheadMetrics(reg, overhead)
	if s.alerts != nil {
		alert.RegisterMetrics(reg, s.alerts)
	}
	if s.broker != nil {
		s.broker.RegisterMetrics(reg)
	}
	s.httpm = obs.NewHTTPMetrics(reg)
	obs.RegisterBuildInfo(reg)
}

// pinnedMode reports whether the service serves one pinned run (serve -run,
// runsim -serve) rather than watching for runs to register (serve -fleet).
func (s *Server) pinnedMode() bool { return s.cfg.Watch == "" }

// pinnedName is the pinned run's name, "" until run.json has pinned it.
func (s *Server) pinnedName() string {
	name, _, _ := s.fleet.Pinned()
	return name
}

// publishAlerts fans alert transitions out to one bundle capture per batch
// that fires, the SSE stream, and the webhook. The evaluator keeps the
// transitions themselves: /alerts serves them and every bundle's alerts.json
// holds them.
func (s *Server) publishAlerts(evs []alert.Event) {
	for _, ev := range evs {
		if s.capt != nil && ev.To == alert.StateFiring {
			run := ev.Run // set by record-level evaluation
			if run == "" {
				run = s.pinnedName()
			}
			s.capt.Trigger(flight.TriggerAlert, "alert "+ev.Rule+" firing", []string{run})
			break // the per-kind rate limit would eat the rest anyway
		}
	}
	if s.broker != nil {
		s.broker.PublishAlerts(evs)
	}
	if s.notifier != nil {
		s.notifier.Notify(evs)
	}
}

// Addr returns the address the service listens on ("" without a listener).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Capturer returns the bundle capturer, nil unless BundleDir is set.
func (s *Server) Capturer() *flight.Capturer { return s.capt }

// Fleet returns the fleet that owns every run's lifecycle. A producer that
// has just written a run directory serves it with Fleet().Follow.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// Run drives the configured inputs until stop closes. With Watch it
// registers every run subdirectory. With Dir it tails the directory into
// the pinned run, finishes the run once its content is complete (or it goes
// idle, or stop closes), and keeps serving the result.
func (s *Server) Run(stop <-chan struct{}) error {
	if s.cfg.Watch != "" {
		return s.fleet.Watch(s.cfg.Watch, stop)
	}
	if s.cfg.Dir != "" {
		if err := s.fleet.Follow(s.cfg.Dir, s.cfg.RunLabel, stop); err != nil {
			return err
		}
	}
	<-stop
	return nil
}

// Shutdown stops the service within ShutdownTimeout: fleet runs drain their
// in-flight flushes and finalizes (each started run still archives), SSE
// streams end so subscribers cannot hold HTTP shutdown open, in-flight
// requests complete, then queued bundle captures and webhooks drain.
// Idempotent.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		if err := s.fleet.Shutdown(ctx); err != nil {
			s.log.Warn(err.Error())
		}
		if s.broker != nil {
			s.broker.Shutdown()
		}
		if s.httpSrv != nil {
			_ = s.httpSrv.Shutdown(ctx)
		}
		s.closeBackground()
	})
}

// closeBackground stops the health watch and drains the capturer and the
// notifier.
func (s *Server) closeBackground() {
	close(s.done)
	s.capt.Close()
	if s.notifier != nil {
		s.notifier.Close()
	}
}
