// Package ui is the embedded visual profiler: a zero-dependency browser UI
// (hand-written HTML/CSS/JS, go:embed-ed — no CDN, no npm) plus the
// render-ready view-model endpoints it draws from. It mounts under /ui/ and
// /api/ on the service's server, shaping the existing profile, window,
// trace, and fleet data:
//
//	/ui/           embedded assets (ETag/304, Cache-Control)
//	/api/overview  run header + sorted snapshot summaries (JSON)
//	/api/heatmap   phase-type tree × machine attribution heatmap (JSON)
//	/api/timeline  per-machine lanes: phases, blocked intervals, bottlenecks
//	/api/comms     cross-machine communication matrix estimate (JSON)
//	/api/events    SSE window-flush and alert stream (with a Broker)
//
// Every /api endpoint is deterministic: byte-identical JSON at every engine
// parallelism. The per-run endpoints take ?run=<name> and resolve it through
// the host server's run resolver (required in fleet mode).
package ui

import (
	"net/http"

	"grade10/internal/obs"
	"grade10/internal/stream"
)

// Config selects the data sources behind the view models.
type Config struct {
	// Resolve picks the engine answering a per-run request and the run it
	// names ("" for the pinned run), writing the HTTP error itself when
	// resolution fails — the host server's ?run= resolver.
	Resolve func(http.ResponseWriter, *http.Request) (*stream.Engine, string, bool)
	// Broker, when set, serves the /api/events SSE stream. Wire its
	// OnWindowFlush into the engine's stream.Config to feed it, and its
	// PublishAlerts into the alerting OnAlert hook for `event: alert` frames.
	Broker *Broker
}

// Server is the embedded profiler's http.Handler. The host mounts it under
// /ui/ and /api/ and adds Routes() to its JSON index and HTTP-metrics label
// space.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	routes []obs.Route
	assets map[string]asset
}

// NewServer builds the profiler handler.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), assets: loadAssets()}
	s.handle("/ui/", "embedded visual profiler (HTML/CSS/JS)", s.handleAssets)
	s.handle("/api/overview", "profiler overview view model (JSON)", s.handleOverview)
	s.handle("/api/heatmap", "phase × machine attribution heatmap view model (JSON)", s.handleHeatmap)
	s.handle("/api/timeline", "per-machine timeline view model (JSON)", s.handleTimeline)
	s.handle("/api/comms", "cross-machine communication matrix estimate (JSON)", s.handleComms)
	if cfg.Broker != nil {
		s.handle("/api/events", "SSE window-flush and alert stream", cfg.Broker.ServeHTTP)
	}
	return s
}

func (s *Server) handle(path, desc string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, h)
	s.routes = append(s.routes, obs.Route{Path: path, Desc: desc})
}

// Routes returns the mounted routes for the host server's endpoint index.
func (s *Server) Routes() []obs.Route { return s.routes }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// mode is the overview's mode for a resolved run: "single" for the pinned
// run, "fleet" for a run picked by name.
func mode(run string) string {
	if run != "" {
		return "fleet"
	}
	return "single"
}

func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	e, run, ok := s.cfg.Resolve(w, r)
	if !ok {
		return
	}
	sse := s.cfg.Broker != nil
	out, _, _ := e.FinalStatus()
	obs.WriteJSON(w, buildOverview(e.Snapshot(), mode(run), run, sse, out != nil))
}

// heatCells returns the engine's heat cells and their source: "final" once
// the exact profile exists, "windows" mid-run.
func heatCells(e *stream.Engine) ([]stream.HeatCell, string) {
	cells, final := e.HeatCells()
	if final {
		return cells, "final"
	}
	return cells, "windows"
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.cfg.Resolve(w, r)
	if !ok {
		return
	}
	cells, source := heatCells(e)
	obs.WriteJSON(w, buildHeatmap(cells, source))
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.cfg.Resolve(w, r)
	if !ok {
		return
	}
	if out, _, _ := e.FinalStatus(); out != nil && out.Trace != nil {
		obs.WriteJSON(w, buildFinalTimeline(out.Trace, out.Bottlenecks))
		return
	}
	obs.WriteJSON(w, buildLiveTimeline(e.Snapshot()))
}

func (s *Server) handleComms(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.cfg.Resolve(w, r)
	if !ok {
		return
	}
	cells, source := heatCells(e)
	obs.WriteJSON(w, buildComms(cells, source))
}
