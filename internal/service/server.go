package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"grade10/internal/explain"
	"grade10/internal/fleet"
	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/stream"
)

// handle registers a handler and records the route in the endpoint index and
// the HTTP-metrics label space.
func (s *Server) handle(path, desc string, h http.Handler) {
	s.mux.Handle(path, h)
	s.routes = append(s.routes, obs.Route{Path: path, Desc: desc})
}

func (s *Server) handleFunc(path, desc string, h http.HandlerFunc) { s.handle(path, desc, h) }

// mountRoutes registers every endpoint the configuration enables.
func (s *Server) mountRoutes() {
	for _, rt := range []struct {
		path, desc string
		h          func(http.ResponseWriter, *http.Request, *stream.Engine)
	}{
		{"/profile", "full live profile snapshot (JSON)", func(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
			obs.WriteJSON(w, e.Snapshot())
		}},
		{"/phases", "open phases and per-type aggregates (JSON)", func(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
			snap := e.Snapshot()
			obs.WriteJSON(w, struct {
				WatermarkSeconds float64                        `json:"watermark_seconds"`
				OpenPhases       []stream.OpenPhase             `json:"open_phases"`
				PhaseTypes       []stream.TypeSummary           `json:"phase_types"`
				Counters         map[string]stream.CounterValue `json:"counters,omitempty"`
			}{snap.WatermarkSeconds, snap.OpenPhases, snap.PhaseTypes, snap.Counters})
		}},
		{"/bottlenecks", "cumulative bottleneck rows (JSON)", func(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
			snap := e.Snapshot()
			obs.WriteJSON(w, struct {
				Coverage    float64                    `json:"coverage"`
				Bottlenecks []stream.BottleneckSummary `json:"bottlenecks"`
			}{snap.Coverage, snap.Bottlenecks})
		}},
		{"/windows", "recent analysis-window ring (JSON)", func(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
			snap := e.Snapshot()
			obs.WriteJSON(w, struct {
				WindowSeconds float64                `json:"window_seconds"`
				Windows       []*stream.WindowResult `json:"windows"`
			}{snap.WindowSeconds, snap.Windows})
		}},
		{"/stats", "ingest and robustness counters (JSON)", func(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
			obs.WriteJSON(w, e.Stats())
		}},
		{"/report", "exact final report (text; 503 until finalized)", serveReport},
		{"/explain", "provenance query ?q=phase=.. machine=.. resource=.. (JSON or ?format=text)", serveExplain},
		{"/trace", "Chrome trace-event JSON (Perfetto-loadable)", serveTrace},
	} {
		h := rt.h
		s.handleFunc(rt.path, rt.desc+"; ?run=<name> picks an active run, default the pinned run", func(w http.ResponseWriter, r *http.Request) {
			if e, _, ok := s.resolve(w, r); ok {
				h(w, r, e)
			}
		})
	}
	s.handleFunc("/metrics", "Prometheus text exposition", s.handleMetrics)
	s.handleFunc("/healthz", "liveness; 503 + degraded reasons (JSON) when ingest is stale, runs stalled/failed, or load shed", s.handleHealthz)
	s.handleFunc("/fleet/runs", "GET: admission counters + retained runs; POST: register a run directory (serve -fleet)", s.handleFleetRuns)
	s.handleFunc("/fleet/bottlenecks", "top-K bottlenecks across all runs (?k=)", s.handleFleetBottlenecks)
	s.handleFunc("/fleet/regressions", "top-K archive diff verdicts (?k=)", s.handleFleetRegressions)
	s.handleFunc("/fleet/blame", "cross-job blame report (?run=)", s.handleFleetBlame)
	if s.archive != nil {
		s.handleFunc("/runs", "archived run metadata (JSON)", s.handleRuns)
		s.handleFunc("/runs/", "one full archived record by ID or unique prefix (JSON)", s.handleRunByID)
		s.handleFunc("/diff", "structural diff of two archived runs ?a=&b= (JSON; &format=text)", s.handleDiff)
	}
	if s.alerts != nil {
		s.handleFunc("/alerts", "alert rules, firing/pending/resolved instances, and history (JSON)",
			func(w http.ResponseWriter, _ *http.Request) { obs.WriteJSON(w, s.alerts.Snapshot()) })
	}
	if s.cfg.Pprof {
		obs.MountPprof(s.mux)
		s.routes = append(s.routes, obs.Route{Path: "/debug/pprof/", Desc: "net/http/pprof profiling index"})
	}
	s.handleFunc("/", "this endpoint index (JSON)", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeIndex(w, r, "grade10 live characterization", s.routes)
	})
}

// ServeHTTP implements http.Handler: every request is instrumented against
// its mounted route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpm.Serve(obs.RouteLabel(s.routes, r.URL.Path), s.mux, w, r)
}

// resolve picks the engine answering a per-run request. An empty ?run= (or
// the pinned run's name) resolves to the pinned run, returned under the run
// name "". Any other name must be an actively ingesting run: a finished
// Registered run is torn down and lives on in the archive. The resolver
// writes the HTTP error itself when it fails; the UI's view models resolve
// through it too.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*stream.Engine, string, bool) {
	run := r.URL.Query().Get("run")
	if name, e, ok := s.fleet.Pinned(); ok && (run == "" || run == name) {
		return e, "", true
	}
	if run == "" {
		if s.pinnedMode() {
			http.Error(w, "waiting for run metadata (run.json)", http.StatusServiceUnavailable)
		} else {
			http.Error(w, "no pinned run: need ?run=<name> (see /fleet/runs)", http.StatusBadRequest)
		}
		return nil, "", false
	}
	e, ok := s.fleet.EngineFor(run)
	if !ok {
		http.Error(w, "run "+run+" is not actively ingesting (finished runs live in the archive; see /fleet/runs and /runs)",
			http.StatusNotFound)
		return nil, "", false
	}
	return e, run, true
}

// health reports whether the service is degraded, and why: a run stalled or
// failed, a registration was shed, or an active run's last ingest is older
// than the staleness threshold.
func (s *Server) health() fleet.HealthView {
	h := s.fleet.Health()
	if s.cfg.StaleAfter > 0 {
		ages := s.fleet.Staleness()
		runs := make([]string, 0, len(ages))
		for run := range ages {
			runs = append(runs, run)
		}
		sort.Strings(runs)
		for _, run := range runs {
			if age := time.Duration(ages[run] * float64(time.Second)); age > s.cfg.StaleAfter {
				h.Status = "degraded"
				h.Reasons = append(h.Reasons, fmt.Sprintf("run %s degraded: last ingest %s ago (threshold %s)",
					run, age.Round(time.Millisecond), s.cfg.StaleAfter))
			}
		}
	}
	return h
}

// degraded is health with its reasons joined, for the health gauge and the
// bundle capturer.
func (s *Server) degraded() (bool, string) {
	h := s.health()
	return h.Status != "ok", strings.Join(h.Reasons, "; ")
}

// handleHealthz answers the fleet.HealthView (JSON), with 503 when health
// reports degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	if h.Status != "ok" {
		w.Header().Set("Content-Type", "application/json") // before the status line
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	obs.WriteJSON(w, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// serveExplain answers explain queries (?q=<query>) with the exact full-run
// derivation, recomputed from the run's final profile; a run that is not
// finalized or retains no profile answers 422. JSON by default;
// ?format=text renders the human-readable derivation chain.
func serveExplain(w http.ResponseWriter, r *http.Request, e *stream.Engine) {
	queryStr := r.URL.Query().Get("q")
	if queryStr == "" {
		http.Error(w, "missing ?q=<query> (grammar: phase=<type-path> machine=<m> resource=<name> [t0..t1])",
			http.StatusBadRequest)
		return
	}
	derivs, err := e.Explain(queryStr)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var pe *explain.ParseError
		if errors.As(err, &pe) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, wd := range derivs {
			fmt.Fprintln(w, "=== final (exact full-run derivation) ===")
			_ = wd.Derivation.WriteText(w)
		}
		return
	}
	obs.WriteJSON(w, struct {
		Query       string                    `json:"query"`
		Derivations []stream.WindowDerivation `json:"derivations"`
	}{queryStr, derivs})
}

// serveTrace serves the combined Chrome trace-event export: the pipeline's
// self-trace spans plus, once the run is finalized in retain mode, the
// analyzed job's profile tracks.
func serveTrace(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
	out, _, _ := e.FinalStatus()
	tracer := e.Tracer()
	if out == nil && tracer == nil {
		http.Error(w, "tracing disabled and no finalized profile", http.StatusServiceUnavailable)
		return
	}
	var buf bytes.Buffer
	if err := report.WriteTraceEvents(&buf, out, tracer); err != nil {
		http.Error(w, "rendering trace: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="grade10-trace.json"`)
	_, _ = w.Write(buf.Bytes())
}

// serveReport serves the exact final report. Until Finalize has run it
// answers 503; in bounded mode (no retained inputs) it points at the live
// endpoints instead.
func serveReport(w http.ResponseWriter, _ *http.Request, e *stream.Engine) {
	out, finalized, err := e.FinalStatus()
	switch {
	case !finalized:
		http.Error(w, "run still in progress; try /profile", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, "finalization failed: "+err.Error(), http.StatusInternalServerError)
		return
	case out == nil:
		http.Error(w, "exact report unavailable in bounded mode; see /profile", http.StatusServiceUnavailable)
		return
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		http.Error(w, "rendering report: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, struct {
		Runs         []profstore.Meta `json:"runs"`
		EvictedTotal int64            `json:"evicted_total"`
	}{s.archive.List(), s.archive.EvictedTotal()})
}

func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/runs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	rec, err := s.archive.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, rec)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	idA, idB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if idA == "" || idB == "" {
		http.Error(w, "need ?a=<run>&b=<run> (IDs or unique prefixes; see /runs)", http.StatusBadRequest)
		return
	}
	recA, err := s.archive.Get(idA)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	recB, err := s.archive.Get(idB)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	rep, err := profdiff.Diff(recA, recB, profdiff.DefaultThreshold)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.lastDiffRegressed.Store(int64(boolValue(rep.Verdict == profdiff.Regressed)))
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = profdiff.WriteText(w, rep)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = profdiff.WriteJSON(w, rep)
}

func (s *Server) handleFleetRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		obs.WriteJSON(w, s.fleet.Snapshot())
	case http.MethodPost:
		if s.pinnedMode() { // a registration could take the pinned name before run.json
			http.Error(w, "this service characterizes one pinned run; register runs with serve -fleet",
				http.StatusConflict)
			return
		}
		var req struct {
			Dir string `json:"dir"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.Dir) == "" {
			http.Error(w, `expected JSON body {"dir": "<run directory>"}`, http.StatusBadRequest)
			return
		}
		name, d, err := s.fleet.Register(req.Dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		status := http.StatusAccepted
		if d == fleet.DecisionShed {
			// 429: the fleet is at capacity; the caller may retry later.
			status = http.StatusTooManyRequests
		}
		w.Header().Set("Content-Type", "application/json") // before the status line
		w.WriteHeader(status)
		obs.WriteJSON(w, map[string]string{"run": name, "decision": d.String()})
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleFleetBottlenecks(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, map[string]any{"bottlenecks": s.fleet.Bottlenecks(queryInt(r, "k", 10))})
}

func (s *Server) handleFleetRegressions(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		http.Error(w, "no archive configured (see -store)", http.StatusServiceUnavailable)
		return
	}
	regs := profdiff.Regressions(s.archive, queryInt(r, "k", 10))
	obs.WriteJSON(w, map[string]any{"regressions": regs})
}

func (s *Server) handleFleetBlame(w http.ResponseWriter, r *http.Request) {
	run := r.URL.Query().Get("run")
	if run == "" {
		http.Error(w, "missing ?run=<name>", http.StatusBadRequest)
		return
	}
	rep, err := s.fleet.Blame(run)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, rep)
}

func queryInt(r *http.Request, key string, def int) int {
	n, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil {
		return def
	}
	return n
}
