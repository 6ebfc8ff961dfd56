package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
)

// WriteJSON writes v as indented JSON with the JSON content type. Encoding
// is deterministic for sorted slices and maps (encoding/json orders keys).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ServeIndex answers GET / with the JSON endpoint index: the service name,
// the build, and every route with its one-line description, sorted by path.
// Any other path is a 404 (the index is mounted on the "/" catch-all).
func ServeIndex(w http.ResponseWriter, r *http.Request, service string, routes []Route) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	sorted := append([]Route(nil), routes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	ver, gover := BuildInfo()
	WriteJSON(w, struct {
		Service   string  `json:"service"`
		Version   string  `json:"version"`
		GoVersion string  `json:"go_version"`
		Endpoints []Route `json:"endpoints"`
	}{service, ver, gover, sorted})
}

// MountPprof mounts the net/http/pprof endpoints under /debug/pprof/.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
