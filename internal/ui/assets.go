package ui

import (
	"crypto/sha256"
	"embed"
	"fmt"
	"net/http"
	"path"
	"strings"
)

// The UI ships inside the binary: hand-written vanilla HTML/CSS/JS with no
// external URLs, so the profiler works on an air-gapped cluster. The no-CDN
// property is asserted in assets_test.go.

//go:embed assets
var assetsFS embed.FS

// asset is one embedded file with its precomputed ETag (content hash).
type asset struct {
	body  []byte
	etag  string
	ctype string
}

func contentType(name string) string {
	switch path.Ext(name) {
	case ".html":
		return "text/html; charset=utf-8"
	case ".css":
		return "text/css; charset=utf-8"
	case ".js":
		return "text/javascript; charset=utf-8"
	case ".svg":
		return "image/svg+xml"
	default:
		return "application/octet-stream"
	}
}

// loadAssets reads the embedded tree once, hashing each file for ETag
// revalidation.
func loadAssets() map[string]asset {
	out := map[string]asset{}
	entries, err := assetsFS.ReadDir("assets")
	if err != nil {
		panic("ui: embedded assets missing: " + err.Error())
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		body, err := assetsFS.ReadFile("assets/" + e.Name())
		if err != nil {
			panic("ui: reading embedded asset: " + err.Error())
		}
		sum := sha256.Sum256(body)
		out[e.Name()] = asset{
			body:  body,
			etag:  fmt.Sprintf(`"%x"`, sum[:16]),
			ctype: contentType(e.Name()),
		}
	}
	return out
}

// handleAssets serves /ui/<name> ("" → index.html) with content-hash ETags:
// Cache-Control no-cache makes clients revalidate each load, and a matching
// If-None-Match answers 304 without a body, so iterating on a live service
// stays cheap without ever serving a stale asset.
func (s *Server) handleAssets(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/ui/")
	if name == "" {
		name = "index.html"
	}
	a, ok := s.assets[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("ETag", a.etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, a.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", a.ctype)
	_, _ = w.Write(a.body)
}
