package metrics

import "net/http"

// Content types advertised by the HTTP handlers.
const (
	// PrometheusContentType is the text exposition format version the
	// /metrics handler advertises.
	PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"
	// JSONContentType is served by /metrics.json and /series.json.
	JSONContentType = "application/json; charset=utf-8"
	// CSVContentType is served by /series.
	CSVContentType = "text/csv; charset=utf-8"
)

// readOnly wraps a handler body with the shared method gate and content
// type: GET serves the body, HEAD serves headers only, anything else is
// rejected. All handlers run entirely off the simulation hot path — state
// is read through closures at request time and the simulator never blocks
// on a scrape.
func readOnly(contentType string, body func(w http.ResponseWriter)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		if r.Method == http.MethodHead {
			return
		}
		body(w)
	})
}

// Handler returns an HTTP handler serving the Prometheus text exposition
// of whatever snapshot snap returns — typically Registry.Snapshot bound to
// a live registry, or a closure over a frozen post-run snapshot.
func Handler(snap func() *Snapshot) http.Handler {
	return readOnly(PrometheusContentType, func(w http.ResponseWriter) {
		snap().writePrometheus(w)
	})
}

// JSONHandler serves the same snapshot as Handler in the indented JSON
// form, for /metrics.json.
func JSONHandler(snap func() *Snapshot) http.Handler {
	return readOnly(JSONContentType, func(w http.ResponseWriter) {
		blob, err := snap().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(blob)
	})
}

// SeriesHandler serves the timeline returned by tl as CSV, for /series.
// tl may return nil (sampling not enabled), which maps to 404 so scrapers
// can distinguish "off" from "empty".
func SeriesHandler(tl func() *Timeline) http.Handler {
	return readOnly(CSVContentType, func(w http.ResponseWriter) {
		t := tl()
		if t == nil {
			http.Error(w, "timeline sampling not enabled", http.StatusNotFound)
			return
		}
		w.Write([]byte(t.CSV()))
	})
}

// SeriesJSONHandler serves the timeline as JSON, for /series.json, with
// the same nil-means-404 contract as SeriesHandler.
func SeriesJSONHandler(tl func() *Timeline) http.Handler {
	return readOnly(JSONContentType, func(w http.ResponseWriter) {
		t := tl()
		if t == nil {
			http.Error(w, "timeline sampling not enabled", http.StatusNotFound)
			return
		}
		blob, err := t.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(blob)
	})
}
