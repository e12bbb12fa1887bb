package httpd

// Request tracing on the HTTP boundary. The handler owns the only
// trace.Tracer in the process: ServeHTTP opens the request trace
// (adopting an inbound W3C traceparent when present), threads it through
// the request context so core and the solvers can hang phase spans off
// it, and closes it when the response is written. Retained traces are
// served back on GET /v1/traces; every routed request can additionally
// be access-logged with its trace id for cross-correlation with the
// slow-query log.

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/trace"
)

// WithTracer wires a request tracer into the handler. Nil (the default)
// disables tracing entirely — the request path then does no tracing work
// at all, preserving the zero-allocation serving benchmarks.
func WithTracer(t *trace.Tracer) HandlerOption {
	return func(h *Handler) { h.tracer = t }
}

// WithAccessLog emits one structured log line per routed request (and
// per limiter shed) on l, stamped with the request's trace id when a
// tracer is configured. Nil disables request logging.
func WithAccessLog(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.accessLog = l }
}

// startTrace opens the request trace and rebinds the request to a
// context carrying it. A nil tracer returns the request untouched.
func (h *Handler) startTrace(r *http.Request, endpoint string) (*trace.Trace, *http.Request) {
	if h.tracer == nil {
		return nil, r
	}
	tp := trace.ParseTraceparent(r.Header.Get("traceparent"))
	tr := h.tracer.StartRequest(endpoint, tp)
	return tr, r.WithContext(trace.NewContext(r.Context(), tr))
}

// finishRequest closes the request trace (retaining it when sampled,
// errored or slow) and emits the access-log line. It returns the trace
// id when the trace was retained — the id a reader can actually resolve
// on /v1/traces, which is what the latency-histogram exemplar links to.
func (h *Handler) finishRequest(tr *trace.Trace, r *http.Request, endpoint string, status int, d time.Duration) string {
	var tid, kept string
	if tr != nil {
		// Capture the id before Finish recycles the trace; skip the hex
		// rendering entirely when nothing will log it.
		if h.accessLog != nil {
			tid = tr.ID().String()
		}
		if rec := h.tracer.Finish(tr, status >= http.StatusInternalServerError); rec != nil {
			kept = rec.TraceID
		}
	}
	if h.accessLog != nil {
		h.accessLog.Info("request",
			"trace_id", tid,
			"method", r.Method,
			"path", r.URL.Path,
			"endpoint", endpoint,
			"status", status,
			"duration_ms", float64(d)/float64(time.Millisecond))
	}
	return kept
}

// annotateScheme stamps the resolved scheme name and epoch onto the
// request's root span, so every retained trace names the compile that
// answered it. No-ops on untraced requests.
func annotateScheme(r *http.Request, name string, epoch uint64) {
	root := trace.FromContext(r.Context()).Root()
	root.Annotate("scheme", name)
	root.AnnotateInt("epoch", int64(epoch))
}

// TracesResponse is the body of GET /v1/traces: recently retained
// request traces, newest first.
type TracesResponse struct {
	Traces []*trace.Recorded `json:"traces"`
}

// handleTraces serves the bounded ring of retained traces. Like the
// other monitoring GETs it is exempt from the in-flight limiter, and it
// answers an empty list (not an error) when no tracer is configured so
// probes need not know the server's tracing config.
func (h *Handler) handleTraces(w http.ResponseWriter, r *http.Request) {
	resp := TracesResponse{Traces: []*trace.Recorded{}}
	if h.tracer != nil {
		if recent := h.tracer.Recent(); len(recent) > 0 {
			resp.Traces = recent
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
