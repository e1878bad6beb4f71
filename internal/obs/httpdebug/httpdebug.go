// Package httpdebug mounts the Mozart runtime's live telemetry on a
// caller-provided *http.ServeMux: a Prometheus /metrics endpoint over a
// Metrics sink, the last plan IRs under /debug/mozart/plans, the Chrome
// trace buffer under /debug/mozart/trace, the flight recorder's
// retained evaluations under /debug/mozart/flight, and per-request span
// trees under /debug/mozart/spans/<trace-id>.
//
// The package never starts a server and never touches
// http.DefaultServeMux: the caller owns the listener, the mux, and any
// authentication in front of it. Typical wiring:
//
//	metrics := mozart.NewMetrics()
//	plans := httpdebug.NewPlanLog(8)
//	s := mozart.NewSession(mozart.Options{Tracer: metrics, OnPlan: plans.OnPlan})
//	mux := http.NewServeMux()
//	httpdebug.Mount(mux, httpdebug.Options{Metrics: metrics, Plans: plans})
//	go http.ListenAndServe("localhost:6070", mux)
package httpdebug

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"mozart/internal/obs"
	"mozart/internal/plan"
)

// Options selects which telemetry surfaces Mount exposes. Nil fields are
// simply not mounted, so a caller can expose metrics without tracing or
// vice versa.
type Options struct {
	// Metrics serves GET /metrics in the Prometheus text format.
	Metrics *obs.Metrics
	// Plans serves GET /debug/mozart/plans: the retained plan renderings,
	// newest last.
	Plans *PlanLog
	// Trace serves GET /debug/mozart/trace: the trace buffer in Chrome
	// trace_event JSON (load into chrome://tracing or ui.perfetto.dev).
	Trace *obs.ChromeTrace
	// Recorder serves GET /debug/mozart/flight: the flight recorder's
	// retained recordings as JSON, newest last.
	Recorder *obs.FlightRecorder
	// Spans serves GET /debug/mozart/spans (a JSON index of retained
	// traces) and GET /debug/mozart/spans/<trace-id> (one request's span
	// tree — indented text by default, OTLP/JSON with ?format=otlp).
	Spans *obs.SpanRing
	// Service names the OTLP resource (service.name) on span exports;
	// empty defaults to "mozart".
	Service string
}

// Mount registers a handler per non-nil Options field on mux.
func Mount(mux *http.ServeMux, o Options) {
	if o.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			// Content negotiation per the Prometheus exposition-format
			// contract: scrapers that understand OpenMetrics (and so
			// exemplars) say so in Accept; everyone else gets the classic
			// text format, byte-for-byte what this endpoint always served.
			if wantsOpenMetrics(r.Header.Get("Accept")) {
				w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
				o.Metrics.WriteOpenMetrics(w)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			o.Metrics.WritePrometheus(w)
		})
	}
	if o.Plans != nil {
		mux.HandleFunc("/debug/mozart/plans", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			o.Plans.WriteTo(w)
		})
	}
	if o.Trace != nil {
		mux.HandleFunc("/debug/mozart/trace", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			o.Trace.WriteTo(w)
		})
	}
	if o.Recorder != nil {
		mux.HandleFunc("/debug/mozart/flight", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			o.Recorder.Dump(w)
		})
	}
	if o.Spans != nil {
		service := o.Service
		if service == "" {
			service = "mozart"
		}
		mux.HandleFunc("/debug/mozart/spans", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(o.Spans.Summaries())
		})
		mux.HandleFunc("/debug/mozart/spans/", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			id := strings.TrimPrefix(r.URL.Path, "/debug/mozart/spans/")
			tr, ok := o.Spans.Get(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			switch r.URL.Query().Get("format") {
			case "otlp":
				w.Header().Set("Content-Type", "application/json")
				tr.WriteOTLP(w, service)
			case "", "tree":
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				tr.RenderTree(w)
			default:
				http.Error(w, "unknown format (want tree or otlp)", http.StatusBadRequest)
			}
		})
	}
}

// wantsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text exposition format.
func wantsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

func allowGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// PlanLog retains the last N plan IRs the planner produced and renders
// them when read. Wire its OnPlan into Options.OnPlan (combine with other
// consumers by calling both from one closure). A plan IR holds no live
// bindings, splitters or session state and is immutable once the runtime
// has handed it to OnPlan, so retaining the pointer cannot alias runtime
// state, and recording a plan costs no rendering.
type PlanLog struct {
	mu   sync.Mutex
	max  int
	seq  int64
	ring []planEntry // oldest first
}

type planEntry struct {
	seq int64
	ir  *plan.Plan
}

// NewPlanLog returns a log retaining the last n plans (n <= 0 selects 8).
func NewPlanLog(n int) *PlanLog {
	if n <= 0 {
		n = 8
	}
	return &PlanLog{max: n}
}

// OnPlan records one plan. Safe for concurrent use.
func (l *PlanLog) OnPlan(p *plan.Plan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e := planEntry{seq: l.seq, ir: p}
	if len(l.ring) == l.max {
		copy(l.ring, l.ring[1:])
		l.ring[len(l.ring)-1] = e
	} else {
		l.ring = append(l.ring, e)
	}
}

// Len reports the number of retained plans.
func (l *PlanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// WriteTo renders the retained plans, oldest first, each under an
// "evaluation N" header.
func (l *PlanLog) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	entries := append([]planEntry(nil), l.ring...)
	l.mu.Unlock()
	var b strings.Builder
	if len(entries) == 0 {
		b.WriteString("no plans recorded\n")
	}
	for i, e := range entries {
		if i > 0 {
			b.WriteString("\n")
		}
		rendered := plan.Render(e.ir)
		fmt.Fprintf(&b, "=== evaluation %d ===\n%s", e.seq, rendered)
		if !strings.HasSuffix(rendered, "\n") {
			b.WriteString("\n")
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
