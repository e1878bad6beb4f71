package obs

// Request-scoped distributed tracing. A serving front end parses (or
// generates) a W3C traceparent, roots a SpanRecorder on the request, and
// wires the recorder into the session's Tracer alongside the other sinks:
// every runtime event — admission, plan, stages, batches, merges, retries,
// breaker transitions, pressure episodes, spills, tuner decisions —
// becomes a span in one per-request tree, keyed by the request's trace ID.
// Completed trees land in a SpanRing for /debug/mozart/spans/<traceID>
// lookups, rendered either as an indented tree or as OTLP/JSON (the
// OpenTelemetry protobuf JSON mapping), so any OTLP-speaking backend can
// ingest them without this repo vendoring a client library.

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceID is a W3C trace-id: 16 bytes, rendered as 32 lowercase hex digits.
type TraceID [16]byte

// SpanID is a W3C parent-id/span-id: 8 bytes, 16 lowercase hex digits.
type SpanID [8]byte

// IsZero reports the all-zero (invalid per W3C) trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the all-zero (invalid per W3C) span id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MarshalJSON renders the id as a hex string (the OTLP JSON convention),
// not a byte array.
func (t TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }
func (s SpanID) MarshalJSON() ([]byte, error)  { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the hex-string form.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(t) {
		return fmt.Errorf("obs: bad trace id %q", s)
	}
	copy(t[:], raw)
	return nil
}

func (s *SpanID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	raw, err := hex.DecodeString(str)
	if err != nil || len(raw) != len(s) {
		return fmt.Errorf("obs: bad span id %q", str)
	}
	copy(s[:], raw)
	return nil
}

// TraceContext is the propagated identity of one request: the W3C
// traceparent fields the runtime threads through core.Options so session
// events (and so flight recordings and latency exemplars) carry the
// request's trace id.
type TraceContext struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"` // the caller's span: parent of anything emitted under this context
	Sampled bool    `json:"sampled"`
}

// Traceparent renders the context as a version-00 W3C traceparent header
// value: 00-<trace-id>-<parent-id>-<flags>.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID.String() + "-" + tc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// version 00 exactly, and any future hex version (except the forbidden ff)
// whose value starts with the version-00 fields — per the spec's
// forward-compatibility rule. ok is false on any violation: wrong field
// sizes, non-lowercase-hex content, an all-zero trace or span id, or a
// malformed version.
func ParseTraceparent(header string) (tc TraceContext, ok bool) {
	if header == "" {
		return tc, false
	}
	parts := strings.Split(header, "-")
	if len(parts) < 4 {
		return tc, false
	}
	if _, vok := hexField(parts[0], 2); !vok || parts[0] == "ff" {
		return tc, false
	}
	// Version 00 must have exactly the four fields; future versions may
	// append more, but never fewer.
	if parts[0] == "00" && len(parts) != 4 {
		return tc, false
	}
	traceHex, ok2 := hexField(parts[1], 32)
	if !ok2 {
		return tc, false
	}
	spanHex, ok2 := hexField(parts[2], 16)
	if !ok2 {
		return tc, false
	}
	flags, ok2 := hexField(parts[3], 2)
	if !ok2 {
		return tc, false
	}
	copy(tc.TraceID[:], traceHex)
	copy(tc.SpanID[:], spanHex)
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return TraceContext{}, false
	}
	tc.Sampled = flags[0]&0x01 != 0
	return tc, true
}

// hexField decodes a lowercase hex field of exactly wantHexDigits digits.
// Uppercase hex is invalid per the W3C spec and rejected.
func hexField(s string, wantHexDigits int) ([]byte, bool) {
	if len(s) != wantHexDigits || strings.ToLower(s) != s {
		return nil, false
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, false
	}
	return raw, true
}

// traceRNG generates trace and span ids. math/rand is deliberate: ids need
// uniqueness, not unpredictability, and the locked source keeps generation
// allocation-free on the request path.
var (
	traceRNGMu sync.Mutex
	traceRNG   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// SeedTraceIDs pins the id generator's sequence (tests).
func SeedTraceIDs(seed int64) {
	traceRNGMu.Lock()
	traceRNG = rand.New(rand.NewSource(seed))
	traceRNGMu.Unlock()
}

// NewTraceContext generates a fresh sampled trace context, for requests
// that arrive without a (valid) traceparent.
func NewTraceContext() TraceContext {
	var tc TraceContext
	traceRNGMu.Lock()
	for tc.TraceID.IsZero() {
		binary.BigEndian.PutUint64(tc.TraceID[0:8], traceRNG.Uint64())
		binary.BigEndian.PutUint64(tc.TraceID[8:16], traceRNG.Uint64())
	}
	for tc.SpanID.IsZero() {
		binary.BigEndian.PutUint64(tc.SpanID[:], traceRNG.Uint64())
	}
	traceRNGMu.Unlock()
	tc.Sampled = true
	return tc
}

// SpanAttr is one span attribute. Exactly one of Str/Int is meaningful;
// IsInt selects which (so zero values round-trip unambiguously).
type SpanAttr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsInt bool   `json:"is_int,omitempty"`
}

// Span is one node of a request's span tree. Spans are plain values;
// a completed Trace owns its slice.
type Span struct {
	SpanID SpanID     `json:"span_id"`
	Parent SpanID     `json:"parent_span_id,omitempty"`
	Name   string     `json:"name"`
	Start  time.Time  `json:"start"`
	End    time.Time  `json:"end"`
	Err    string     `json:"err,omitempty"`
	Attrs  []SpanAttr `json:"attrs,omitempty"`
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Trace is one request's completed span tree, rooted at the serving
// layer's request span.
type Trace struct {
	TraceID TraceID `json:"trace_id"`
	Root    SpanID  `json:"root_span_id"`
	Spans   []Span  `json:"spans"` // emission order; Spans[i].Parent indexes within the trace
}

// RootSpan returns the root span (zero Span if the trace is empty).
func (t *Trace) RootSpan() Span {
	for _, s := range t.Spans {
		if s.SpanID == t.Root {
			return s
		}
	}
	return Span{}
}

// SpanRecorder converts one request's runtime event stream into a span
// tree. It implements Tracer; wire it into the session's tracer fan-out
// next to the metrics and flight-recorder sinks. Emit is safe for
// concurrent use (workers emit batch events in parallel).
//
// Span identity is derived, not random: span ids are the trace id's low
// eight bytes XOR an emission sequence number, so a recorder's output is
// deterministic given its trace context and event stream.
type SpanRecorder struct {
	tc TraceContext

	mu    sync.Mutex
	seq   uint64
	root  Span
	spans []Span
	// session is the open evaluation span (EvSessionBegin..EvSessionEnd);
	// stages maps a stage index to its open stage span.
	session  SpanID
	sessAt   time.Time
	stages   map[int]stageSlot
	finished bool
}

type stageSlot struct {
	id    SpanID
	start time.Time
	open  bool
}

// NewSpanRecorder roots a recorder on tc: the root span (named name, e.g.
// "POST /v1/eval") starts now and is parented on tc.SpanID — the caller's
// span, when the request carried a traceparent.
func NewSpanRecorder(tc TraceContext, name string) *SpanRecorder {
	r := &SpanRecorder{tc: tc, stages: map[int]stageSlot{}}
	r.root = Span{SpanID: r.nextID(), Parent: tc.SpanID, Name: name, Start: time.Now()}
	return r
}

// RootSpanID returns the request span's id (the parent callers should
// propagate downstream).
func (r *SpanRecorder) RootSpanID() SpanID { return r.root.SpanID }

// TraceID returns the recorder's trace id.
func (r *SpanRecorder) TraceID() TraceID { return r.tc.TraceID }

// Context returns the trace context downstream work should carry: the
// request's trace id with the root span as parent.
func (r *SpanRecorder) Context() TraceContext {
	return TraceContext{TraceID: r.tc.TraceID, SpanID: r.root.SpanID, Sampled: true}
}

// nextID derives the next span id. Callers hold r.mu (or run before the
// recorder is shared).
func (r *SpanRecorder) nextID() SpanID {
	r.seq++
	var id SpanID
	binary.BigEndian.PutUint64(id[:], binary.BigEndian.Uint64(r.tc.TraceID[8:16])^r.seq)
	if id.IsZero() { // astronomically unlikely, but zero ids are invalid
		id[7] = 1
	}
	return id
}

// Annotate adds an attribute to the root (request) span.
func (r *SpanRecorder) Annotate(key, val string) {
	r.mu.Lock()
	r.root.Attrs = append(r.root.Attrs, SpanAttr{Key: key, Str: val})
	r.mu.Unlock()
}

// AnnotateInt adds an integer attribute to the root span.
func (r *SpanRecorder) AnnotateInt(key string, val int64) {
	r.mu.Lock()
	r.root.Attrs = append(r.root.Attrs, SpanAttr{Key: key, Int: val, IsInt: true})
	r.mu.Unlock()
}

// Emit implements Tracer: each event becomes (or opens/closes) a span.
func (r *SpanRecorder) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	switch e.Kind {
	case EvSessionBegin:
		r.session = r.nextID()
		r.sessAt = e.Time
		r.spans = append(r.spans, Span{SpanID: r.session, Parent: r.root.SpanID,
			Name: "session", Start: e.Time, End: e.Time,
			Attrs: []SpanAttr{{Key: "pending_calls", Int: e.Elems, IsInt: true}}})
	case EvSessionEnd:
		for i := range r.spans {
			if r.spans[i].SpanID == r.session {
				r.spans[i].End = e.Time
				r.spans[i].Err = e.Detail
				break
			}
		}
		r.session = SpanID{}
	case EvStageBegin:
		slot := stageSlot{id: r.nextID(), start: e.Time, open: true}
		r.stages[e.Stage] = slot
		r.spans = append(r.spans, Span{SpanID: slot.id, Parent: r.sessionOrRoot(),
			Name: fmt.Sprintf("stage %d [%s]", e.Stage, e.Calls), Start: e.Time, End: e.Time,
			Attrs: []SpanAttr{
				{Key: "split", Str: e.Split},
				{Key: "elems", Int: e.Elems, IsInt: true},
				{Key: "batch_elems", Int: e.BatchElems, IsInt: true},
				{Key: "workers", Int: int64(e.Workers), IsInt: true},
				{Key: "bytes", Int: e.Bytes, IsInt: true},
			}})
	case EvStageEnd:
		if slot, ok := r.stages[e.Stage]; ok && slot.open {
			for i := range r.spans {
				if r.spans[i].SpanID == slot.id {
					r.spans[i].Start = e.Time.Add(-e.Dur)
					r.spans[i].End = e.Time
					r.spans[i].Err = e.Detail
					break
				}
			}
			slot.open = false
			r.stages[e.Stage] = slot
		}
	default:
		r.spans = append(r.spans, r.eventSpan(e))
	}
}

// sessionOrRoot parents stage-level spans: the open session span when one
// exists, else the root. Callers hold r.mu.
func (r *SpanRecorder) sessionOrRoot() SpanID {
	if !r.session.IsZero() {
		return r.session
	}
	return r.root.SpanID
}

// parentFor places an event in the tree: batch/merge/retry/admission and
// friends hang off their stage's span; stage-less events off the session.
// Callers hold r.mu.
func (r *SpanRecorder) parentFor(e Event) SpanID {
	if e.Stage >= 0 {
		if slot, ok := r.stages[e.Stage]; ok {
			return slot.id
		}
	}
	return r.sessionOrRoot()
}

// eventSpan converts a non-lifecycle event into a span. Span kinds carry
// Time = end and Dur = length; instants become zero-length spans.
func (r *SpanRecorder) eventSpan(e Event) Span {
	s := Span{SpanID: r.nextID(), Parent: r.parentFor(e),
		Name: e.Kind.String(), Start: e.Time.Add(-e.Dur), End: e.Time, Err: ""}
	switch e.Kind {
	case EvPlan:
		s.Name = "plan"
		s.Attrs = append(s.Attrs, SpanAttr{Key: "stages", Int: int64(e.Stages), IsInt: true})
	case EvBatch:
		s.Name = fmt.Sprintf("batch [%d:%d]", e.Start, e.End)
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "worker", Int: int64(e.Worker), IsInt: true},
			SpanAttr{Key: "bytes", Int: e.Bytes, IsInt: true},
			SpanAttr{Key: "split_ns", Int: e.SplitNS, IsInt: true},
			SpanAttr{Key: "task_ns", Int: e.TaskNS, IsInt: true})
		if e.Attempt > 1 {
			s.Attrs = append(s.Attrs, SpanAttr{Key: "attempt", Int: int64(e.Attempt), IsInt: true})
		}
	case EvMerge:
		s.Attrs = append(s.Attrs, SpanAttr{Key: "worker", Int: int64(e.Worker), IsInt: true})
	case EvRetry:
		s.Err = e.Detail
		s.Attrs = append(s.Attrs, SpanAttr{Key: "attempt", Int: int64(e.Attempt), IsInt: true})
	case EvBreaker:
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "annotation", Str: e.Calls},
			SpanAttr{Key: "state", Str: e.Detail})
	case EvAdmission:
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "reserved_bytes", Int: e.Bytes, IsInt: true},
			SpanAttr{Key: "batch_elems", Int: e.BatchElems, IsInt: true},
			SpanAttr{Key: "workers", Int: int64(e.Workers), IsInt: true})
	case EvFallback:
		s.Err = e.Detail
	case EvPressure:
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "level", Str: e.Detail},
			SpanAttr{Key: "reserved_bytes", Int: e.Bytes, IsInt: true})
	case EvSpill:
		s.Name = "spill " + e.Detail
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "bytes", Int: e.Bytes, IsInt: true},
			SpanAttr{Key: "window", Str: fmt.Sprintf("[%d:%d]", e.Start, e.End)})
	case EvTune:
		s.Attrs = append(s.Attrs,
			SpanAttr{Key: "provenance", Str: e.Detail},
			SpanAttr{Key: "batch_elems", Int: e.BatchElems, IsInt: true})
	default:
		if e.Detail != "" {
			s.Attrs = append(s.Attrs, SpanAttr{Key: "detail", Str: e.Detail})
		}
	}
	return s
}

// Finish closes the root span with the request's outcome and returns the
// completed trace. Any stage span the runtime never closed (a cancellation
// torn mid-stage) is clamped to the root's end. Emit becomes a no-op after
// Finish; calling Finish twice returns the same trace.
func (r *SpanRecorder) Finish(errDetail string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.finished {
		r.finished = true
		now := time.Now()
		r.root.End = now
		r.root.Err = errDetail
		for i := range r.spans {
			if r.spans[i].End.Before(r.spans[i].Start) || r.spans[i].End.IsZero() {
				r.spans[i].End = now
			}
		}
	}
	spans := make([]Span, 0, len(r.spans)+1)
	spans = append(spans, r.root)
	spans = append(spans, r.spans...)
	return &Trace{TraceID: r.tc.TraceID, Root: r.root.SpanID, Spans: spans}
}

// ---- the span ring ---------------------------------------------------------

// TraceSummary is one SpanRing index row.
type TraceSummary struct {
	TraceID string        `json:"trace_id"`
	Name    string        `json:"name"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Spans   int           `json:"spans"`
	Err     string        `json:"err,omitempty"`
}

// SpanRing retains the last N completed traces keyed by trace id, the
// span-tree counterpart to the flight recorder: bounded retention, keyed
// lookup, no external storage.
type SpanRing struct {
	mu    sync.Mutex
	max   int
	order []TraceID // oldest first
	byID  map[TraceID]*Trace
}

// NewSpanRing returns a ring retaining the last n traces (n <= 0 selects 64).
func NewSpanRing(n int) *SpanRing {
	if n <= 0 {
		n = 64
	}
	return &SpanRing{max: n, byID: map[TraceID]*Trace{}}
}

// Add retains t, evicting the oldest trace at capacity. A second trace
// with the same id replaces the first (one request, one trace).
func (r *SpanRing) Add(t *Trace) {
	if t == nil || t.TraceID.IsZero() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[t.TraceID]; dup {
		r.byID[t.TraceID] = t
		return
	}
	if len(r.order) == r.max {
		delete(r.byID, r.order[0])
		copy(r.order, r.order[1:])
		r.order = r.order[:len(r.order)-1]
	}
	r.order = append(r.order, t.TraceID)
	r.byID[t.TraceID] = t
}

// Get returns the trace with the given lowercase-hex id.
func (r *SpanRing) Get(traceIDHex string) (*Trace, bool) {
	raw, err := hex.DecodeString(traceIDHex)
	if err != nil || len(raw) != 16 {
		return nil, false
	}
	var id TraceID
	copy(id[:], raw)
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Len reports the number of retained traces.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Summaries lists the retained traces, oldest first.
func (r *SpanRing) Summaries() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.order))
	for _, id := range r.order {
		t := r.byID[id]
		root := t.RootSpan()
		out = append(out, TraceSummary{TraceID: id.String(), Name: root.Name,
			Start: root.Start, Dur: root.Dur(), Spans: len(t.Spans), Err: root.Err})
	}
	return out
}

// ---- rendering -------------------------------------------------------------

// RenderTree writes the trace as an indented tree, children in start
// order, each line carrying the span's duration and attributes.
func (t *Trace) RenderTree(w io.Writer) (int64, error) {
	children := map[SpanID][]int{}
	for i, s := range t.Spans {
		if s.SpanID == t.Root {
			continue
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, idx := range children {
		sort.SliceStable(idx, func(a, b int) bool { return t.Spans[idx[a]].Start.Before(t.Spans[idx[b]].Start) })
	}
	var b strings.Builder
	root := t.RootSpan()
	fmt.Fprintf(&b, "trace %s (%d spans, %s)\n", t.TraceID, len(t.Spans), root.Dur().Round(time.Microsecond))
	var walk func(id SpanID, s Span, depth int)
	walk = func(id SpanID, s Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "- %s (%s)", s.Name, s.Dur().Round(time.Microsecond))
		for _, a := range s.Attrs {
			if a.IsInt {
				fmt.Fprintf(&b, " %s=%d", a.Key, a.Int)
			} else {
				fmt.Fprintf(&b, " %s=%q", a.Key, a.Str)
			}
		}
		if s.Err != "" {
			fmt.Fprintf(&b, " err=%q", s.Err)
		}
		b.WriteByte('\n')
		for _, ci := range children[id] {
			walk(t.Spans[ci].SpanID, t.Spans[ci], depth+1)
		}
	}
	walk(root.SpanID, root, 0)
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ---- OTLP/JSON export ------------------------------------------------------

// otlp* mirror the OTLP JSON mapping (opentelemetry-proto trace/v1) closely
// enough for any OTLP-speaking backend to ingest: hex ids, stringified
// unix-nano timestamps, typed attribute values.
type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}
type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}
type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}
type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}
type otlpScope struct {
	Name string `json:"name"`
}
type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes,omitempty"`
	Status            otlpStatus `json:"status"`
}
type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}
type otlpValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"` // int64 maps to a JSON string in proto3
}
type otlpStatus struct {
	Code    int    `json:"code"` // 0 unset, 1 ok, 2 error
	Message string `json:"message,omitempty"`
}

const (
	otlpKindInternal = 1
	otlpKindServer   = 2
)

// WriteOTLP renders the trace in the OTLP/JSON shape under the given
// service name.
func (t *Trace) WriteOTLP(w io.Writer, serviceName string) error {
	svc := serviceName
	spans := make([]otlpSpan, 0, len(t.Spans))
	for _, s := range t.Spans {
		os := otlpSpan{
			TraceID:           t.TraceID.String(),
			SpanID:            s.SpanID.String(),
			Name:              s.Name,
			Kind:              otlpKindInternal,
			StartTimeUnixNano: fmt.Sprintf("%d", s.Start.UnixNano()),
			EndTimeUnixNano:   fmt.Sprintf("%d", s.End.UnixNano()),
		}
		if s.SpanID == t.Root {
			os.Kind = otlpKindServer
		}
		if !s.Parent.IsZero() {
			os.ParentSpanID = s.Parent.String()
		}
		for _, a := range s.Attrs {
			if a.IsInt {
				v := fmt.Sprintf("%d", a.Int)
				os.Attributes = append(os.Attributes, otlpAttr{Key: a.Key, Value: otlpValue{IntValue: &v}})
			} else {
				v := a.Str
				os.Attributes = append(os.Attributes, otlpAttr{Key: a.Key, Value: otlpValue{StringValue: &v}})
			}
		}
		if s.Err != "" {
			os.Status = otlpStatus{Code: 2, Message: s.Err}
		} else {
			os.Status = otlpStatus{Code: 1}
		}
		spans = append(spans, os)
	}
	export := otlpExport{ResourceSpans: []otlpResourceSpans{{
		Resource:   otlpResource{Attributes: []otlpAttr{{Key: "service.name", Value: otlpValue{StringValue: &svc}}}},
		ScopeSpans: []otlpScopeSpans{{Scope: otlpScope{Name: "mozart/internal/obs"}, Spans: spans}},
	}}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(export)
}
