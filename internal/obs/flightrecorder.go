package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mozart/internal/plan"
)

// Flight-recorder defaults: recordings retained when the caller passes a
// non-positive capacity, and events retained per recording before the
// recorder starts counting drops instead of buffering.
const (
	defaultFlightRecordings = 8
	defaultFlightEventCap   = 4096
)

// Recording is one completed evaluation as the flight recorder saw it:
// the event stream (up to the event cap), the plan IR rendering, and the
// outcome. Recordings are immutable once returned.
//
// While a recording sits in the ring it holds the evaluation's plan IR, not
// its text: Plan is rendered when the recording is read (Recordings, Find,
// Dump, the fault hook), so an evaluation nobody inspects never pays for
// plan.Render. The IR is immutable once the runtime has handed it to OnPlan,
// so the text read later is the text an eager rendering would have stored.
type Recording struct {
	Seq     int64     `json:"seq"`   // recorder-wide evaluation sequence number
	Begin   time.Time `json:"begin"` // EvSessionBegin time
	End     time.Time `json:"end"`   // EvSessionEnd time
	Err     string    `json:"err,omitempty"`
	Plan    string    `json:"plan,omitempty"` // plan.Render of the evaluation's IR
	Events  []Event   `json:"events"`
	Dropped int       `json:"dropped,omitempty"` // events beyond the cap
	// TraceID is the request trace the evaluation ran under (hex), taken
	// from the session events' TraceContext stamp; empty for untraced
	// sessions. A 500/504 response carrying a trace id resolves to its
	// recording through FlightRecorder.Find.
	TraceID string `json:"trace_id,omitempty"`

	ir *plan.Plan // retained by OnPlan; Plan is rendered from it on read
}

// rendered returns rec as readers see it, with Plan filled in from the
// retained IR.
func (rec Recording) rendered() Recording {
	if rec.ir != nil {
		rec.Plan, rec.ir = plan.Render(rec.ir), nil
	}
	return rec
}

// FlightRecorder retains the last N evaluations' full event streams in a
// bounded ring, for post-hoc inspection of recent behaviour without paying
// for unbounded trace retention. It is the black-box counterpart to the
// Metrics sink: Metrics keeps aggregates forever, the recorder keeps raw
// detail briefly.
//
// The recorder itself is not a Tracer: concurrent sessions sharing one
// tracer cannot be told apart (events carry no session id), so each
// session gets its own handle via Session(), and the handle attributes
// everything it sees to its own in-flight evaluation. Completed recordings
// from all handles land in the shared ring.
type FlightRecorder struct {
	mu       sync.Mutex
	max      int
	eventCap int
	seq      int64
	ring     []Recording // oldest first, len <= max
	onFault  func(Recording)
}

// NewFlightRecorder returns a recorder retaining the last n evaluations
// (n <= 0 selects the default of 8).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = defaultFlightRecordings
	}
	return &FlightRecorder{max: n, eventCap: defaultFlightEventCap}
}

// SetEventCap bounds the events buffered per recording; beyond it the
// recording only counts drops. n <= 0 restores the default.
func (r *FlightRecorder) SetEventCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 {
		n = defaultFlightEventCap
	}
	r.eventCap = n
}

// OnFault registers fn to run whenever a recording completes with an
// error (an evaluation that ended in a StageError or cancellation). fn is
// called synchronously from the session-end emission, outside the
// recorder's lock; keep it bounded.
func (r *FlightRecorder) OnFault(fn func(Recording)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onFault = fn
}

// AutoDump arranges for every faulting evaluation's recording to be
// written to w as JSON (a convenience OnFault). Writes are serialized.
func (r *FlightRecorder) AutoDump(w io.Writer) {
	var mu sync.Mutex
	r.OnFault(func(rec Recording) {
		mu.Lock()
		defer mu.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rec)
	})
}

// Session returns a handle for one session's evaluations. Wire the handle
// into the session as both Tracer and OnPlan callback; see
// mozart.WithFlightRecorder for the packaged form.
func (r *FlightRecorder) Session() *FlightHandle {
	return &FlightHandle{rec: r}
}

// Recordings returns the retained recordings, oldest first.
func (r *FlightRecorder) Recordings() []Recording {
	r.mu.Lock()
	out := append([]Recording(nil), r.ring...)
	r.mu.Unlock()
	for i := range out {
		out[i] = out[i].rendered()
	}
	return out
}

// Len reports the number of retained recordings.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Find returns the newest retained recording whose evaluation ran under
// the given trace id (lowercase hex).
func (r *FlightRecorder) Find(traceID string) (Recording, bool) {
	if traceID == "" {
		return Recording{}, false
	}
	var rec Recording
	ok := false
	r.mu.Lock()
	for i := len(r.ring) - 1; i >= 0 && !ok; i-- {
		if r.ring[i].TraceID == traceID {
			rec, ok = r.ring[i], true
		}
	}
	r.mu.Unlock()
	return rec.rendered(), ok // rendered outside the lock, like Recordings
}

// Dump writes every retained recording to w as indented JSON.
func (r *FlightRecorder) Dump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Recordings())
}

// commit pushes a completed recording into the ring and returns the fault
// hook to invoke (outside the lock) if the recording carries an error.
func (r *FlightRecorder) commit(rec *Recording) func(Recording) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	if len(r.ring) == r.max {
		copy(r.ring, r.ring[1:])
		r.ring[len(r.ring)-1] = *rec
	} else {
		r.ring = append(r.ring, *rec)
	}
	if rec.Err != "" {
		return r.onFault
	}
	return nil
}

// FlightHandle records one session's evaluations into its parent
// FlightRecorder. Emit is safe for concurrent use (workers emit batch
// events in parallel); evaluations on one session are sequential, so the
// handle tracks a single in-flight recording.
type FlightHandle struct {
	rec *FlightRecorder

	mu       sync.Mutex
	cur      *Recording
	eventCap int // snapshot of the recorder's cap, taken at EvSessionBegin
}

// Emit implements Tracer.
func (h *FlightHandle) Emit(e Event) {
	h.mu.Lock()
	switch e.Kind {
	case EvSessionBegin:
		h.rec.mu.Lock()
		h.eventCap = h.rec.eventCap
		h.rec.mu.Unlock()
		h.cur = &Recording{Begin: e.Time, Events: []Event{e}}
		if e.Trace != nil && !e.Trace.TraceID.IsZero() {
			h.cur.TraceID = e.Trace.TraceID.String()
		}
		h.mu.Unlock()
		return
	case EvSessionEnd:
		cur := h.cur
		h.cur = nil
		h.mu.Unlock()
		if cur == nil {
			return
		}
		cur.Events = append(cur.Events, e)
		cur.End = e.Time
		cur.Err = e.Detail
		if onFault := h.rec.commit(cur); onFault != nil {
			onFault(cur.rendered())
		}
		return
	}
	if h.cur != nil {
		if len(h.cur.Events) < h.eventCap {
			h.cur.Events = append(h.cur.Events, e)
		} else {
			h.cur.Dropped++
		}
	}
	h.mu.Unlock()
}

// OnPlan retains the evaluation's plan IR; its text is rendered when the
// recording is read. Wire it into the session's OnPlan option (the runtime
// invokes it between EvSessionBegin and the first stage); it is safe to
// combine with a user callback.
func (h *FlightHandle) OnPlan(p *plan.Plan) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur != nil {
		h.cur.ir = p
	}
}
