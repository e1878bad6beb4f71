package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// traceparentCases are the headers TestParseTraceparent checks and
// FuzzParseTraceparent seeds its corpus with.
var traceparentCases = []struct {
	name    string
	header  string
	ok      bool
	sampled bool
}{
	{"valid sampled", validTraceparent, true, true},
	{"valid unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true, false},
	{"empty", "", false, false},
	{"too few fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false, false},
	{"version ff forbidden", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
	{"malformed version", "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
	{"short version", "0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
	{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false, false},
	{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", false, false},
	{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false, false},
	{"all-zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false, false},
	{"short trace id", "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", false, false},
	{"long span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7ff-01", false, false},
	{"bad flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", false, false},
	// Forward compatibility: a future version may carry extra fields…
	{"future version extra fields", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true, true},
	// …but version 00 must have exactly four.
	{"v00 extra fields", validTraceparent + "-extra", false, false},
}

func TestParseTraceparent(t *testing.T) {
	for _, tc := range traceparentCases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseTraceparent(tc.header)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.header, ok, tc.ok)
			}
			if !ok {
				if !got.TraceID.IsZero() || !got.SpanID.IsZero() {
					t.Errorf("rejected header returned non-zero context %+v", got)
				}
				return
			}
			if got.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
				t.Errorf("trace id = %s", got.TraceID)
			}
			if got.SpanID.String() != "00f067aa0ba902b7" {
				t.Errorf("span id = %s", got.SpanID)
			}
			if got.Sampled != tc.sampled {
				t.Errorf("sampled = %v, want %v", got.Sampled, tc.sampled)
			}
		})
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics, and a header it
// accepts carries non-zero ids and round-trips through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	for _, tc := range traceparentCases {
		f.Add(tc.header)
	}
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			return
		}
		if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted zero ids: %+v", header, tc)
		}
		if back, ok := ParseTraceparent(tc.Traceparent()); !ok || back != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v does not round-trip: %q -> %+v, %v",
				header, tc, tc.Traceparent(), back, ok)
		}
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	SeedTraceIDs(42)
	tc := NewTraceContext()
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		t.Fatalf("generated context has zero ids: %+v", tc)
	}
	if !tc.Sampled {
		t.Fatalf("generated context must be sampled")
	}
	back, ok := ParseTraceparent(tc.Traceparent())
	if !ok || back != tc {
		t.Fatalf("round trip: %+v -> %q -> %+v (ok=%v)", tc, tc.Traceparent(), back, ok)
	}
	// Determinism under seeding: the same seed yields the same sequence.
	SeedTraceIDs(42)
	if again := NewTraceContext(); again != tc {
		t.Fatalf("seeded generation not deterministic: %+v vs %+v", again, tc)
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	blob, err := json.Marshal(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Fatalf("ids must marshal as hex strings: %s", blob)
	}
	var back TraceContext
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("json round trip: %+v -> %+v", tc, back)
	}
}

// synthEvents drives a recorder through a plausible evaluation: session,
// plan, one stage with two batches, session end.
func synthEvents(r *SpanRecorder, base time.Time, errDetail string) {
	r.Emit(Event{Kind: EvSessionBegin, Time: base, Stage: -1, Worker: RuntimeLane, Elems: 3})
	r.Emit(Event{Kind: EvPlan, Time: base.Add(time.Millisecond), Dur: time.Millisecond, Stage: -1, Worker: RuntimeLane, Stages: 1})
	r.Emit(Event{Kind: EvStageBegin, Time: base.Add(time.Millisecond), Stage: 0, Calls: "a -> b", Split: "f64", Elems: 100, BatchElems: 50, Workers: 2})
	r.Emit(Event{Kind: EvBatch, Time: base.Add(2 * time.Millisecond), Dur: time.Millisecond, Stage: 0, Worker: 0, Start: 0, End: 50})
	r.Emit(Event{Kind: EvBatch, Time: base.Add(2 * time.Millisecond), Dur: time.Millisecond, Stage: 0, Worker: 1, Start: 50, End: 100})
	r.Emit(Event{Kind: EvStageEnd, Time: base.Add(3 * time.Millisecond), Dur: 2 * time.Millisecond, Stage: 0, Calls: "a -> b"})
	r.Emit(Event{Kind: EvSessionEnd, Time: base.Add(3 * time.Millisecond), Dur: 3 * time.Millisecond, Stage: -1, Worker: RuntimeLane, Detail: errDetail})
}

func TestSpanRecorderTree(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "POST /v1/eval")
	base := time.Now()
	synthEvents(rec, base, "")
	rec.Annotate("tenant", "alpha")
	tr := rec.Finish("")

	// Root + session + plan + stage + 2 batches = 6 spans.
	if len(tr.Spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(tr.Spans))
	}
	if tr.TraceID != tc.TraceID {
		t.Fatalf("trace id %s, want %s", tr.TraceID, tc.TraceID)
	}
	root := tr.RootSpan()
	if root.Name != "POST /v1/eval" || root.Parent != tc.SpanID {
		t.Fatalf("root %q parented on %s, want POST /v1/eval under %s", root.Name, root.Parent, tc.SpanID)
	}
	// The tree: session under root, stage under session, batches under stage.
	byName := map[string]Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	sess, stage := byName["session"], byName["stage 0 [a -> b]"]
	if sess.Parent != root.SpanID {
		t.Errorf("session parented on %s, want root %s", sess.Parent, root.SpanID)
	}
	if stage.Parent != sess.SpanID {
		t.Errorf("stage parented on %s, want session %s", stage.Parent, sess.SpanID)
	}
	if b := byName["batch [0:50]"]; b.Parent != stage.SpanID {
		t.Errorf("batch parented on %s, want stage %s", b.Parent, stage.SpanID)
	}
	if stage.Dur() != 2*time.Millisecond {
		t.Errorf("stage dur %v, want 2ms (backfilled from EvStageEnd)", stage.Dur())
	}
	// Span ids must be unique and non-zero.
	seen := map[SpanID]bool{}
	for _, s := range tr.Spans {
		if s.SpanID.IsZero() || seen[s.SpanID] {
			t.Fatalf("bad span id %s (zero or duplicate)", s.SpanID)
		}
		seen[s.SpanID] = true
	}
	// Finish is idempotent.
	if tr2 := rec.Finish("late"); len(tr2.Spans) != len(tr.Spans) || tr2.RootSpan().Err != "" {
		t.Fatalf("second Finish mutated the trace")
	}

	var buf bytes.Buffer
	tr.RenderTree(&buf)
	tree := buf.String()
	for _, want := range []string{"trace 4bf92f3577b34da6a3ce929d0e0e4736 (6 spans", "- POST /v1/eval", "  - session", "    - stage 0 [a -> b]", "      - batch [0:50]", `tenant="alpha"`} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanRecorderErrorPropagation(t *testing.T) {
	SeedTraceIDs(7)
	rec := NewSpanRecorder(NewTraceContext(), "req")
	synthEvents(rec, time.Now(), "stage 0: boom")
	tr := rec.Finish("boom")
	if tr.RootSpan().Err != "boom" {
		t.Errorf("root err %q, want boom", tr.RootSpan().Err)
	}
	var sessionErr string
	for _, s := range tr.Spans {
		if s.Name == "session" {
			sessionErr = s.Err
		}
	}
	if sessionErr != "stage 0: boom" {
		t.Errorf("session err %q, want the EvSessionEnd detail", sessionErr)
	}
}

func TestSpanRingEvictionAndLookup(t *testing.T) {
	SeedTraceIDs(1)
	ring := NewSpanRing(2)
	var ids []string
	for i := 0; i < 3; i++ {
		rec := NewSpanRecorder(NewTraceContext(), "req")
		ids = append(ids, rec.TraceID().String())
		ring.Add(rec.Finish(""))
	}
	if ring.Len() != 2 {
		t.Fatalf("len = %d, want 2", ring.Len())
	}
	if _, ok := ring.Get(ids[0]); ok {
		t.Errorf("oldest trace %s should have been evicted", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := ring.Get(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
	if _, ok := ring.Get("zz"); ok {
		t.Errorf("malformed id must miss")
	}
	sums := ring.Summaries()
	if len(sums) != 2 || sums[0].TraceID != ids[1] || sums[1].TraceID != ids[2] {
		t.Errorf("summaries out of order: %+v", sums)
	}
}

func TestWriteOTLPShape(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "POST /v1/eval")
	synthEvents(rec, time.Now(), "")
	tr := rec.Finish("")

	var buf bytes.Buffer
	if err := tr.WriteOTLP(&buf, "mozartd"); err != nil {
		t.Fatal(err)
	}
	var export struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID           string `json:"traceId"`
					SpanID            string `json:"spanId"`
					ParentSpanID      string `json:"parentSpanId"`
					Kind              int    `json:"kind"`
					StartTimeUnixNano string `json:"startTimeUnixNano"`
					Status            struct {
						Code int `json:"code"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &export); err != nil {
		t.Fatalf("OTLP output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(export.ResourceSpans) != 1 {
		t.Fatalf("want 1 resourceSpans, got %d", len(export.ResourceSpans))
	}
	rs := export.ResourceSpans[0]
	if got := rs.Resource.Attributes[0].Value.StringValue; got != "mozartd" {
		t.Errorf("service.name = %q", got)
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != 6 {
		t.Fatalf("want 6 spans, got %d", len(spans))
	}
	var sawServer bool
	for _, s := range spans {
		if s.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("span trace id %q", s.TraceID)
		}
		if len(s.SpanID) != 16 {
			t.Errorf("span id %q not 16 hex digits", s.SpanID)
		}
		if s.StartTimeUnixNano == "" {
			t.Errorf("span missing stringified start time")
		}
		if s.Kind == 2 {
			sawServer = true
		}
		if s.Status.Code != 1 {
			t.Errorf("ok span status code %d, want 1", s.Status.Code)
		}
	}
	if !sawServer {
		t.Errorf("root span must have SERVER kind (2)")
	}
}

// TestSpanRecorderConcurrent exercises Emit from parallel workers under
// -race: batch events race the stage bookkeeping.
func TestSpanRecorderConcurrent(t *testing.T) {
	SeedTraceIDs(99)
	rec := NewSpanRecorder(NewTraceContext(), "req")
	base := time.Now()
	rec.Emit(Event{Kind: EvSessionBegin, Time: base, Stage: -1, Worker: RuntimeLane})
	rec.Emit(Event{Kind: EvStageBegin, Time: base, Stage: 0, Calls: "a", Split: "f64"})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				rec.Emit(Event{Kind: EvBatch, Time: base.Add(time.Millisecond), Dur: time.Millisecond,
					Stage: 0, Worker: w, Start: int64(i), End: int64(i + 1)})
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	rec.Emit(Event{Kind: EvStageEnd, Time: base.Add(time.Second), Dur: time.Second, Stage: 0})
	rec.Emit(Event{Kind: EvSessionEnd, Time: base.Add(time.Second), Dur: time.Second, Stage: -1, Worker: RuntimeLane})
	tr := rec.Finish("")
	// root + session + stage + 200 batches
	if len(tr.Spans) != 203 {
		t.Fatalf("got %d spans, want 203", len(tr.Spans))
	}
}
