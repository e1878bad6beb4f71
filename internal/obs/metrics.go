package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// StageMetrics aggregates the counters of one plan stage (identified by
// stage index and call pipeline, so repeated evaluations of the same
// program accumulate into the same row).
type StageMetrics struct {
	Stage int    `json:"stage"`
	Calls string `json:"calls"`
	Split string `json:"split"`

	Runs    int64 `json:"runs"`    // stage executions (one per evaluation)
	Batches int64 `json:"batches"` // batches executed
	Elems   int64 `json:"elems"`   // elements processed
	Bytes   int64 `json:"bytes"`   // bytes moved under the §5.2 model

	BatchElems int64 `json:"batch_elems"` // last chosen batch size
	Workers    int   `json:"workers"`     // last worker count
	// CacheUtilization is the batch working set (batch × Σ elem bytes)
	// over the heuristic's C×L2 target: 1.0 means the batch exactly fills
	// the budget; <1 means admission control or a small input shrank it.
	CacheUtilization float64 `json:"cache_utilization"`

	SplitNS int64 `json:"split_ns"`
	TaskNS  int64 `json:"task_ns"`
	MergeNS int64 `json:"merge_ns"`

	Retries         int64 `json:"retries"`
	Fallbacks       int64 `json:"fallbacks"`
	AdmissionWaitNS int64 `json:"admission_wait_ns"`
	Errors          int64 `json:"errors"`
}

// Throughput is the stage's measured processing rate in elements per
// second: elements processed over the attributed split+task+merge time. 0
// when the stage has recorded no timed work. This is the per-stage feedback
// signal a batch tuner calibrates on.
func (s StageMetrics) Throughput() float64 {
	work := s.SplitNS + s.TaskNS + s.MergeNS
	if work <= 0 || s.Elems <= 0 {
		return 0
	}
	return float64(s.Elems) / (float64(work) / 1e9)
}

// StageThroughputs returns each stage's measured throughput (elems/s),
// keyed "stage|calls" the way the sink itself keys rows; stages with no
// timed work are omitted.
func (sn MetricsSnapshot) StageThroughputs() map[string]float64 {
	out := map[string]float64{}
	for _, s := range sn.Stages {
		if t := s.Throughput(); t > 0 {
			out[fmt.Sprintf("%d|%s", s.Stage, s.Calls)] = t
		}
	}
	return out
}

// evalLatencyBucketsLE are the upper bounds, in seconds, of the evaluate
// latency histogram (Prometheus-style cumulative buckets; the implicit
// +Inf bucket is LatencyHistogram.Count).
var evalLatencyBucketsLE = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Exemplar ties one observed latency to the trace that produced it — the
// OpenMetrics exemplar model: a scrape can jump from a histogram bucket
// straight to the span tree of a request that landed in it.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// LatencyHistogram is a fixed-bucket latency distribution. Counts[i] holds
// the observations with latency <= BucketsLE[i] seconds that exceeded
// BucketsLE[i-1]; observations above the last bound are only in Count.
// Exemplars, when present, has len(BucketsLE)+1 entries — one per bucket
// plus +Inf — each the last traced observation that landed there.
type LatencyHistogram struct {
	BucketsLE  []float64  `json:"buckets_le"`
	Counts     []int64    `json:"counts"`
	Count      int64      `json:"count"`
	SumSeconds float64    `json:"sum_seconds"`
	Exemplars  []Exemplar `json:"exemplars,omitempty"`
}

func (h *LatencyHistogram) observe(seconds float64, trace *TraceContext) {
	if h.BucketsLE == nil {
		h.BucketsLE = evalLatencyBucketsLE
		h.Counts = make([]int64, len(evalLatencyBucketsLE))
	}
	h.Count++
	h.SumSeconds += seconds
	bucket := len(h.BucketsLE) // +Inf
	for i, le := range h.BucketsLE {
		if seconds <= le {
			h.Counts[i]++
			bucket = i
			break
		}
	}
	if trace != nil && !trace.TraceID.IsZero() {
		if h.Exemplars == nil {
			h.Exemplars = make([]Exemplar, len(h.BucketsLE)+1)
		}
		h.Exemplars[bucket] = Exemplar{TraceID: trace.TraceID.String(), Value: seconds, Time: time.Now()}
	}
}

// clone returns a deep copy safe to hand out of the sink's lock.
func (h LatencyHistogram) clone() LatencyHistogram {
	h.BucketsLE = append([]float64(nil), h.BucketsLE...)
	h.Counts = append([]int64(nil), h.Counts...)
	h.Exemplars = append([]Exemplar(nil), h.Exemplars...)
	return h
}

// GaugeSample is one evaluated registered function metric (RegisterGauge /
// RegisterFunc): a live value read at snapshot time, e.g. a Governor's
// reserved bytes or a tenant's SLO burn rate.
type GaugeSample struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Type   string  `json:"type,omitempty"`   // exposition type: "" means gauge
	Labels string  `json:"labels,omitempty"` // rendered label block, `{k="v",...}` or ""
	Value  float64 `json:"value"`
}

// MetricsSnapshot is one consistent copy of everything a Metrics sink has
// aggregated.
type MetricsSnapshot struct {
	Evaluations int64          `json:"evaluations"`
	Errors      int64          `json:"errors"`                        // evaluations that ended in an error
	Breaker     map[string]int `json:"breaker_transitions,omitempty"` // state -> count
	// Pressure counts Governor pressure-level transitions by the level
	// entered ("normal", "constrained", "out-of-core").
	Pressure map[string]int `json:"pressure_transitions,omitempty"`
	// SpillBytes/SpillFrames count out-of-core merge partials written to
	// the spill store (EvSpill append events).
	SpillBytes  int64 `json:"spill_bytes,omitempty"`
	SpillFrames int64 `json:"spill_frames,omitempty"`
	// Tuner counts evaluations by batch provenance ("static", "sweeping",
	// "calibrated") — the EvTune stream of a session with Options.Tuner.
	// Empty without a tuner.
	Tuner map[string]int64 `json:"tuner_evals,omitempty"`
	// TunerBatchElems is the last tuner batch override (0 = static policy)
	// and TunerElemsPerSec the last evaluation's measured throughput — the
	// feedback signal the tuner calibrates on.
	TunerBatchElems  int64   `json:"tuner_batch_elems,omitempty"`
	TunerElemsPerSec float64 `json:"tuner_elems_per_sec,omitempty"`
	// Gauges are the registered live gauges, evaluated at snapshot time
	// and sorted by name then labels.
	Gauges []GaugeSample `json:"gauges,omitempty"`
	// EvalLatency is the evaluate-duration distribution (session-end spans).
	EvalLatency LatencyHistogram `json:"eval_latency"`
	Stages      []StageMetrics   `json:"stages"`
}

// Metrics is an aggregating sink: it folds the event stream into per-stage
// counters. Emit is concurrency-safe and does constant work; read the
// result with Snapshot, render it with String, or export it with Publish.
type Metrics struct {
	mu          sync.Mutex
	evals       int64
	errors      int64
	brk         map[string]int
	pressure    map[string]int
	spillBytes  int64
	spillFrames int64
	tune        map[string]int64
	tuneBatch   int64
	tuneThr     float64
	gauges      []registeredGauge
	stages      map[string]*StageMetrics
	latency     LatencyHistogram
}

type registeredGauge struct {
	name, help, labels string
	typ                string // exposition type; "" renders as gauge
	fn                 func() float64
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{brk: map[string]int{}, pressure: map[string]int{}, stages: map[string]*StageMetrics{}}
}

// RegisterGauge registers a live gauge evaluated on every Snapshot (and so
// on every /metrics scrape): fn is called outside the sink's lock and must
// be safe for concurrent use. labels (may be nil) become the sample's label
// block with keys rendered in sorted order. Registering the same
// name+labels twice replaces the previous function.
func (m *Metrics) RegisterGauge(name, help string, labels map[string]string, fn func() float64) {
	m.RegisterFunc(name, help, "gauge", labels, fn)
}

// RegisterFunc is RegisterGauge with an explicit exposition type: "counter"
// for function metrics that only accumulate (their names should end in
// _total by convention), "gauge" for everything else.
func (m *Metrics) RegisterFunc(name, help, typ string, labels map[string]string, fn func() float64) {
	if typ == "" {
		typ = "gauge"
	}
	lb := renderLabels(labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.gauges {
		if m.gauges[i].name == name && m.gauges[i].labels == lb {
			m.gauges[i] = registeredGauge{name: name, help: help, labels: lb, typ: typ, fn: fn}
			return
		}
	}
	m.gauges = append(m.gauges, registeredGauge{name: name, help: help, labels: lb, typ: typ, fn: fn})
}

// renderLabels renders a label map as `{k="v",...}` with sorted keys, or ""
// for an empty map.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (m *Metrics) stage(e Event) *StageMetrics {
	key := fmt.Sprintf("%d|%s", e.Stage, e.Calls)
	sm := m.stages[key]
	if sm == nil {
		sm = &StageMetrics{Stage: e.Stage, Calls: e.Calls}
		m.stages[key] = sm
	}
	return sm
}

// Emit folds one event into the aggregates.
func (m *Metrics) Emit(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case EvSessionBegin:
		m.evals++
	case EvSessionEnd:
		m.latency.observe(e.Dur.Seconds(), e.Trace)
		if e.Detail != "" {
			m.errors++
		}
	case EvStageBegin:
		sm := m.stage(e)
		sm.Runs++
		sm.Split = e.Split
		sm.BatchElems = e.BatchElems
		sm.Workers = e.Workers
		if e.CacheBytes > 0 {
			sm.CacheUtilization = float64(e.BatchElems*e.Bytes) / float64(e.CacheBytes)
		}
	case EvStageEnd:
		if e.Detail != "" {
			m.stage(e).Errors++
		}
	case EvBatch:
		sm := m.stage(e)
		sm.Batches++
		sm.Elems += e.End - e.Start
		sm.Bytes += e.Bytes
		sm.SplitNS += e.SplitNS
		sm.TaskNS += e.TaskNS
	case EvMerge:
		m.stage(e).MergeNS += int64(e.Dur)
	case EvRetry:
		m.stage(e).Retries++
	case EvAdmission:
		sm := m.stage(e)
		sm.AdmissionWaitNS += int64(e.Dur)
	case EvFallback:
		m.stage(e).Fallbacks++
	case EvBreaker:
		m.brk[e.Detail]++
	case EvPressure:
		if m.pressure == nil {
			m.pressure = map[string]int{}
		}
		m.pressure[e.Detail]++
	case EvSpill:
		// Count written frames once; replay events re-read the same bytes.
		if e.Detail == "append" {
			m.spillBytes += e.Bytes
			m.spillFrames++
		}
	case EvTune:
		if m.tune == nil {
			m.tune = map[string]int64{}
		}
		m.tune[e.Detail]++
		m.tuneBatch = e.BatchElems
		if e.Elems > 0 && e.Dur > 0 {
			m.tuneThr = float64(e.Elems) / e.Dur.Seconds()
		}
	}
}

// Snapshot returns a copy of the aggregated metrics, stages sorted by
// index then calls.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	out := MetricsSnapshot{Evaluations: m.evals, Errors: m.errors, EvalLatency: m.latency.clone(),
		SpillBytes: m.spillBytes, SpillFrames: m.spillFrames,
		TunerBatchElems: m.tuneBatch, TunerElemsPerSec: m.tuneThr}
	if len(m.tune) > 0 {
		out.Tuner = make(map[string]int64, len(m.tune))
		for k, v := range m.tune {
			out.Tuner[k] = v
		}
	}
	if len(m.brk) > 0 {
		out.Breaker = make(map[string]int, len(m.brk))
		for k, v := range m.brk {
			out.Breaker[k] = v
		}
	}
	if len(m.pressure) > 0 {
		out.Pressure = make(map[string]int, len(m.pressure))
		for k, v := range m.pressure {
			out.Pressure[k] = v
		}
	}
	gauges := append([]registeredGauge(nil), m.gauges...)
	for _, sm := range m.stages {
		out.Stages = append(out.Stages, *sm)
	}
	m.mu.Unlock()

	// Evaluate registered gauges outside the lock: a gauge function may
	// itself take locks (Governor.InUse) and must not order against Emit.
	for _, g := range gauges {
		out.Gauges = append(out.Gauges, GaugeSample{Name: g.name, Help: g.help, Type: g.typ, Labels: g.labels, Value: g.fn()})
	}
	sort.Slice(out.Gauges, func(i, j int) bool {
		if out.Gauges[i].Name != out.Gauges[j].Name {
			return out.Gauges[i].Name < out.Gauges[j].Name
		}
		return out.Gauges[i].Labels < out.Gauges[j].Labels
	})
	sort.Slice(out.Stages, func(i, j int) bool {
		if out.Stages[i].Stage != out.Stages[j].Stage {
			return out.Stages[i].Stage < out.Stages[j].Stage
		}
		return out.Stages[i].Calls < out.Stages[j].Calls
	})
	return out
}

// String renders the snapshot as a per-stage table.
func (m *Metrics) String() string {
	sn := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "evaluations: %d\n", sn.Evaluations)
	if len(sn.Breaker) > 0 {
		states := make([]string, 0, len(sn.Breaker))
		for k := range sn.Breaker {
			states = append(states, k)
		}
		sort.Strings(states)
		for _, k := range states {
			fmt.Fprintf(&b, "breaker %s: %d\n", k, sn.Breaker[k])
		}
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tcalls\tsplit\tbatches\telems\tbytes\tbatch\tworkers\tcache util\tsplit\ttask\tmerge\tretries\tfallbacks\tadm wait")
	for _, s := range sn.Stages {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\t%v\t%v\t%v\t%d\t%d\t%v\n",
			s.Stage, s.Calls, s.Split, s.Batches, s.Elems, s.Bytes,
			s.BatchElems, s.Workers, s.CacheUtilization,
			time.Duration(s.SplitNS), time.Duration(s.TaskNS), time.Duration(s.MergeNS),
			s.Retries, s.Fallbacks, time.Duration(s.AdmissionWaitNS))
	}
	w.Flush()

	return b.String()
}

// publishMu serializes Publish calls so the exists-check and the
// expvar.Publish are atomic with respect to each other.
var publishMu sync.Mutex

// Publish exports the sink under the given expvar name (served on
// /debug/vars by net/http when expvar is imported). Publish is idempotent:
// expvar panics on duplicate names, so a name that is already taken —
// whether by this sink or another variable — makes Publish a guarded
// no-op instead of crashing the process (two sessions publishing under the
// same default name is the common case).
func (m *Metrics) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}
