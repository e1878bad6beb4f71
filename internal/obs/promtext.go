package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) over a Metrics sink. The
// renderer is dependency-free on purpose: the repo cannot vendor a client
// library, and the text format is small enough to emit directly. Every
// value is rendered straight from one MetricsSnapshot, so a scrape is
// internally consistent and a test can hold the output value-for-value
// equal to Snapshot().
//
// Naming follows Prometheus conventions: monotonically accumulating
// fields are `_total` counters, last-observed shape fields (batch size,
// workers, cache utilization) are gauges, and the evaluate latency is a
// classic cumulative histogram. Per-stage series are labeled by
// {stage, calls, split} — the same identity Metrics aggregates rows by.

// promStageCounters lists the per-stage counter fields in render order:
// name suffix, help text, and the value accessor.
var promStageCounters = []struct {
	name string
	help string
	val  func(*StageMetrics) float64
}{
	{"stage_runs_total", "Stage executions (one per evaluation).", func(s *StageMetrics) float64 { return float64(s.Runs) }},
	{"stage_batches_total", "Batches executed.", func(s *StageMetrics) float64 { return float64(s.Batches) }},
	{"stage_elems_total", "Elements processed.", func(s *StageMetrics) float64 { return float64(s.Elems) }},
	{"stage_bytes_total", "Bytes moved under the paper's 5.2 model.", func(s *StageMetrics) float64 { return float64(s.Bytes) }},
	{"stage_split_seconds_total", "Time in splitters' Split.", func(s *StageMetrics) float64 { return ns(s.SplitNS) }},
	{"stage_task_seconds_total", "Time in library calls.", func(s *StageMetrics) float64 { return ns(s.TaskNS) }},
	{"stage_merge_seconds_total", "Time in splitters' Merge.", func(s *StageMetrics) float64 { return ns(s.MergeNS) }},
	{"stage_retries_total", "Batch replays after transient faults.", func(s *StageMetrics) float64 { return float64(s.Retries) }},
	{"stage_fallbacks_total", "Whole-call fallback re-executions.", func(s *StageMetrics) float64 { return float64(s.Fallbacks) }},
	{"stage_admission_wait_seconds_total", "Time waiting on the memory governor.", func(s *StageMetrics) float64 { return ns(s.AdmissionWaitNS) }},
	{"stage_errors_total", "Stage executions that ended in an error.", func(s *StageMetrics) float64 { return float64(s.Errors) }},
}

// promStageGauges lists the last-observed per-stage shape fields.
var promStageGauges = []struct {
	name string
	help string
	val  func(*StageMetrics) float64
}{
	{"stage_batch_elems", "Last chosen batch size in elements.", func(s *StageMetrics) float64 { return float64(s.BatchElems) }},
	{"stage_workers", "Last worker count.", func(s *StageMetrics) float64 { return float64(s.Workers) }},
	{"stage_cache_utilization", "Batch working set over the C*L2 target.", func(s *StageMetrics) float64 { return s.CacheUtilization }},
}

func ns(v int64) float64 { return float64(v) / 1e9 }

// WritePrometheus renders one consistent snapshot of the sink in the
// Prometheus text exposition format. Mount it on an HTTP mux via
// internal/obs/httpdebug, or call it directly from a custom handler.
func (m *Metrics) WritePrometheus(w io.Writer) (int64, error) {
	return m.Snapshot().WritePrometheus(w)
}

// WriteOpenMetrics renders the snapshot in the OpenMetrics text format:
// the same families, with counter family metadata stripped of the _total
// suffix, histogram-bucket exemplars carrying trace ids, and the required
// `# EOF` terminator. Serve it under the application/openmetrics-text
// content type (internal/obs/httpdebug negotiates this on /metrics).
func (m *Metrics) WriteOpenMetrics(w io.Writer) (int64, error) {
	return m.Snapshot().WriteOpenMetrics(w)
}

// PrometheusText renders the snapshot to a string (tests, debugging).
func (m *Metrics) PrometheusText() string {
	var b strings.Builder
	m.WritePrometheus(&b)
	return b.String()
}

// OpenMetricsText renders the OpenMetrics exposition to a string.
func (m *Metrics) OpenMetricsText() string {
	var b strings.Builder
	m.WriteOpenMetrics(&b)
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text format.
func (sn MetricsSnapshot) WritePrometheus(w io.Writer) (int64, error) {
	return sn.write(w, false)
}

// WriteOpenMetrics renders the snapshot in the OpenMetrics text format.
func (sn MetricsSnapshot) WriteOpenMetrics(w io.Writer) (int64, error) {
	return sn.write(w, true)
}

func (sn MetricsSnapshot) write(w io.Writer, openMetrics bool) (int64, error) {
	var b strings.Builder

	header := func(name, typ, help string) {
		meta := name
		// OpenMetrics family metadata names a counter without its _total
		// sample suffix.
		if openMetrics && typ == "counter" {
			meta = strings.TrimSuffix(name, "_total")
		}
		fmt.Fprintf(&b, "# HELP mozart_%s %s\n# TYPE mozart_%s %s\n", meta, help, meta, typ)
	}

	header("evaluations_total", "counter", "Evaluate rounds observed.")
	fmt.Fprintf(&b, "mozart_evaluations_total %s\n", promFloat(float64(sn.Evaluations)))
	header("evaluation_errors_total", "counter", "Evaluate rounds that ended in an error.")
	fmt.Fprintf(&b, "mozart_evaluation_errors_total %s\n", promFloat(float64(sn.Errors)))

	if len(sn.Breaker) > 0 {
		header("breaker_transitions_total", "counter", "Circuit-breaker state transitions by new state.")
		states := make([]string, 0, len(sn.Breaker))
		for s := range sn.Breaker {
			states = append(states, s)
		}
		sort.Strings(states)
		for _, s := range states {
			fmt.Fprintf(&b, "mozart_breaker_transitions_total{state=%q} %s\n", s, promFloat(float64(sn.Breaker[s])))
		}
	}

	if len(sn.Pressure) > 0 {
		header("pressure_transitions_total", "counter", "Governor pressure-level transitions by level entered.")
		levels := make([]string, 0, len(sn.Pressure))
		for l := range sn.Pressure {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		for _, l := range levels {
			fmt.Fprintf(&b, "mozart_pressure_transitions_total{level=%q} %s\n", l, promFloat(float64(sn.Pressure[l])))
		}
	}

	if sn.SpillFrames > 0 {
		header("spill_bytes_total", "counter", "Out-of-core merge-partial payload bytes written to the spill store.")
		fmt.Fprintf(&b, "mozart_spill_bytes_total %s\n", promFloat(float64(sn.SpillBytes)))
		header("spill_frames_total", "counter", "Out-of-core merge-partial frames written to the spill store.")
		fmt.Fprintf(&b, "mozart_spill_frames_total %s\n", promFloat(float64(sn.SpillFrames)))
	}

	// Tuner families (Options.Tuner): rendered only for sessions that
	// closed the telemetry→plan loop, so untuned sessions emit nothing.
	if len(sn.Tuner) > 0 {
		header("tuner_evaluations_total", "counter", "Evaluations by batch provenance (static, sweeping, calibrated).")
		provs := make([]string, 0, len(sn.Tuner))
		for p := range sn.Tuner {
			provs = append(provs, p)
		}
		sort.Strings(provs)
		for _, p := range provs {
			fmt.Fprintf(&b, "mozart_tuner_evaluations_total{provenance=%q} %s\n", p, promFloat(float64(sn.Tuner[p])))
		}
		header("tuner_batch_elems", "gauge", "Last tuner batch override in elements (0 = static policy).")
		fmt.Fprintf(&b, "mozart_tuner_batch_elems %s\n", promFloat(float64(sn.TunerBatchElems)))
		header("tuner_elems_per_second", "gauge", "Last evaluation's measured throughput fed back to the tuner.")
		fmt.Fprintf(&b, "mozart_tuner_elems_per_second %s\n", promFloat(sn.TunerElemsPerSec))
	}

	// Registered live function metrics (Governor reserved bytes, SLO burn
	// rates and the like), grouped by family name so samples of one family
	// stay consecutive.
	for i := 0; i < len(sn.Gauges); {
		g := sn.Gauges[i]
		typ := g.Type
		if typ == "" {
			typ = "gauge"
		}
		header(g.Name, typ, g.Help)
		for ; i < len(sn.Gauges) && sn.Gauges[i].Name == g.Name; i++ {
			fmt.Fprintf(&b, "mozart_%s%s %s\n", sn.Gauges[i].Name, sn.Gauges[i].Labels, promFloat(sn.Gauges[i].Value))
		}
	}

	// Evaluate latency histogram (cumulative, Prometheus convention). In
	// OpenMetrics mode each bucket carries its last traced observation as
	// an exemplar: `# {trace_id="..."} value timestamp`.
	h := sn.EvalLatency
	if h.Count > 0 {
		header("evaluate_duration_seconds", "histogram", "Wall-clock duration of Evaluate rounds.")
		exemplar := func(bucket int) string {
			if !openMetrics || bucket >= len(h.Exemplars) {
				return ""
			}
			ex := h.Exemplars[bucket]
			if ex.TraceID == "" {
				return ""
			}
			return fmt.Sprintf(" # {trace_id=%q} %s %.3f", ex.TraceID, promFloat(ex.Value), float64(ex.Time.UnixMilli())/1e3)
		}
		var cum int64
		for i, le := range h.BucketsLE {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "mozart_evaluate_duration_seconds_bucket{le=%q} %d%s\n", promFloat(le), cum, exemplar(i))
		}
		fmt.Fprintf(&b, "mozart_evaluate_duration_seconds_bucket{le=\"+Inf\"} %d%s\n", h.Count, exemplar(len(h.BucketsLE)))
		fmt.Fprintf(&b, "mozart_evaluate_duration_seconds_sum %s\n", promFloat(h.SumSeconds))
		fmt.Fprintf(&b, "mozart_evaluate_duration_seconds_count %d\n", h.Count)
	}

	// Per-stage series, one metric family at a time (the exposition format
	// requires all samples of a family to be consecutive).
	stageSeries := func(fams []struct {
		name string
		help string
		val  func(*StageMetrics) float64
	}, typ string) {
		for _, fam := range fams {
			wrote := false
			for i := range sn.Stages {
				s := &sn.Stages[i]
				if !wrote {
					header(fam.name, typ, fam.help)
					wrote = true
				}
				fmt.Fprintf(&b, "mozart_%s{stage=\"%d\",calls=%q,split=%q} %s\n",
					fam.name, s.Stage, s.Calls, s.Split, promFloat(fam.val(s)))
			}
		}
	}
	stageSeries(promStageCounters, "counter")
	stageSeries(promStageGauges, "gauge")

	if openMetrics {
		b.WriteString("# EOF\n")
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// promFloat renders a sample value: integers without an exponent, other
// values via the shortest round-trip representation (%g-style), matching
// what Prometheus' own text parser accepts.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
