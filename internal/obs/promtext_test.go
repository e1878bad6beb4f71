package obs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promFeed extends the canonical event feed with the telemetry-only kinds:
// a second evaluation that ends in an error (so the errors counter and a
// second histogram observation are exercised), an out-of-core pressure
// episode, and tuner feedback.
func promFeed(base time.Time) []Event {
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	feed := fixedFeed(base)
	feed = append(feed,
		Event{Kind: EvSessionBegin, Time: at(20), Stage: -1, Worker: RuntimeLane, Elems: 1},
		Event{Kind: EvSessionEnd, Time: at(31), Dur: 11 * time.Millisecond, Stage: -1,
			Worker: RuntimeLane, Detail: "stage 0: injected fault"},
		// Out-of-core pressure episode: enter out-of-core, spill two window
		// partials (plus a replay, which must not double-count), recover.
		Event{Kind: EvPressure, Time: at(32), Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Bytes: 4096, Detail: "out-of-core"},
		Event{Kind: EvSpill, Time: at(33), Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Split: "SizeSplit<100>", Start: 0, End: 50, Bytes: 400, Detail: "append"},
		Event{Kind: EvSpill, Time: at(34), Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Split: "SizeSplit<100>", Start: 50, End: 100, Bytes: 400, Detail: "append"},
		Event{Kind: EvSpill, Time: at(35), Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Split: "SizeSplit<100>", Bytes: 800, Elems: 2, Detail: "replay"},
		Event{Kind: EvPressure, Time: at(36), Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Bytes: 0, Detail: "normal"},
		// Tuner feedback: one static baseline evaluation and one sweep probe
		// (so mozart_tuner_evaluations_total has two provenance series and
		// the batch/throughput gauges carry the last observation).
		Event{Kind: EvTune, Time: at(40), Dur: 10 * time.Millisecond, Stage: -1,
			Worker: RuntimeLane, Elems: 1000, Bytes: 8000, Workers: 4, Detail: "static"},
		Event{Kind: EvTune, Time: at(41), Dur: 5 * time.Millisecond, Stage: -1,
			Worker: RuntimeLane, Elems: 1000, Bytes: 8000, BatchElems: 2048, Workers: 4, Detail: "sweeping"},
	)
	return feed
}

// promSinkWithGauges builds the canonical prom test sink: the promFeed
// events plus two registered governor gauges (global and per-tenant carve).
func promSinkWithGauges() *Metrics {
	m := NewMetrics()
	m.RegisterGauge("governor_reserved_bytes", "Bytes currently reserved against the governor budget.",
		map[string]string{"scope": "global"}, func() float64 { return 4096 })
	m.RegisterGauge("governor_reserved_bytes", "Bytes currently reserved against the governor budget.",
		map[string]string{"scope": "tenant", "tenant": "alpha"}, func() float64 { return 1024 })
	for _, e := range promFeed(time.Unix(0, 0)) {
		m.Emit(e)
	}
	return m
}

// TestPrometheusGolden locks the exact text-exposition rendering.
// Regenerate with `go test ./internal/obs -update` after an intentional
// format change.
func TestPrometheusGolden(t *testing.T) {
	m := promSinkWithGauges()
	got := []byte(m.PrometheusText())

	golden := filepath.Join("testdata", "promtext.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("prometheus text differs from %s;\ngot:\n%s", golden, got)
	}
}

// parseProm parses the text exposition format into sample name (including
// the label block, verbatim) -> value.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		key := line[:sp]
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples
}

// TestPrometheusMatchesSnapshot holds the /metrics rendering value-for-value
// equal to Metrics.Snapshot, including the simulated hardware-counter
// fields. Every snapshot field with a Prometheus series must round-trip
// exactly; every rendered sample must be accounted for.
func TestPrometheusMatchesSnapshot(t *testing.T) {
	m := promSinkWithGauges()
	sn := m.Snapshot()
	samples := parseProm(t, m.PrometheusText())

	want := map[string]float64{
		"mozart_evaluations_total":       float64(sn.Evaluations),
		"mozart_evaluation_errors_total": float64(sn.Errors),
	}
	for state, n := range sn.Breaker {
		want[fmt.Sprintf("mozart_breaker_transitions_total{state=%q}", state)] = float64(n)
	}
	for level, n := range sn.Pressure {
		want[fmt.Sprintf("mozart_pressure_transitions_total{level=%q}", level)] = float64(n)
	}
	if sn.SpillFrames > 0 {
		want["mozart_spill_bytes_total"] = float64(sn.SpillBytes)
		want["mozart_spill_frames_total"] = float64(sn.SpillFrames)
	}
	for prov, n := range sn.Tuner {
		want[fmt.Sprintf("mozart_tuner_evaluations_total{provenance=%q}", prov)] = float64(n)
	}
	if len(sn.Tuner) > 0 {
		want["mozart_tuner_batch_elems"] = float64(sn.TunerBatchElems)
		want["mozart_tuner_elems_per_second"] = sn.TunerElemsPerSec
	}
	for _, g := range sn.Gauges {
		want["mozart_"+g.Name+g.Labels] = g.Value
	}

	h := sn.EvalLatency
	var cum int64
	for i, le := range h.BucketsLE {
		cum += h.Counts[i]
		want[fmt.Sprintf("mozart_evaluate_duration_seconds_bucket{le=%q}", promFloat(le))] = float64(cum)
	}
	want[`mozart_evaluate_duration_seconds_bucket{le="+Inf"}`] = float64(h.Count)
	want["mozart_evaluate_duration_seconds_sum"] = h.SumSeconds
	want["mozart_evaluate_duration_seconds_count"] = float64(h.Count)

	for i := range sn.Stages {
		s := &sn.Stages[i]
		labels := fmt.Sprintf("{stage=\"%d\",calls=%q,split=%q}", s.Stage, s.Calls, s.Split)
		for _, fam := range promStageCounters {
			want["mozart_"+fam.name+labels] = fam.val(s)
		}
		for _, fam := range promStageGauges {
			want["mozart_"+fam.name+labels] = fam.val(s)
		}
	}

	for key, wv := range want {
		gv, ok := samples[key]
		if !ok {
			t.Errorf("missing sample %s", key)
			continue
		}
		if gv != wv && math.Abs(gv-wv) > 1e-12 {
			t.Errorf("%s = %v, want %v (snapshot)", key, gv, wv)
		}
		delete(samples, key)
	}
	for key, v := range samples {
		t.Errorf("unaccounted sample %s = %v", key, v)
	}
}

// TestPrometheusSimGatedOnCounters: /metrics reports only measured
// quantities. The memsim model lives beside the runtime (planlower), so a
// scrape of the full telemetry feed renders no simulated-counter family.
func TestPrometheusSimGatedOnCounters(t *testing.T) {
	m := NewMetrics()
	for _, e := range promFeed(time.Unix(0, 0)) {
		m.Emit(e)
	}
	if text := m.PrometheusText(); strings.Contains(text, "_sim_") {
		t.Errorf("simulated series rendered:\n%s", text)
	}
}

// TestPublishIdempotent: expvar panics on duplicate names; Publish must be
// a guarded no-op the second time — including when a different variable
// already owns the name.
func TestPublishIdempotent(t *testing.T) {
	m := NewMetrics()
	m.Publish("mozart_obs_test_publish_idempotent")
	m.Publish("mozart_obs_test_publish_idempotent") // must not panic

	m2 := NewMetrics()
	m2.Publish("mozart_obs_test_publish_idempotent") // name taken: no-op
}

func TestLatencyHistogramObserve(t *testing.T) {
	var h LatencyHistogram
	h.observe(0.0002, nil) // bucket le=0.00025
	h.observe(0.003, nil)  // bucket le=0.005
	h.observe(99, nil)     // above every bound: only Count/Sum
	if h.Count != 3 {
		t.Errorf("count = %d, want 3", h.Count)
	}
	if got := h.SumSeconds; math.Abs(got-99.0032) > 1e-9 {
		t.Errorf("sum = %v, want 99.0032", got)
	}
	var inBuckets int64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if inBuckets != 2 {
		t.Errorf("bucketed observations = %d, want 2 (one above all bounds)", inBuckets)
	}
}
