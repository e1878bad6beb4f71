package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mozart/internal/obs"
)

// collector is the benchmark's own obs.Tracer: it keeps one evaluation's
// runtime events, which breakdown and spans read after the evaluation. It
// goes in through the public Options.Tracer seam, so nothing inside the
// program changes for the traced pass.
type collector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// breakdown is one traced evaluation folded by layer, in seconds and counts.
// Split, task and batch time are summed over workers; everything else is
// wall time on the coordinating goroutine.
type breakdown struct {
	wall       float64
	capture    float64 // operation start to the first session-begin event
	plan       float64
	stageWall  float64
	split      float64
	task       float64
	batchDur   float64
	merge      float64
	admission  float64
	batches    float64
	stages     float64
	batchElems float64 // batch size of the first split stage
	imbalance  float64 // busiest worker's batch time over the mean
	spillN     float64
	spillBytes float64
}

// unaccounted is the wall time no span claims: after capture, planning and
// the stages, what is left is session bookkeeping between them and reading
// the results out.
func (b breakdown) unaccounted() float64 {
	return b.wall - b.capture - b.plan - b.stageWall
}

func fold(events []obs.Event, start time.Time, wall time.Duration) breakdown {
	b := breakdown{wall: wall.Seconds()}
	busy := map[int]float64{}
	began := false
	for _, e := range events {
		switch e.Kind {
		case obs.EvSessionBegin:
			if !began {
				b.capture = e.Time.Sub(start).Seconds()
				began = true
			}
		case obs.EvPlan:
			b.plan += e.Dur.Seconds()
			b.stages += float64(e.Stages)
		case obs.EvStageBegin:
			if b.batchElems == 0 {
				b.batchElems = float64(e.BatchElems)
			}
		case obs.EvStageEnd:
			b.stageWall += e.Dur.Seconds()
		case obs.EvBatch:
			b.batches++
			b.split += float64(e.SplitNS) / 1e9
			b.task += float64(e.TaskNS) / 1e9
			b.batchDur += e.Dur.Seconds()
			busy[e.Worker] += e.Dur.Seconds()
		case obs.EvMerge:
			b.merge += e.Dur.Seconds()
		case obs.EvAdmission:
			b.admission += e.Dur.Seconds()
		case obs.EvSpill:
			if e.Detail == "append" {
				b.spillN++
				b.spillBytes += float64(e.Bytes)
			}
		}
	}
	if len(busy) > 0 {
		var sum, top float64
		for _, v := range busy {
			sum += v
			top = max(top, v)
		}
		b.imbalance = ratio(top, sum/float64(len(busy)))
	}
	return b
}

// addTo records the breakdown as one sample of each per-layer metric.
func (b breakdown) addTo(s samples) {
	s.add("mozart.capture_s", b.capture)
	s.add("plan.plan_s", b.plan)
	s.add("plan.stages", b.stages)
	s.add("plan.batch_elems", b.batchElems)
	s.add("core.stage_wall_s", b.stageWall)
	s.add("core.batches", b.batches)
	s.add("core.split_s", b.split)
	s.add("core.task_s", b.task)
	s.add("core.batch_overhead_s", b.batchDur-b.split-b.task)
	s.add("core.merge_s", b.merge)
	s.add("core.admission_wait_s", b.admission)
	s.add("core.worker_imbalance", b.imbalance)
	s.add("core.unaccounted_s", b.unaccounted())
	s.add("spill.frames", b.spillN)
	s.add("spill.bytes", b.spillBytes)
}

// ---- spans ----

// span is one interval at a layer boundary. Spans of one evaluation or
// request share Trace; Parent is the span that caused this one, 0 for a root.
type span struct {
	Workload string `json:"workload"`
	Trace    int64  `json:"trace"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"` // since the benchmark process started
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus the part child spans cover
	Worker   int    `json:"worker"`  // obs.RuntimeLane (-1) for the coordinating goroutine
}

// maxTraces bounds the traces kept per workload: tiny_pipeline and
// serve_small trace tens of thousands of operations, and the first few
// hundred show the shape.
const maxTraces = 200

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	epoch    time.Time
	workload string
	traces   int
	spans    []span
}

// begin opens a trace for the current workload and reports whether it will
// be kept. A nil log keeps nothing.
func (l *spanLog) begin() (trace int64, keep bool) {
	if l == nil || l.traces >= maxTraces {
		return 0, false
	}
	l.traces++
	return int64(l.traces), true
}

func (l *spanLog) setWorkload(name string) {
	if l != nil {
		l.workload, l.traces = name, 0
	}
}

// add appends a span; ids count from 1 in append order. An event carries its
// end time and its duration from two separate clock reads, so a goroutine
// descheduled between them reports a start some microseconds early: a child
// is clipped to its parent's interval, which is where it ran.
func (l *spanLog) add(trace, parent int64, name, layer string, start, end time.Time, worker int) int64 {
	s := span{
		Workload: l.workload, Trace: trace, ID: int64(len(l.spans)) + 1, Parent: parent, Name: name, Layer: layer,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(), Worker: worker,
	}
	if parent != 0 {
		p := l.spans[parent-1]
		s.StartNS = min(max(s.StartNS, p.StartNS), p.EndNS)
		s.EndNS = max(min(s.EndNS, p.EndNS), s.StartNS)
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// addEval records the span tree of one evaluation under parent: a root span
// of the given name over [start, end], then capture, plan and one span per
// stage, whose children are its admission waits, batches and merges.
func (l *spanLog) addEval(trace, parent int64, name, layer string, events []obs.Event, start, end time.Time) {
	root := l.add(trace, parent, name, layer, start, end, obs.RuntimeLane)
	stage := map[int]int64{}
	began := false
	// Stage spans first: their children arrive earlier in the stream than
	// the stage-end event that carries the stage's extent.
	for _, e := range events {
		if e.Kind == obs.EvStageEnd {
			stage[e.Stage] = l.add(trace, root, fmt.Sprintf("stage[%d]", e.Stage), "core", e.Time.Add(-e.Dur), e.Time, obs.RuntimeLane)
		}
	}
	under := func(e obs.Event) int64 {
		if id, ok := stage[e.Stage]; ok {
			return id
		}
		return root
	}
	for _, e := range events {
		from := e.Time.Add(-e.Dur)
		switch e.Kind {
		case obs.EvSessionBegin:
			if !began {
				l.add(trace, root, "capture", "mozart", start, e.Time, obs.RuntimeLane)
				began = true
			}
		case obs.EvPlan:
			l.add(trace, root, "plan", "plan", from, e.Time, obs.RuntimeLane)
		case obs.EvBatch:
			l.add(trace, under(e), fmt.Sprintf("batch[%d:%d]", e.Start, e.End), "core", from, e.Time, e.Worker)
		case obs.EvMerge:
			l.add(trace, under(e), "merge", "core", from, e.Time, e.Worker)
		case obs.EvAdmission:
			l.add(trace, under(e), "admission", "core", from, e.Time, obs.RuntimeLane)
		case obs.EvSpill:
			l.add(trace, under(e), "spill-"+e.Detail, "spill", e.Time, e.Time, obs.RuntimeLane)
		}
	}
}

// selfTimes fills SelfNS: a span's duration minus the union of the
// intervals its children cover (children of one stage overlap, one lane per
// worker).
func selfTimes(spans []span) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	for i := range spans {
		iv := children[spans[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, until int64
		until = spans[i].StartNS
		for _, c := range iv {
			lo, hi := max(c[0], until), min(c[1], spans[i].EndNS)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		spans[i].SelfNS = spans[i].EndNS - spans[i].StartNS - covered
	}
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	selfTimes(l.spans)
	buf, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"mozart-benchmark-spans/v1", l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
