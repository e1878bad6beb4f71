package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/serve"
	"mozart/internal/workloads"
)

// serveDef describes one serve workload: which registry workloads its
// requests name, in what proportion, at what scale, and the latency limit a
// request must meet to count as goodput.
type serveDef struct {
	mix   []mixEntry
	limit time.Duration
	size  func(sizes) serveSize
}

type mixEntry struct {
	workload string
	weight   int
}

// request is one generated request and the checksum the unmodified library
// gives for it.
type request struct {
	spec   workloads.Spec
	scale  int
	body   []byte
	expect float64
}

// serveCase is a serve workload after set-up: a seeded request sequence, an
// in-process mozartd on a loopback listener, and one client per connection.
type serveCase struct {
	reqs   []request // the seeded mix, replayed cyclically
	next   int       // index of the next request to send
	limit  time.Duration
	block  int
	plain  *server
	client *http.Client
}

// server is one in-process mozartd. probe is nil on the plain server the
// end-to-end pass measures.
type server struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	done  chan struct{} // closed when Serve has returned
	probe *probe
}

func setupServe(def serveDef, seed int64, sz sizes, workdir string) (*serveCase, error) {
	size := def.size(sz)
	c := &serveCase{limit: def.limit, block: size.block}
	// One entry per (workload, scale); the sequence draws from them.
	var kinds []request
	var weights []int
	for _, m := range def.mix {
		spec, err := workloads.ByName(m.workload)
		if err != nil {
			return nil, err
		}
		scale := size.scale
		expect, err := spec.Run(workloads.Base, workloads.Config{Scale: scale, Threads: 1})
		if err != nil {
			return nil, fmt.Errorf("base %s: %w", m.workload, err)
		}
		body, err := json.Marshal(map[string]any{"workload": m.workload, "scale": scale, "threads": 1, "session": "bench"})
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, request{spec: spec, scale: scale, body: body, expect: expect})
		weights = append(weights, m.weight)
	}
	// The seed decides the order and nothing else: the sequence is made of
	// groups that each hold the mix exactly, shuffled within the group, so
	// every block, whose length is a multiple of the group's, sends the same
	// proportions whatever the seed.
	var group []request
	for k, kind := range kinds {
		for i := 0; i < weights[k]; i++ {
			group = append(group, kind)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(c.reqs) < 4000 {
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		c.reqs = append(c.reqs, group...)
	}
	var err error
	if c.plain, err = boot(workdir, nil); err != nil {
		return nil, err
	}
	c.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	// Warm-up: connections open, pools fill, breakers and tuners settle.
	var warm passResult
	c.runBlock(&warm, c.plain, workers, size.warm, "")
	if warm.Failed > 0 {
		c.close()
		return nil, fmt.Errorf("warm-up: %s", warm.Failures[0])
	}
	return c, nil
}

// boot starts an in-process mozartd with one tenant well inside its budget.
// With a probe, the handler and every registry entry are wrapped by the
// benchmark's timing decorators.
func boot(workdir string, p *probe) (*server, error) {
	registry := serve.WorkloadRegistry()
	registry["noop"] = func(context.Context, serve.EvalParams, core.Options) (float64, error) { return 0, nil }
	if p != nil {
		for name, fn := range registry {
			registry[name] = p.wrapEval(fn)
		}
	}
	srv, err := serve.New(serve.Config{
		GlobalBudgetBytes: 1 << 30,
		MaxInFlight:       8,
		DefaultTimeout:    10 * time.Second,
		SpillDir:          workdir,
		RetryJitterSeed:   1,
		Registry:          registry,
		Tenants:           []serve.TenantConfig{{Name: "bench", BudgetBytes: 512 << 20, MaxInFlight: 4}},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if p != nil {
		h = p.wrapHandler(h)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/v1/eval",
		done: make(chan struct{}), probe: p}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener, waits for the serving goroutine and drains the
// server, which verifies that every byte and spill store was returned.
func (s *server) stop() error {
	_ = s.hs.Close()
	<-s.done
	return s.srv.Drain()
}

func (c *serveCase) close() error {
	c.client.CloseIdleConnections()
	return c.plain.stop()
}

// blockResult is one closed-loop block of requests.
type blockResult struct {
	lat  []float64 // client-observed seconds, correct requests only
	good int       // correct and within the latency limit
	wall float64
	mem  memDelta
}

// runBlock sends n requests from the sequence over the given number of
// closed-loop clients: each sends its next request only when the previous
// one has been answered. A non-empty workload overrides the mix (the no-op
// measurement). Failures are counted into r.
func (c *serveCase) runBlock(r *passResult, s *server, clients, n int, workload string) blockResult {
	type outcome struct {
		lat float64
		err error
	}
	outs := make([]outcome, n)
	first := c.next
	c.next += n
	var cursor atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				req := c.reqs[(first+i)%len(c.reqs)]
				if workload != "" {
					req = request{body: []byte(`{"workload":"` + workload + `","threads":1}`)}
				}
				outs[i].lat, outs[i].err = c.send(s, req, int64(first+i))
			}
		}()
	}
	wg.Wait()
	res := blockResult{wall: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	res.mem = memBetween(&before, &after, n)
	r.Attempted += int64(n)
	for _, o := range outs {
		if o.err != nil {
			r.fail(1, o.err)
			continue
		}
		res.lat = append(res.lat, o.lat)
		if o.lat <= c.limit.Seconds() {
			res.good++
		}
	}
	return res
}

// send posts one request and checks the reply: 200 and the base library's
// checksum. The latency is the client's, from sending to the body read.
func (c *serveCase) send(s *server, req request, id int64) (float64, error) {
	hr, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := c.client.Do(hr)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if s.probe != nil {
		s.probe.clientTimes(id, start, end)
	}
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		if s.probe != nil {
			s.probe.non200.Add(1)
		}
		return 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var reply struct {
		Checksum float64 `json:"checksum"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, err
	}
	// Reductions reassociate across batches, so the checksum is compared
	// to 1e-9 relative.
	if diff := math.Abs(reply.Checksum - req.expect); diff > 1e-9*math.Abs(req.expect) {
		return 0, fmt.Errorf("checksum %v, base library gives %v", reply.Checksum, req.expect)
	}
	return end.Sub(start).Seconds(), nil
}

// runBase runs the unmodified library directly on n requests of the
// sequence, with no server and no Mozart, and returns seconds per request.
func (c *serveCase) runBase(r *passResult, n int) []float64 {
	runtime.GC()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := c.reqs[(c.next+i)%len(c.reqs)]
		start := time.Now()
		_, err := req.spec.Run(workloads.Base, workloads.Config{Scale: req.scale, Threads: 1})
		lat = append(lat, time.Since(start).Seconds())
		if err != nil {
			r.Attempted++
			r.fail(1, fmt.Errorf("base library: %w", err))
		}
	}
	return lat
}

// serveEndToEnd measures a serve workload against the plain server. Each
// cycle runs a block at 2 clients, a quarter block at 1 client and an eighth
// of a block of the base library alone, in rotating order. Latencies pool over
// the cycles for the medians; the tail, goodput and allocations are medians
// of the per-block values, so that one disturbed block cannot set them.
// Allocations are the whole process's, so they include the load generator.
func serveEndToEnd(c *serveCase, cfg runConfig, tailQ float64) *passResult {
	r := &passResult{Metrics: map[string]value{}}
	s := samples{}
	var lat2, lat1, base []float64
	b := cfg.budget()
	for cycle := 0; b.more(cycle); cycle++ {
		for k := 0; k < 3; k++ {
			switch (cycle + k) % 3 {
			case 0:
				res := c.runBlock(r, c.plain, workers, c.block, "")
				lat2 = append(lat2, res.lat...)
				s.add("tail_s", quantile(res.lat, tailQ))
				s.add("goodput_rps", float64(res.good)/res.wall)
				s.add("allocs_per_eval", res.mem.allocs)
				s.add("alloc_bytes_per_eval", res.mem.bytes)
			case 1:
				lat1 = append(lat1, c.runBlock(r, c.plain, 1, max(c.block/4, 1), "").lat...)
			case 2:
				base = append(base, c.runBase(r, max(c.block/8, 1))...)
			}
		}
	}
	out := r.Metrics
	s["eval_s"], s["eval_w1_s"] = lat2, lat1
	report(out, endToEnd, s)
	derive(out, endToEnd, "speedup_vs_base", ratio(quantile(base, 0.5), quantile(lat2, 0.5)))
	return r
}

// ---- the traced pass ----

const requestIDHeader = "X-Bench-Request"

type probeKey struct{}

// probe holds the timing decorators of the traced server: one record per
// request, filled by the handler wrapper, the registry-entry wrapper, the
// runtime's events and the client.
type probe struct {
	mu     sync.Mutex
	recs   map[int64]*reqRecord
	non200 atomic.Int64
}

type reqRecord struct {
	collector
	clientStart, clientEnd   time.Time
	handlerStart, handlerEnd time.Time
	evalStart, evalEnd       time.Time
}

func (p *probe) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &reqRecord{handlerStart: time.Now()}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), probeKey{}, rec)))
		rec.handlerEnd = time.Now()
		p.mu.Lock()
		p.recs[id] = rec
		p.mu.Unlock()
	})
}

func (p *probe) wrapEval(fn serve.EvalFunc) serve.EvalFunc {
	return func(ctx context.Context, ep serve.EvalParams, opts core.Options) (float64, error) {
		rec, ok := ctx.Value(probeKey{}).(*reqRecord)
		if !ok {
			return fn(ctx, ep, opts)
		}
		opts.Tracer = obs.Multi(opts.Tracer, &rec.collector)
		rec.evalStart = time.Now()
		sum, err := fn(ctx, ep, opts)
		rec.evalEnd = time.Now()
		return sum, err
	}
}

// clientTimes completes a request's record. The handler wrapper stores the
// record before the response's last byte reaches the client, so it is there.
func (p *probe) clientTimes(id int64, start, end time.Time) {
	p.mu.Lock()
	if rec := p.recs[id]; rec != nil {
		rec.clientStart, rec.clientEnd = start, end
	}
	p.mu.Unlock()
}

// drain returns the finished records and forgets them.
func (p *probe) drain() []*reqRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*reqRecord, 0, len(p.recs))
	for _, rec := range p.recs {
		if !rec.clientEnd.IsZero() {
			out = append(out, rec)
		}
	}
	p.recs = map[int64]*reqRecord{}
	return out
}

// serveTraced is the per-layer pass of a serve workload. A second server,
// whose handler and registry entries carry the timing decorators, runs beside
// the plain one; each cycle sends a block to each and a block of no-op
// requests to the plain one, in rotating order.
func serveTraced(c *serveCase, def serveDef, cfg runConfig, tailQ float64) *passResult {
	r := &passResult{Metrics: map[string]value{}}
	out := r.Metrics
	p := &probe{recs: map[int64]*reqRecord{}}
	traced, err := boot(cfg.workdir, p)
	if err != nil {
		r.Attempted++
		r.fail(1, err)
		return r
	}
	defer func() {
		if err := traced.stop(); err != nil {
			r.fail(0, err)
		}
	}()
	c.runBlock(&passResult{}, traced, workers, def.size(cfg.sizes).warm, "")
	p.drain()

	s := samples{}
	var plainLat, tracedLat, noopLat, base []float64
	b := cfg.budget()
	for cycle := 0; b.more(cycle); cycle++ {
		for k := 0; k < 4; k++ {
			switch (cycle + k) % 4 {
			case 0:
				plainLat = append(plainLat, c.runBlock(r, c.plain, workers, c.block, "").lat...)
			case 1:
				res := c.runBlock(r, traced, workers, c.block, "")
				tracedLat = append(tracedLat, res.lat...)
				s.add("serve.req_tail_s", quantile(res.lat, tailQ))
				s.add("goruntime.gc_cycles", res.mem.gcCycles)
				s.add("goruntime.gc_pause_s", res.mem.gcPause)
				for _, rec := range p.drain() {
					rec.addTo(s)
					if trace, keep := cfg.spans.begin(); keep {
						rec.addSpans(cfg.spans, trace)
					}
				}
			case 2:
				noopLat = append(noopLat, c.runBlock(r, c.plain, workers, c.block, "noop").lat...)
			case 3:
				base = append(base, c.runBase(r, max(c.block/8, 1))...)
			}
		}
	}

	s["serve.req_p50_s"], s["serve.noop_req_s"], s["lib.base_w1_s"] = tracedLat, noopLat, base
	report(out, perLayer, s)
	derive(out, perLayer, "serve.req_p99_s", quantile(tracedLat, 0.99))
	derive(out, perLayer, "serve.non200", float64(p.non200.Load()))
	derive(out, perLayer, "obs.trace_overhead_ratio", ratio(quantile(tracedLat, 0.5), quantile(plainLat, 0.5)))
	derive(out, perLayer, "bench.traced_ops", float64(len(tracedLat)))
	// The generator each request runs inside spec.Run, weighted by the mix.
	var gen, weight float64
	for _, m := range def.mix {
		gen += float64(m.weight) * datagenSeconds(m.workload, def.size(cfg.sizes).scale)
		weight += float64(m.weight)
	}
	derive(out, perLayer, "workloads.datagen_s", gen/weight)
	return r
}

// addTo records one traced request as a sample of each serve metric and of
// the runtime breakdown of the evaluation inside it. The breakdown's capture
// time runs from the registry entry's start to the session's first
// evaluation, so on a serve workload it includes input generation.
func (rec *reqRecord) addTo(s samples) {
	handler := rec.handlerEnd.Sub(rec.handlerStart).Seconds()
	eval := rec.evalEnd.Sub(rec.evalStart).Seconds()
	s.add("serve.handler_s", handler)
	s.add("serve.eval_s", eval)
	s.add("serve.overhead_s", handler-eval)
	s.add("serve.transport_s", rec.clientEnd.Sub(rec.clientStart).Seconds()-handler)
	fold(rec.events, rec.evalStart, rec.evalEnd.Sub(rec.evalStart)).addTo(s)
}

// addSpans records the request's tree: request, handler, evalfunc, and under
// it the evaluation's own spans.
func (rec *reqRecord) addSpans(l *spanLog, trace int64) {
	req := l.add(trace, 0, "request", "serve", rec.clientStart, rec.clientEnd, obs.RuntimeLane)
	h := l.add(trace, req, "handler", "serve", rec.handlerStart, rec.handlerEnd, obs.RuntimeLane)
	l.addEval(trace, h, "evalfunc", "serve", rec.events, rec.evalStart, rec.evalEnd)
}
