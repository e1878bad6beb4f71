package core

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"mozart/internal/obs"
	ir "mozart/internal/plan"
)

// binding is one value slot in the dataflow graph. Bindings are created for
// source values (identified by pointer identity where possible), for scalar
// arguments, and for values produced by annotated calls.
type binding struct {
	id       int
	val      any   // current full value (valid when hasVal)
	producer *node // pending producer among un-evaluated nodes, nil otherwise
	key      uintptr
	// The flags sit together, next to the 4-byte-aligned planner scratch, so
	// that a binding stays in the 80-byte size class.
	hasVal    bool     // val holds the current full value
	ready     bool     // val is final and safe for user reads
	keep      bool     // user demanded materialization (Future.Keep)
	discarded bool     // was pipelined away and never materialized
	pm        planMark // planner scratch, valid per epoch (planner.go)
}

// set makes v the binding's current, final value.
func (b *binding) set(v any) {
	b.val, b.hasVal, b.ready, b.discarded = v, true, true, false
}

// node is one captured annotated call. Exactly one of fn and into is set:
// the one function every execution mode of the call runs (Session.safeCall).
type node struct {
	name    string
	fn      Func     // registered through Call
	into    FuncInto // registered through CallInto
	sa      *Annotation
	args    []*binding
	argVals []any // captured raw argument values (nil for unresolved lazy args)
	ret     *binding
}

// Session is the libmozart client library (§4): it lazily captures a
// dataflow graph of annotated calls and evaluates it when a lazy value is
// accessed (or Evaluate is called explicitly). A Session is not safe for
// concurrent use; the runtime it spawns is internally parallel.
//
// A nil *Session is the unmodified library: Call and CallInto run the
// function at once on the caller and return a resolved Future, so one
// program written against the annotated wrappers runs either way (§4: the
// annotated library takes the original's place, the application stays).
// Track, Evaluate, EvaluateContext and the Futures it returns also work on
// nil; nothing else does.
type Session struct {
	opts      Options
	nodes     []*node // pending, un-evaluated calls in program order
	bindings  []*binding
	byPointer map[uintptr]*binding
	stats     stats
	nextID    int
	planEpoch uint32        // last epoch handed to the planner's per-binding marks
	broken    error         // sticky evaluation error
	breakers  *breakerSet   // per-annotation circuit breakers (FallbackQuarantine)
	pools     *sessionPools // hot-path buffer reuse (scratch, outs, pieces)
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	o := opts.withDefaults()
	breakers := newBreakerSet(BreakerPolicy{})
	if o.Breakers != nil {
		breakers = o.Breakers.set
	}
	return &Session{
		opts:      o,
		byPointer: map[uintptr]*binding{},
		breakers:  breakers,
		pools:     newSessionPools(o.PoisonPools),
	}
}

// baseContext resolves the context used by evaluations forced without an
// explicit one (Options.BaseContext).
func (s *Session) baseContext() context.Context {
	if s != nil && s.opts.BaseContext != nil {
		if ctx := s.opts.BaseContext(); ctx != nil {
			return ctx
		}
	}
	return context.Background()
}

// Options returns the session's effective options.
func (s *Session) Options() Options { return s.opts }

// Stats returns a snapshot of the runtime's phase timings and counters.
// The returned StatsSnapshot is a plain value: it does not change as the
// session keeps running, and two snapshots can be compared field by field.
func (s *Session) Stats() StatsSnapshot { return s.stats.Snapshot() }

// ResetStats zeroes the accumulated statistics.
func (s *Session) ResetStats() { s.stats = stats{} }

// Pending returns the number of captured, not-yet-evaluated calls.
func (s *Session) Pending() int { return len(s.nodes) }

// dataPointer extracts a stable identity for reference-like values. Slices
// are identified by their base array pointer, mirroring how the paper's C++
// client library keys mutable data by its pointer.
func dataPointer(v any) (uintptr, bool) {
	if v == nil {
		return 0, false
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		p := rv.Pointer()
		return p, p != 0
	}
	return 0, false
}

func (s *Session) newBinding() *binding {
	b := &binding{id: s.nextID}
	s.nextID++
	s.bindings = append(s.bindings, b)
	return b
}

// bindingFor resolves an argument to its binding, creating a source binding
// on first sight. Futures map to their producing binding; reference values
// are deduplicated by pointer identity; scalars get anonymous bindings.
func (s *Session) bindingFor(arg any) *binding {
	if f, ok := arg.(*Future); ok {
		if f.sess != s {
			panic("mozart: future passed to a different session")
		}
		return f.b
	}
	if key, ok := dataPointer(arg); ok {
		if b, ok := s.byPointer[key]; ok {
			return b
		}
		b := s.newBinding()
		b.val, b.hasVal, b.ready, b.key = arg, true, true, key
		s.byPointer[key] = b
		return b
	}
	b := s.newBinding()
	b.val, b.hasVal, b.ready = arg, true, true
	return b
}

// Track registers a source value with the session and returns a Future for
// it. For values whose splitter copies data the merged result replaces the
// tracked value; under an in-place/view splitter (CapInPlace) the future
// resolves to the original value, mutated through its aliasing pieces.
func (s *Session) Track(v any) *Future {
	if s == nil {
		return resolvedFuture(v, nil)
	}
	b := s.bindingFor(v)
	return &Future{sess: s, b: b}
}

// Call captures an annotated function call in the dataflow graph and
// returns a Future for its result (nil for void functions). The arguments
// may be raw values or Futures from the same session. On a nil session the
// call runs at once and the Future, void functions included, is resolved.
func (s *Session) Call(fn Func, sa *Annotation, args ...any) *Future {
	return s.capture(fn, nil, sa, args)
}

// CallInto is Call for a destination-taking function (see FuncInto): inside a
// split stage the runtime hands fn the piece it returned for the worker's
// previous batch as soon as nothing else can see that piece, so a batch's
// intermediates are rewritten in cache instead of allocated anew.
func (s *Session) CallInto(fn FuncInto, sa *Annotation, args ...any) *Future {
	return s.capture(nil, fn, sa, args)
}

// capture records one call of fn or into (whichever is non-nil). On a nil
// session it runs the call instead (runEager).
func (s *Session) capture(fn Func, into FuncInto, sa *Annotation, args []any) *Future {
	if len(args) != len(sa.Params) {
		panic(fmt.Sprintf("mozart: %s: got %d args, annotation has %d params", sa.FuncName, len(args), len(sa.Params)))
	}
	if s == nil {
		return runEager(fn, into, args)
	}
	start := time.Now()
	defer func() { s.stats.add(&s.stats.ClientNS, time.Since(start)) }()

	n := &node{
		name:    sa.FuncName,
		fn:      fn,
		into:    into,
		sa:      sa,
		args:    make([]*binding, len(args)),
		argVals: make([]any, len(args)),
	}
	for i, a := range args {
		b := s.bindingFor(a)
		n.args[i] = b
		if f, ok := a.(*Future); ok {
			if b.hasVal {
				n.argVals[i] = b.val
			}
			_ = f
		} else {
			n.argVals[i] = a
		}
	}
	// Mutated arguments: this node becomes the pending producer, so later
	// readers order after it and accesses before evaluation force it.
	for i, p := range sa.Params {
		if p.Mut {
			n.args[i].producer = n
			n.args[i].ready = false
			n.args[i].discarded = false
		}
	}
	var fut *Future
	if sa.Ret != nil {
		rb := s.newBinding()
		rb.producer = n
		n.ret = rb
		fut = &Future{sess: s, b: rb}
	}
	s.nodes = append(s.nodes, n)
	return fut
}

// runEager is a call on a nil session: the library function itself, on the
// caller, with no planner, split or worker. fn is handed a copy of args with
// every Future read to its value, so that the caller's slice, which a
// session's capture lets stay on the stack, never escapes. A FuncInto is
// offered no destination. fn's error, or an argument's, is carried by the
// Future.
func runEager(fn Func, into FuncInto, args []any) *Future {
	vals := make([]any, len(args))
	for i, a := range args {
		if f, ok := a.(*Future); ok {
			v, err := f.Get()
			if err != nil {
				return resolvedFuture(nil, err)
			}
			a = v
		}
		vals[i] = a
	}
	if into != nil {
		return resolvedFuture(into(vals, nil))
	}
	return resolvedFuture(fn(vals))
}

// resolvedFuture is a nil session's Future: resolved to v, or, when err is
// set, failed — its binding then holds err in val and is not ready.
func resolvedFuture(v any, err error) *Future {
	b := &binding{val: v, hasVal: true, ready: true}
	if err != nil {
		b.val, b.ready = err, false
	}
	return &Future{b: b}
}

// read returns the materialized value behind a binding. A binding that is
// not ready in a broken session is poisoned: it surfaces ErrNotEvaluated
// with the evaluation failure as its cause, never a stale value.
func (s *Session) read(b *binding) (any, error) {
	if b.discarded {
		return nil, ErrDiscarded
	}
	if !b.ready {
		if s.broken != nil {
			return nil, &notEvaluatedError{cause: s.broken}
		}
		return nil, ErrNotEvaluated
	}
	return b.val, nil
}

// Err returns the sticky error that broke the session, or nil. A broken
// session refuses further evaluation; values materialized before the
// failure remain readable.
func (s *Session) Err() error { return s.broken }

// EvaluateContext runs the pending dataflow graph: plan into stages,
// execute each stage with splitting, pipelining, and parallelism, then merge
// results. It is a no-op when nothing is pending. Canceling ctx (or its
// deadline passing) stops workers at their next batch boundary and fails the
// evaluation with a StageError wrapping the context's error. In-flight
// library calls run to completion first — unmodified library code cannot be
// preempted.
func (s *Session) EvaluateContext(ctx context.Context) error {
	if s == nil {
		return nil // a nil session ran every call as it was made
	}
	if s.broken != nil {
		return s.broken
	}
	if len(s.nodes) == 0 {
		return nil
	}
	s.stats.add(&s.stats.Evaluations, 1)
	tr := s.opts.Tracer
	evalStart := time.Now()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvSessionBegin, Time: evalStart, Stage: -1,
			Worker: obs.RuntimeLane, Elems: int64(len(s.nodes)), Trace: s.opts.Trace})
	}

	t1 := time.Now()
	plan, err := s.buildPlan(false)
	plannerDur := time.Since(t1)
	s.stats.add(&s.stats.PlannerNS, plannerDur)
	if err != nil {
		s.broken = err
		return s.finishEval(tr, evalStart, err)
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvPlan, Time: time.Now(), Dur: plannerDur,
			Stage: -1, Worker: obs.RuntimeLane, Stages: len(plan.stages),
			Detail: plan.ir.Describe()})
	}
	if s.opts.OnPlan != nil {
		s.opts.OnPlan(plan.ir)
	}

	execStart := time.Now()
	if err := s.execute(ctx, plan); err != nil {
		s.reportTuner(tr, plan, time.Since(execStart), err)
		s.broken = err
		return s.finishEval(tr, evalStart, err)
	}
	s.reportTuner(tr, plan, time.Since(execStart), nil)

	// Graph consumed: clear pending nodes and producers.
	for _, n := range s.nodes {
		for _, b := range n.args {
			b.producer = nil
		}
		if n.ret != nil {
			n.ret.producer = nil
		}
	}
	s.nodes = s.nodes[:0]
	return s.finishEval(tr, evalStart, nil)
}

// finishEval closes the evaluation span and passes err through.
func (s *Session) finishEval(tr obs.Tracer, start time.Time, err error) error {
	if tr != nil {
		e := obs.Event{Kind: obs.EvSessionEnd, Time: time.Now(),
			Dur: time.Since(start), Stage: -1, Worker: obs.RuntimeLane,
			Trace: s.opts.Trace}
		if err != nil {
			e.Detail = err.Error()
		}
		tr.Emit(e)
	}
	return err
}

// Plan builds and returns the plan IR for the pending dataflow graph without
// evaluating it. Planning is read-only (peek mode): circuit breakers are
// consulted but never transitioned, and no binding is marked discarded, so
// calling Plan never changes what a later Evaluate does. An empty graph
// yields an empty plan.
func (s *Session) Plan() (*ir.Plan, error) {
	if s.broken != nil {
		return nil, s.broken
	}
	p, err := s.buildPlan(true)
	if err != nil {
		return nil, err
	}
	return p.ir, nil
}
