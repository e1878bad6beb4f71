// Package faultinject is a deterministic, seedable fault injector for the
// Mozart runtime's fault-tolerance paths. It wraps the two surfaces the
// runtime calls into — library functions (core.Func) and splitting code
// (core.Splitter) — and arms faults that fire on a chosen invocation:
// panic-on-Nth-batch, error-on-split, slow-call, corrupt-merge, and the
// other combinations of aspect × kind.
//
// Counters are atomic, so a fault armed for the Nth invocation fires
// exactly once even when workers race for batches; the seed drives the
// "random invocation" helpers so concurrent test runs stay reproducible.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/core"
)

// Aspect names the runtime surface a fault intercepts.
type Aspect string

const (
	AspectCall  Aspect = "call"  // the library function itself
	AspectInfo  Aspect = "info"  // Splitter.Info
	AspectSplit Aspect = "split" // Splitter.Split
	AspectMerge Aspect = "merge" // Splitter.Merge
)

// Kind is what the fault does when it fires.
type Kind int

const (
	// KindPanic panics with a descriptive value.
	KindPanic Kind = iota
	// KindError returns an injected error.
	KindError
	// KindSlow sleeps Delay, then proceeds normally (for cancellation and
	// timeout tests).
	KindSlow
	// KindCorrupt perturbs the operation's result (merge only): the first
	// element of a []float64 result is shifted by 1e9. Other result types
	// pass through unchanged.
	KindCorrupt
	// KindHook runs the fault's Hook function and proceeds normally: an
	// environment mutation on the Nth invocation rather than a failure —
	// the budget-squeeze fault shrinks a Governor's budget mid-evaluation
	// this way.
	KindHook
)

// Fault is one armed fault at a site.
type Fault struct {
	Aspect Aspect
	Kind   Kind
	N      int64 // fire on the Nth invocation (1-based); 0 = every invocation
	// M, when >= N, makes the fault transient-by-occurrence: it fires on
	// invocations N..M inclusive and the site succeeds again afterwards —
	// the recoverable-outage shape retry and breaker half-open tests
	// script. Zero keeps the single-invocation (or every-invocation)
	// behavior of N alone.
	M     int64
	Delay time.Duration // KindSlow: the delay, or the lower bound when DelayMax is set
	// DelayMax, when above Delay, turns KindSlow into latency injection:
	// each firing sleeps a duration drawn uniformly from [Delay, DelayMax]
	// with the injector's seeded RNG, so a given seed replays the same
	// latency schedule. This is the jittery-slow-dependency shape the
	// deadline and load-shedding tests exercise.
	DelayMax  time.Duration
	Msg       string // optional message override
	Transient bool   // KindError errors wrap core.ErrTransient
	// Hook runs when a KindHook fault fires; the intercepted operation then
	// proceeds normally. Hooks run on the invoking goroutine (a worker or
	// the runtime lane) and must be safe for concurrent use.
	Hook func()
}

// Injector arms faults per site name and intercepts wrapped functions and
// splitters. A zero site list means everything passes through untouched.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string][]Fault
	counts map[string]*atomic.Int64
}

// New creates an injector whose random helpers draw from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		faults: map[string][]Fault{},
		counts: map[string]*atomic.Int64{},
	}
}

// Add arms a fault at site.
func (in *Injector) Add(site string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[site] = append(in.faults[site], f)
}

// Count reports how many invocations of the given aspect the site has seen.
func (in *Injector) Count(site string, a Aspect) int64 {
	return in.counter(site, a).Load()
}

// Reset zeroes every invocation counter (armed faults stay armed).
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.counts {
		c.Store(0)
	}
}

// PanicOnNthCall arms a panic on the site's Nth library-function call.
func (in *Injector) PanicOnNthCall(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindPanic, N: n})
}

// ErrorOnNthCall arms an error return on the Nth library-function call.
func (in *Injector) ErrorOnNthCall(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindError, N: n})
}

// SlowCalls makes every library-function call at site sleep d first.
func (in *Injector) SlowCalls(site string, d time.Duration) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindSlow, Delay: d})
}

// LatencyOnCalls arms seeded latency injection on every library-function
// call at site: each invocation sleeps a duration drawn uniformly from
// [min, max] using the injector's seed, so concurrent runs with the same
// seed replay the same schedule of delays.
func (in *Injector) LatencyOnCalls(site string, min, max time.Duration) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindSlow, Delay: min, DelayMax: max})
}

// LatencyOnSplits is LatencyOnCalls for the splitter's Split invocations,
// delaying batches before the library function even runs.
func (in *Injector) LatencyOnSplits(site string, min, max time.Duration) {
	in.Add(site, Fault{Aspect: AspectSplit, Kind: KindSlow, Delay: min, DelayMax: max})
}

// PanicOnNthSplit arms a panic on the site's Nth Split invocation.
func (in *Injector) PanicOnNthSplit(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectSplit, Kind: KindPanic, N: n})
}

// ErrorOnNthSplit arms an error return on the Nth Split invocation.
func (in *Injector) ErrorOnNthSplit(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectSplit, Kind: KindError, N: n})
}

// ErrorOnNthMerge arms an error return on the Nth Merge invocation.
func (in *Injector) ErrorOnNthMerge(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectMerge, Kind: KindError, N: n})
}

// CorruptNthMerge perturbs the result of the Nth Merge invocation.
func (in *Injector) CorruptNthMerge(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectMerge, Kind: KindCorrupt, N: n})
}

// ErrorOnNthInfo arms an error return on the Nth Info invocation.
func (in *Injector) ErrorOnNthInfo(site string, n int64) {
	in.Add(site, Fault{Aspect: AspectInfo, Kind: KindError, N: n})
}

// TransientErrorOnCalls arms errors wrapping core.ErrTransient on the
// site's library-function calls from..to (1-based, inclusive); later calls
// succeed. This is the "outage that heals" retry tests replay.
func (in *Injector) TransientErrorOnCalls(site string, from, to int64) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindError, N: from, M: to, Transient: true})
}

// TransientErrorOnSplits arms transient errors on Split invocations
// from..to, after which the splitter succeeds again.
func (in *Injector) TransientErrorOnSplits(site string, from, to int64) {
	in.Add(site, Fault{Aspect: AspectSplit, Kind: KindError, N: from, M: to, Transient: true})
}

// TransientErrorOnMerges arms transient errors on Merge invocations
// from..to, after which the splitter succeeds again.
func (in *Injector) TransientErrorOnMerges(site string, from, to int64) {
	in.Add(site, Fault{Aspect: AspectMerge, Kind: KindError, N: from, M: to, Transient: true})
}

// HookOnNthCall arms an environment-mutation hook on the site's Nth
// library-function call: hook runs, then the call proceeds normally.
func (in *Injector) HookOnNthCall(site string, n int64, hook func()) {
	in.Add(site, Fault{Aspect: AspectCall, Kind: KindHook, N: n, Hook: hook})
}

// SqueezeBudgetOnNthCall arms the budget-squeeze fault: on the site's Nth
// library-function call, the Governor's budget shrinks to newBudget (waking
// any blocked admissions so they re-clamp), and the call proceeds. This is
// the mid-evaluation memory-pressure shape the out-of-core chaos tests
// drive.
func (in *Injector) SqueezeBudgetOnNthCall(site string, n int64, g *core.Governor, newBudget int64) {
	in.HookOnNthCall(site, n, func() { g.SetBudget(newBudget) })
}

// PanicOnRandomCall arms a panic on an invocation drawn uniformly from
// [1, outOf] using the injector's seed, and returns the chosen invocation
// so tests can log it.
func (in *Injector) PanicOnRandomCall(site string, outOf int64) int64 {
	in.mu.Lock()
	n := 1 + in.rng.Int63n(outOf)
	in.mu.Unlock()
	in.PanicOnNthCall(site, n)
	return n
}

func (in *Injector) counter(site string, a Aspect) *atomic.Int64 {
	key := site + "/" + string(a)
	in.mu.Lock()
	defer in.mu.Unlock()
	c, ok := in.counts[key]
	if !ok {
		c = &atomic.Int64{}
		in.counts[key] = c
	}
	return c
}

// fire advances the site's counter for aspect a and reports the armed fault
// that matches this invocation, if any.
func (in *Injector) fire(site string, a Aspect) (Fault, bool) {
	n := in.counter(site, a).Add(1)
	in.mu.Lock()
	faults := in.faults[site]
	var hit Fault
	var ok bool
	for _, f := range faults {
		if f.Aspect != a {
			continue
		}
		match := f.N == 0 || f.N == n
		if f.M >= f.N && f.N > 0 {
			match = n >= f.N && n <= f.M
		}
		if match {
			hit, ok = f, true
			break
		}
	}
	in.mu.Unlock()
	return hit, ok
}

func (in *Injector) act(f Fault, site string, a Aspect) error {
	msg := f.Msg
	if msg == "" {
		msg = fmt.Sprintf("faultinject: injected %s fault at %s", a, site)
	}
	switch f.Kind {
	case KindSlow:
		time.Sleep(in.delayFor(f))
		return nil
	case KindHook:
		if f.Hook != nil {
			f.Hook()
		}
		return nil
	case KindPanic:
		panic(msg)
	case KindError:
		if f.Transient {
			return fmt.Errorf("%s: %w", msg, core.ErrTransient)
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// delayFor resolves a KindSlow fault's sleep: the fixed Delay, or a draw
// from [Delay, DelayMax] on the injector's seeded RNG when DelayMax is the
// larger — the draw order is the interleaving-dependent part, which is why
// tests assert bounds and determinism of the sequence, not a per-batch
// schedule.
func (in *Injector) delayFor(f Fault) time.Duration {
	if f.DelayMax <= f.Delay {
		return f.Delay
	}
	in.mu.Lock()
	d := f.Delay + time.Duration(in.rng.Int63n(int64(f.DelayMax-f.Delay)+1))
	in.mu.Unlock()
	return d
}

// WrapFunc intercepts a library function registered with Session.Call.
func (in *Injector) WrapFunc(site string, fn core.Func) core.Func {
	return func(args []any) (any, error) {
		if err := in.onCall(site); err != nil {
			return nil, err
		}
		return fn(args)
	}
}

// WrapFuncInto intercepts a destination-taking function registered with
// Session.CallInto. The runtime has one function per call, so the fault fires
// wherever the call runs: on the split path, on a retry replay and in
// whole-call fallback alike.
func (in *Injector) WrapFuncInto(site string, fn core.FuncInto) core.FuncInto {
	return func(args []any, out any) (any, error) {
		if err := in.onCall(site); err != nil {
			return nil, err
		}
		return fn(args, out)
	}
}

// onCall counts one invocation at site and acts out the fault due, if any.
func (in *Injector) onCall(site string) error {
	if f, ok := in.fire(site, AspectCall); ok {
		return in.act(f, site, AspectCall)
	}
	return nil
}

// WrapSplitter intercepts a splitter's Info/Split/Merge. The wrapper
// declares the underlying splitter's capabilities (core.CapsDeclarer), so
// in-place, view, window, and codec behavior all survive wrapping; view and
// window splits are intercepted under the split aspect like plain splits.
func (in *Injector) WrapSplitter(site string, sp core.Splitter) core.Splitter {
	return &faultSplitter{in: in, site: site, sp: sp}
}

type faultSplitter struct {
	in   *Injector
	site string
	sp   core.Splitter
}

// SplitterCaps forwards the wrapped splitter's capability set. The wrapper
// implements every optional interface, so without this declaration
// core.CapabilitiesOf would report capabilities the underlying splitter
// lacks. CapPlace is withheld: merge-aspect faults intercept Merge, so a
// wrapped splitter's outputs stay on the Merge path.
func (fs *faultSplitter) SplitterCaps() core.SplitterCaps {
	return core.CapabilitiesOf(fs.sp) &^ core.CapPlace
}

func (fs *faultSplitter) InPlace() bool {
	if ip, ok := fs.sp.(core.InPlacer); ok {
		return ip.InPlace()
	}
	return false
}

func (fs *faultSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	if f, ok := fs.in.fire(fs.site, AspectInfo); ok {
		if err := fs.in.act(f, fs.site, AspectInfo); err != nil {
			return core.RuntimeInfo{}, err
		}
	}
	return fs.sp.Info(v, t)
}

func (fs *faultSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	if f, ok := fs.in.fire(fs.site, AspectSplit); ok {
		if err := fs.in.act(f, fs.site, AspectSplit); err != nil {
			return nil, err
		}
	}
	return fs.sp.Split(v, t, start, end)
}

// SplitView delegates the zero-copy split, intercepted under the split
// aspect so armed split faults fire on the view path too.
func (fs *faultSplitter) SplitView(v any, t core.SplitType, start, end int64, reuse any) (any, error) {
	vs, ok := fs.sp.(core.ViewSplitter)
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: wrapped splitter %T has no SplitView", fs.site, fs.sp)
	}
	if f, ok := fs.in.fire(fs.site, AspectSplit); ok {
		if err := fs.in.act(f, fs.site, AspectSplit); err != nil {
			return nil, err
		}
	}
	return vs.SplitView(v, t, start, end, reuse)
}

// SplitAt delegates streaming window views, intercepted under the split
// aspect.
func (fs *faultSplitter) SplitAt(v any, t core.SplitType, start, end int64) (any, error) {
	sa, ok := fs.sp.(core.SplitterAt)
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: wrapped splitter %T has no SplitAt", fs.site, fs.sp)
	}
	if f, ok := fs.in.fire(fs.site, AspectSplit); ok {
		if err := fs.in.act(f, fs.site, AspectSplit); err != nil {
			return nil, err
		}
	}
	return sa.SplitAt(v, t, start, end)
}

// EncodePiece delegates spill-frame encoding untouched.
func (fs *faultSplitter) EncodePiece(buf []byte, piece any, t core.SplitType) ([]byte, error) {
	pc, ok := fs.sp.(core.PieceCodec)
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: wrapped splitter %T has no EncodePiece", fs.site, fs.sp)
	}
	return pc.EncodePiece(buf, piece, t)
}

// DecodePiece delegates spill-frame decoding untouched.
func (fs *faultSplitter) DecodePiece(frame []byte, t core.SplitType, reuse any) (any, error) {
	pc, ok := fs.sp.(core.PieceCodec)
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: wrapped splitter %T has no DecodePiece", fs.site, fs.sp)
	}
	return pc.DecodePiece(frame, t, reuse)
}

func (fs *faultSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	f, armed := fs.in.fire(fs.site, AspectMerge)
	if armed && f.Kind != KindCorrupt {
		if err := fs.in.act(f, fs.site, AspectMerge); err != nil {
			return nil, err
		}
	}
	merged, err := fs.sp.Merge(pieces, t)
	if err != nil {
		return nil, err
	}
	if armed && f.Kind == KindCorrupt {
		merged = corrupt(merged)
	}
	return merged, nil
}

// corrupt deterministically perturbs a merged value: []float64 results get
// their first element shifted; other types pass through unchanged.
func corrupt(v any) any {
	if fs, ok := v.([]float64); ok && len(fs) > 0 {
		out := append([]float64(nil), fs...)
		out[0] += 1e9
		return out
	}
	return v
}
