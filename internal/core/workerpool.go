package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerPool is a persistent pool of worker goroutines that the static,
// dynamic, and streaming executors take a stage's helper workers from
// (Session.fanOut: worker 0 runs on the evaluating goroutine, workers 1…W−1
// here). Once its workers are parked, evaluations run entirely on them —
// zero goroutine spawns in steady state (Stats.WorkerSpawns counts the
// exceptions). A WorkerPool is safe for concurrent use. Sessions share one
// process-wide pool unless Options.WorkerPool names another: a pool private
// to each session would park its workers for idleTimeout with nothing left
// to run on them, which under a session per request is a goroutine leak.
//
// The design is a LIFO parking lot: each idle worker owns a one-slot task
// channel and sits on the idle stack. Run pops a parked worker and hands it
// the task (never blocking — the slot is guaranteed free), spawns a new
// worker while under the cap, and falls back to a plain goroutine when the
// pool is saturated, so callers can never deadlock on the pool itself.
// Workers that sit idle past idleTimeout retire; retirement races with a
// concurrent Run popping the worker, which is resolved by checking whether
// the worker is still on the stack — if not, a task is already in flight
// on its channel and the worker runs it instead of exiting.
type WorkerPool struct {
	max         int
	idleTimeout time.Duration

	mu      sync.Mutex
	idle    []*poolWorker
	workers int

	spawns atomic.Int64
	tasks  atomic.Int64
}

type poolWorker struct {
	ch chan func()
}

// defaultPoolIdleTimeout bounds how long a parked worker outlives its last
// task. Short enough that test binaries spawning many sessions don't
// accumulate goroutines, long enough to span back-to-back evaluations.
const defaultPoolIdleTimeout = 2 * time.Second

// NewWorkerPool returns a pool that keeps at most max workers parked.
// max <= 0 is treated as 1.
func NewWorkerPool(max int) *WorkerPool {
	if max <= 0 {
		max = 1
	}
	return &WorkerPool{max: max, idleTimeout: defaultPoolIdleTimeout}
}

// defaultWorkerPool is the process-wide pool, created at first use and sized
// at GOMAXPROCS; evaluations wanting more helpers at once overflow onto
// plain goroutines, as with any saturated pool.
var defaultWorkerPool = sync.OnceValue(func() *WorkerPool {
	return NewWorkerPool(runtime.GOMAXPROCS(0))
})

// Run executes task on a pool worker, reviving a parked one when possible.
// It reports whether a new goroutine had to be spawned (pool miss or
// saturation overflow); in steady state it returns false. Run never blocks
// waiting for a worker.
func (p *WorkerPool) Run(task func()) (spawned bool) {
	p.tasks.Add(1)
	if w := p.popIdle(); w != nil {
		w.ch <- task
		return false
	}
	p.mu.Lock()
	under := p.workers < p.max
	if under {
		p.workers++
	}
	p.mu.Unlock()
	p.spawns.Add(1)
	if under {
		w := &poolWorker{ch: make(chan func(), 1)}
		go p.workerLoop(w, task)
	} else {
		go task()
	}
	return true
}

// Spawns returns the cumulative number of goroutines the pool has created,
// including saturation overflows. A flat Spawns count across evaluations
// is the steady-state proof.
func (p *WorkerPool) Spawns() int64 { return p.spawns.Load() }

// Tasks returns the cumulative number of tasks submitted via Run.
func (p *WorkerPool) Tasks() int64 { return p.tasks.Load() }

func (p *WorkerPool) popIdle() *poolWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	w := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return w
}

// removeIdle takes w off the idle stack if it is still there, reporting
// whether it was. A false return means a Run call already popped w and a
// task is (or is about to be) in its channel.
func (p *WorkerPool) removeIdle(w *poolWorker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, cand := range p.idle {
		if cand == w {
			last := len(p.idle) - 1
			p.idle[i] = p.idle[last]
			p.idle[last] = nil
			p.idle = p.idle[:last]
			return true
		}
	}
	return false
}

func (p *WorkerPool) workerLoop(w *poolWorker, first func()) {
	task := first
	timer := time.NewTimer(p.idleTimeout)
	defer timer.Stop()
	for {
		task()
		task = nil
		p.mu.Lock()
		p.idle = append(p.idle, w)
		p.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(p.idleTimeout)
		select {
		case task = <-w.ch:
		case <-timer.C:
			if p.removeIdle(w) {
				p.mu.Lock()
				p.workers--
				p.mu.Unlock()
				return
			}
			// Popped by a racing Run: the task is guaranteed to arrive on
			// our one-slot channel; run it and keep living.
			task = <-w.ch
		}
	}
}
