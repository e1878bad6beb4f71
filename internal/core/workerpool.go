package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerPool is a persistent pool of worker goroutines that every window of
// the stage loop, in memory or out of core, offers its shares 1…W−1 to
// (Session.fanOut: share 0 runs on the evaluating goroutine, and so does any
// share no helper has claimed by the time the evaluating goroutine gets to
// it). Once its workers are parked, evaluations run entirely on them — zero
// goroutine spawns in steady state (Stats.WorkerSpawns counts the
// exceptions). A WorkerPool is safe for concurrent use. Sessions share one
// process-wide pool unless Options.WorkerPool names another: a pool private
// to each session would park its workers for idleTimeout with nothing left
// to run on them, which under a session per request is a goroutine leak.
//
// The design is a LIFO parking lot with a FIFO queue behind it: each idle
// worker owns a one-slot task channel and sits on the idle stack. Run pops a
// parked worker and hands it the task (never blocking — the slot is
// guaranteed free), spawns a new worker while under the cap, and otherwise
// queues the task for the next worker to finish, which drains the queue
// before it parks. So max bounds the goroutines the pool ever runs, and Run
// neither blocks nor drops a task: callers cannot deadlock on the pool or
// lose work to it, but a queued task waits, which is why fanOut lets the
// caller claim its shares. Queueing and parking share one lock, so a task is
// never queued beside a parked worker. Workers that sit idle past
// idleTimeout retire; retirement races with a concurrent Run popping the
// worker, which is resolved by checking whether the worker is still on the
// stack — if not, a task is already in flight on its channel and the worker
// runs it instead of exiting.
type WorkerPool struct {
	max         int
	idleTimeout time.Duration

	mu      sync.Mutex
	idle    []*poolWorker
	workers int
	queue   []func() // tasks waiting for a worker, oldest first

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

// NewWorkerPool returns a pool of at most max workers. max <= 0 is treated
// as 1.
func NewWorkerPool(max int) *WorkerPool {
	if max <= 0 {
		max = 1
	}
	return &WorkerPool{max: max, idleTimeout: defaultPoolIdleTimeout}
}

// defaultWorkerPool is the process-wide pool, created at first use and sized
// at GOMAXPROCS: more helpers than processors never ran anything sooner.
var defaultWorkerPool = sync.OnceValue(func() *WorkerPool {
	return NewWorkerPool(runtime.GOMAXPROCS(0))
})

// Run hands task to a pool worker: a parked one when there is one, a new one
// while the pool is under its cap, and otherwise the next worker to finish
// what it is running. It reports whether a new goroutine had to be spawned;
// in steady state it returns false. Run never blocks waiting for a worker.
func (p *WorkerPool) Run(task func()) (spawned bool) {
	p.tasks.Add(1)
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.ch <- task
		return false
	}
	if p.workers < p.max {
		p.workers++
		p.mu.Unlock()
		p.spawns.Add(1)
		go p.workerLoop(&poolWorker{ch: make(chan func(), 1)}, task)
		return true
	}
	p.queue = append(p.queue, task)
	p.mu.Unlock()
	return false
}

// Spawns returns the cumulative number of goroutines the pool has created.
// A flat Spawns count across evaluations is the steady-state proof.
func (p *WorkerPool) Spawns() int64 { return p.spawns.Load() }

// Tasks returns the cumulative number of tasks submitted via Run.
func (p *WorkerPool) Tasks() int64 { return p.tasks.Load() }

// nextOrPark is a worker between tasks: it returns the oldest queued task,
// or parks w on the idle stack and returns nil when nothing is queued. (The
// queue is a few offers long; shifting it keeps its backing array.)
func (p *WorkerPool) nextOrPark(w *poolWorker) func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		p.idle = append(p.idle, w)
		return nil
	}
	task := p.queue[0]
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = nil
	p.queue = p.queue[:n]
	return task
}

// retire takes w off the idle stack and out of the pool if it is still
// parked, reporting whether it was — in one critical section, so Run never
// sees a full pool whose last worker is about to leave and queues a task
// nobody will drain. A false return means a Run call already popped w and a
// task is (or is about to be) in its channel.
func (p *WorkerPool) retire(w *poolWorker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, cand := range p.idle {
		if cand == w {
			last := len(p.idle) - 1
			p.idle[i] = p.idle[last]
			p.idle[last] = nil
			p.idle = p.idle[:last]
			p.workers--
			return true
		}
	}
	return false
}

func (p *WorkerPool) workerLoop(w *poolWorker, task func()) {
	timer := time.NewTimer(p.idleTimeout)
	defer timer.Stop()
	for {
		task()
		if task = p.nextOrPark(w); task != nil {
			continue
		}
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
			if p.retire(w) {
				return
			}
			// Popped by a racing Run: the task is guaranteed to arrive on
			// our one-slot channel; run it and keep living.
			task = <-w.ch
		}
	}
}
