package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until at least n workers sit on p's idle stack. Workers
// re-park themselves just after their task returns, so an evaluation can
// complete an instant before its workers are observable as idle.
func waitParked(t *testing.T, p *WorkerPool, n int) {
	t.Helper()
	parked := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.idle)
	}
	if !eventually(func() bool { return parked() >= n }) {
		t.Fatalf("only %d workers parked, want >= %d", parked(), n)
	}
}

// TestWorkerPoolReuse: sequential tasks separated by parking run on the same
// worker — Tasks grows, Spawns does not.
func TestWorkerPoolReuse(t *testing.T) {
	p := NewWorkerPool(2)
	for i := 0; i < 10; i++ {
		done := make(chan struct{})
		p.Run(func() { close(done) })
		<-done
		waitParked(t, p, 1)
	}
	if got := p.Tasks(); got != 10 {
		t.Errorf("Tasks = %d, want 10", got)
	}
	if got := p.Spawns(); got != 1 {
		t.Errorf("Spawns = %d, want 1 (one worker reused throughout)", got)
	}
}

// Queued is the number of tasks waiting for a worker (for tests, in this
// package and in core_test).
func (p *WorkerPool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// HoldPool occupies every worker p may have until the returned release is
// called, so whatever is offered to p meanwhile queues (for tests, in this
// package and in core_test).
func HoldPool(p *WorkerPool) (release func()) {
	hold := make(chan struct{})
	var started sync.WaitGroup
	for i := 0; i < p.max; i++ {
		started.Add(1)
		p.Run(func() { started.Done(); <-hold })
	}
	started.Wait()
	return sync.OnceFunc(func() { close(hold) })
}

// HeldPieces drains s's pooled worker scratches and counts the pieces their
// destination slots still refer to: none, once an evaluation has returned
// (for tests, in this package and in core_test).
func HeldPieces(s *Session) (held int) {
	for {
		sc, ok := s.pools.scratch.Get().(*workerScratch)
		if !ok {
			return held
		}
		for _, piece := range sc.slots {
			if piece != nil && piece != (poisonedBuffer{}) {
				held++
			}
		}
	}
}

// TestWorkerPoolQueuesWhenSaturated: a full pool never blocks Run, never
// drops a task and never runs one on a goroutine of its own — excess tasks
// wait, and run oldest first on the worker that frees up.
func TestWorkerPoolQueuesWhenSaturated(t *testing.T) {
	p := NewWorkerPool(1)
	release := HoldPool(p)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		if p.Run(func() { mu.Lock(); order = append(order, i); mu.Unlock(); wg.Done() }) {
			t.Errorf("task %d on a saturated pool reported a spawn", i)
		}
	}
	if q := p.Queued(); q != 5 {
		t.Errorf("Queued = %d with the only worker held, want 5", q)
	}
	release() // if Run blocked on saturation we'd deadlock before this
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("queued tasks ran in order %v, want oldest first", order)
		}
	}
	waitParked(t, p, 1)
	p.mu.Lock()
	workers := p.workers
	p.mu.Unlock()
	if p.Spawns() != 1 || workers != 1 || p.Tasks() != 6 || p.Queued() != 0 {
		t.Errorf("Spawns = %d, workers = %d, Tasks = %d, Queued = %d; want one worker for all 6 tasks and an empty queue",
			p.Spawns(), workers, p.Tasks(), p.Queued())
	}
}

// TestWorkerPoolNeverQueuesBesideAParkedWorker: under concurrent submission
// every task runs, on at most max goroutines, and no observer ever finds a
// task waiting while a worker sits parked.
func TestWorkerPoolNeverQueuesBesideAParkedWorker(t *testing.T) {
	const submitters, each = 4, 500
	p := NewWorkerPool(2)
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.mu.Lock()
			parked, queued := len(p.idle), len(p.queue)
			p.mu.Unlock()
			if parked > 0 && queued > 0 {
				t.Errorf("%d tasks queued beside %d parked workers", queued, parked)
				return
			}
		}
	}()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Run(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	if !eventually(func() bool { return ran.Load() == submitters*each }) {
		t.Errorf("%d of %d tasks ran", ran.Load(), submitters*each)
	}
	close(stop)
	<-watched
	if got := p.Spawns(); got > 2 {
		t.Errorf("Spawns = %d on a pool of 2", got)
	}
}

// TestWorkerPoolRetirementNeverStrandsATask: a Run racing a worker's
// retirement either revives the worker, spawns its replacement, or finds the
// pool still full and queues — in which case the retiring worker must not
// leave. Whichever way each race goes, the task runs.
func TestWorkerPoolRetirementNeverStrandsATask(t *testing.T) {
	p := &WorkerPool{max: 1, idleTimeout: 200 * time.Microsecond}
	for i := 0; i < 300; i++ {
		done := make(chan struct{})
		p.Run(func() { close(done) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("task %d never ran: Queued = %d", i, p.Queued())
		}
		time.Sleep(p.idleTimeout) // land the next Run on the worker's timer
	}
	if p.Tasks() != 300 || p.Queued() != 0 {
		t.Errorf("Tasks = %d, Queued = %d; want 300 and 0", p.Tasks(), p.Queued())
	}
}

// TestWorkerPoolIdleRetirement: a parked worker past its idle timeout exits
// and is replaced (not revived) by the next Run.
func TestWorkerPoolIdleRetirement(t *testing.T) {
	p := &WorkerPool{max: 1, idleTimeout: 5 * time.Millisecond}
	done := make(chan struct{})
	p.Run(func() { close(done) })
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		workers := p.workers
		p.mu.Unlock()
		if workers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle worker never retired")
		}
		time.Sleep(time.Millisecond)
	}
	done = make(chan struct{})
	if spawned := p.Run(func() { close(done) }); !spawned {
		t.Error("Run after retirement should report a fresh spawn")
	}
	<-done
	if got := p.Spawns(); got != 2 {
		t.Errorf("Spawns = %d, want 2 (original + post-retirement)", got)
	}
}

// fillPool brings p to n parked workers by holding n tasks open at once, so
// what follows finds every helper it asks for already parked whatever the
// core count (on few cores a worker that finishes early is reused before the
// next task is dispatched, leaving a warmed-up pool below its cap).
func fillPool(t *testing.T, p *WorkerPool, n int) {
	t.Helper()
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		p.Run(func() { <-release })
	}
	close(release)
	waitParked(t, p, n)
}

// TestSteadyStateZeroSpawns pins the fan-out contract: a stage of W workers
// offers W−1 tasks to the pool (share 0 runs on the caller), parked helpers
// are reused so Stats.WorkerSpawns stays flat, one worker touches the pool
// not at all, a second fresh session on the process-wide default pool spawns
// nothing once the first has parked its helper, and a tight loop of tiny
// evaluations — each done before the last one's helper has woken — neither
// spawns nor lets unclaimed offers pile up.
func TestSteadyStateZeroSpawns(t *testing.T) {
	a, b := seq(1000), seq(1000)
	run := func(s *Session) StatsSnapshot {
		t.Helper()
		c := s.Call(fnAddNew, saAddNew, a, b)
		s.Call(fnAddNew, saAddNew, c, b)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	t.Run("W-1 pool tasks per stage", func(t *testing.T) {
		const workers = 4
		pool := NewWorkerPool(workers)
		fillPool(t, pool, workers-1)
		warm := pool.Spawns()
		s := NewSession(Options{Workers: workers, BatchElems: 100, WorkerPool: pool})
		for i := 1; i <= 5; i++ {
			st := run(s) // both calls pipeline into one stage
			if want := int64(i * (workers - 1)); st.PoolTasks != want {
				t.Fatalf("after %d evaluations PoolTasks = %d, want %d (W-1 per stage)", i, st.PoolTasks, want)
			}
			waitParked(t, pool, workers-1)
		}
		if st := s.Stats(); st.WorkerSpawns != 0 || pool.Spawns() != warm {
			t.Errorf("WorkerSpawns = %d, pool spawns %d -> %d; want every helper revived from the parking lot",
				st.WorkerSpawns, warm, pool.Spawns())
		}
	})

	t.Run("one worker never touches the pool", func(t *testing.T) {
		pool := NewWorkerPool(1)
		st := run(NewSession(Options{Workers: 1, BatchElems: 100, WorkerPool: pool}))
		if st.PoolTasks != 0 || st.WorkerSpawns != 0 || pool.Tasks() != 0 {
			t.Errorf("PoolTasks = %d, WorkerSpawns = %d, pool tasks %d; want all zero",
				st.PoolTasks, st.WorkerSpawns, pool.Tasks())
		}
	})

	t.Run("back-to-back tiny evaluations", func(t *testing.T) {
		const evals = 10000
		pool := NewWorkerPool(2)
		fillPool(t, pool, 2)
		warm := pool.Spawns()
		x, y := seq(64), seq(64)
		var spawns int64
		maxQueued := 0
		for i := 0; i < evals; i++ {
			s := NewSession(Options{Workers: 2, WorkerPool: pool})
			s.Call(testAdd, saBinary("add"), 64, x, y, x)
			if err := s.EvaluateContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			spawns += s.Stats().WorkerSpawns
			maxQueued = max(maxQueued, pool.Queued())
		}
		if spawns != 0 || pool.Spawns() != warm {
			t.Errorf("WorkerSpawns = %d, pool spawns %d -> %d over %d evaluations; want none (a saturated pool queues)",
				spawns, warm, pool.Spawns(), evals)
		}
		// Unclaimed offers cost a worker one atomic add each, so they drain
		// as soon as a worker runs: the backlog is what one scheduler quantum
		// of evaluations leaves when a lone processor never yields to the
		// workers, not something that grows with the number of evaluations.
		if maxQueued > evals/4 || !eventually(func() bool { return pool.Queued() == 0 }) {
			t.Errorf("up to %d offers queued at once, %d left; want a backlog that stays bounded and drains", maxQueued, pool.Queued())
		}
		if pool.Tasks() != evals+2 {
			t.Errorf("pool Tasks = %d, want %d (one offer per evaluation)", pool.Tasks(), evals+2)
		}
	})

	t.Run("fresh sessions share the default pool", func(t *testing.T) {
		pool := defaultWorkerPool()
		first := run(NewSession(Options{Workers: 2, BatchElems: 100}))
		if first.PoolTasks != 1 {
			t.Fatalf("PoolTasks = %d, want 1", first.PoolTasks)
		}
		waitParked(t, pool, 1)
		second := run(NewSession(Options{Workers: 2, BatchElems: 100}))
		if second.PoolTasks != 1 || second.WorkerSpawns != 0 {
			t.Errorf("second fresh session: PoolTasks = %d, WorkerSpawns = %d; want 1 task on the first session's parked helper, 0 spawns",
				second.PoolTasks, second.WorkerSpawns)
		}
	})
}

// TestSharedWorkerPoolAcrossSessions: one pool bounds several sessions;
// concurrent evaluations on it stay correct.
func TestSharedWorkerPoolAcrossSessions(t *testing.T) {
	pool := NewWorkerPool(4)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := seq(700), seq(700)
			s := NewSession(Options{Workers: 2, BatchElems: 64, WorkerPool: pool})
			c := s.Call(fnAddNew, saAddNew, a, b)
			got, err := c.Float64s()
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != a[i]+b[i] {
					t.Errorf("shared-pool result corrupt at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pool.Tasks() == 0 {
		t.Error("shared pool saw no tasks")
	}
}

// TestPoisonPoolsConcurrentSessions is the buffer-leak proof the issue asks
// for, run under -race -count=2 by the flakiness gate: many sessions evaluate
// concurrently with poison mode overwriting every pooled buffer slot on
// hand-back. Any code path that retained a piece, argument table, or merge
// scratch past its put would observe poisonedBuffer{} and corrupt a result
// or trip an assertion; results staying exact across iterations proves the
// pools never leak across evaluations or sessions.
func TestPoisonPoolsConcurrentSessions(t *testing.T) {
	const (
		goroutines = 8
		iters      = 8
		n          = 512
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := seq(n), seq(n)
			s := NewSession(Options{Workers: 1 + g%4, BatchElems: 37, PoisonPools: true})
			for it := 0; it < iters; it++ {
				c := s.Call(fnAddNew, saAddNew, a, b)
				d := s.Call(fnAddNew, saAddNew, c, b).Keep() // read below despite in-stage consumer
				sum := s.Call(fnSum, saSum, d)
				got, err := d.Float64s()
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				var wantSum float64
				for i := range got {
					want := a[i] + 2*b[i]
					if got[i] != want {
						t.Errorf("goroutine %d iter %d: poisoned buffer leaked into result at %d: got %v want %v", g, it, i, got[i], want)
						return
					}
					wantSum += want
				}
				gotSum, err := sum.Float64()
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if diff := gotSum - wantSum; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("goroutine %d iter %d: reduction corrupt: got %v want %v", g, it, gotSum, wantSum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoisonPoolsMutWriteBack covers the copying-splitter write-back path
// under poison mode: the merge scratch that carries mutated pieces back must
// be consumed before it is poisoned and pooled.
func TestPoisonPoolsMutWriteBack(t *testing.T) {
	m := newTestMatrix(24, 18)
	ref := m.clone()
	fnNormalizeAxis([]any{ref, 1})
	s := NewSession(Options{Workers: 3, BatchElems: 5, PoisonPools: true})
	fut := s.Track(m)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 1)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*testMatrix)
	for i := range got.data {
		if got.data[i] != ref.data[i] {
			t.Fatalf("write-back corrupt at %d", i)
		}
	}
}
