package core

import (
	"sync"

	"ppcd/internal/linalg"
)

// solveScheduler is the engine's shared work pool. Earlier revisions spawned
// a goroutine per task behind a per-call semaphore, separately for each
// RekeyAll / RekeyAllGrouped / hashGroups invocation — so concurrent
// publishes competed with their own pools, every task paid a goroutine
// spawn, and no solve state survived between tasks. The scheduler replaces
// all of those fan-outs with one bounded pool per engine:
//
//   - Tasks from every caller land in a single FIFO queue, so a rebuild
//     storm across many policies/configurations keeps every worker busy
//     until the queue drains instead of serializing per call site.
//   - Workers are spawned on demand up to the cap and exit when the queue
//     empties — idle engines hold zero goroutines.
//   - Each running worker carries a *solveScratch with a reusable
//     linalg.Workspace and matrix backing, so shard solves after warm-up
//     allocate only their result vectors. Scratches are pooled process-wide
//     (sync.Pool), surviving worker exit and engine churn.
//   - The cap also bounds the goroutines one large solve stripes its
//     elimination over (linalg.Workspace.Workers): a worker hands its
//     scratch the pool's cap, so an engine of one worker solves strictly
//     serially. Those helpers are plain goroutines, not tasks, and the
//     solving worker claims stripes beside them, so no task waits on
//     another task.
type solveScheduler struct {
	cap int

	mu      sync.Mutex
	queue   []func(*solveScratch)
	head    int
	running int
}

// solveScratch is the per-worker reusable solve state.
type solveScratch struct {
	ws *linalg.Workspace
}

var scratchPool = sync.Pool{
	New: func() any { return &solveScratch{ws: linalg.NewWorkspace()} },
}

func newSolveScheduler(workers int) *solveScheduler {
	if workers < 1 {
		workers = 1
	}
	return &solveScheduler{cap: workers}
}

// submit enqueues one task and ensures a worker will run it. Tasks must not
// block on other scheduled tasks (the pool is bounded); the engine's tasks
// are independent solves and hashes, joined by the caller's WaitGroup.
func (s *solveScheduler) submit(fn func(*solveScratch)) {
	s.mu.Lock()
	s.queue = append(s.queue, fn)
	spawn := s.running < s.cap
	if spawn {
		s.running++
	}
	s.mu.Unlock()
	if spawn {
		go s.work()
	}
}

// Parallel runs fn(0..n-1) across a bounded spawn-on-demand worker pool —
// the same shape as the engine's solve scheduler (tasks drain a shared FIFO,
// idle pools hold zero goroutines) exposed for coarse data-parallel work
// outside the engine: internal/store fans snapshot-segment unseal+decode
// across it during recovery. workers ≤ 1 (or n ≤ 1) degrades to a plain
// loop. Parallel returns when every call has completed; fn must not block on
// other indices.
func Parallel(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sched := newSolveScheduler(workers)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		sched.submit(func(*solveScratch) {
			defer wg.Done()
			fn(i)
		})
	}
	wg.Wait()
}

func (s *solveScheduler) work() {
	sc := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(sc)
	sc.ws.Workers = s.cap
	for {
		s.mu.Lock()
		if s.head == len(s.queue) {
			s.queue = s.queue[:0]
			s.head = 0
			s.running--
			s.mu.Unlock()
			return
		}
		fn := s.queue[s.head]
		s.queue[s.head] = nil
		s.head++
		s.mu.Unlock()
		fn(sc)
	}
}
