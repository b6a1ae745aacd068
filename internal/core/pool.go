package core

import "sync"

// stealQueue is one worker's task deque. A mutex-guarded slice is
// enough here: tasks are whole per-stage-count searches (milliseconds
// to seconds each), so queue operations are nowhere near contended —
// the point of the structure is the stealing policy, not lock-free
// throughput.
type stealQueue struct {
	mu    sync.Mutex
	tasks []int
}

// popFront takes the owner's next task: queues are filled in priority
// order (most expensive first), so the owner always works on its most
// expensive remaining task.
func (q *stealQueue) popFront() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return 0, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

// stealBack takes a task from the opposite end — the victim's cheapest
// remaining work — so a thief never races the owner for the expensive
// task the owner is about to start.
func (q *stealQueue) stealBack() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.tasks)
	if n == 0 {
		return 0, false
	}
	t := q.tasks[n-1]
	q.tasks = q.tasks[:n-1]
	return t, true
}

// runWorkStealing executes run(w, t) exactly once for every t in
// tasks, using at most `workers` goroutines with per-worker deques and
// work stealing, and returns when all tasks have completed. w is the
// worker index (0 ≤ w < workers) executing the task; tasks run by the
// same worker run strictly serially, so per-worker state (such as a
// config arena) needs no locking.
//
// Worker 0 is the calling goroutine: the first — most expensive — task
// sets the makespan, and it starts at once on the thread that is already
// running instead of waiting for an idle one to wake and steal it.
//
// tasks must be given in scheduling-priority order (most expensive
// first); they are dealt round-robin so every worker starts on an
// expensive task, and idle workers steal the cheapest remaining task
// of a busy sibling. Compared with the previous
// one-goroutine-per-stage-count layout this keeps deep-pipeline
// searches from straggling: on a machine with fewer cores than
// pipeline depths, the deepest (slowest) searches begin immediately
// instead of time-slicing against every cheap shallow search.
//
// The task set is static — run() must not add tasks — which makes
// termination trivial: once a worker finds every deque empty, no task
// can ever appear again, so it exits.
func runWorkStealing(workers int, tasks []int, run func(worker, task int)) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			run(0, t)
		}
		return
	}
	queues := make([]stealQueue, workers)
	for i, t := range tasks {
		q := &queues[i%workers]
		q.tasks = append(q.tasks, t)
	}
	work := func(self int) {
		for {
			if t, ok := queues[self].popFront(); ok {
				run(self, t)
				continue
			}
			stolen := false
			for off := 1; off < workers; off++ {
				if t, ok := queues[(self+off)%workers].stealBack(); ok {
					run(self, t)
					stolen = true
					break
				}
			}
			if !stolen {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			work(self)
		}(w)
	}
	work(0)
	wg.Wait()
}
