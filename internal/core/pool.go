package core

import (
	"sync"
	"sync/atomic"
)

// runInOrder executes run(w, t) exactly once for every t in tasks,
// using `workers` goroutines, and returns when all tasks have
// completed. w is the worker index (0 ≤ w < workers) executing the task;
// tasks run by the same worker run strictly serially, so per-worker
// state (such as a candidate store) needs no locking.
//
// tasks must be given in priority order (most expensive first). Worker
// 0, the calling goroutine, runs tasks[0] at once; every idle worker
// then takes the next unstarted task from one shared cursor, so the
// most expensive remaining task always starts first. With one worker
// the tasks run in the given order. A worker the cursor has no task
// for helps c's running tasks (crew.help) until they have all ended.
func runInOrder(workers int, tasks []int, c *crew, run func(worker, task int)) {
	if len(tasks) == 0 {
		return
	}
	if c != nil {
		c.busy.Store(int32(workers))
	}
	var next atomic.Int64
	next.Store(1) // tasks[0] is worker 0's
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			run(w, tasks[i])
		}
		c.help(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	run(0, tasks[0])
	work(0)
	wg.Wait()
}
