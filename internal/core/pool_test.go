package core

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestRunInOrder checks the scheduler's contract over workers × tasks:
// every task runs exactly once on a worker index in range, a worker
// never re-enters run (per-worker state such as a candidate store needs
// no locking), worker 0 runs tasks[0], one worker runs the tasks in the
// given order, and with more workers, while tasks[0] holds worker 0,
// every other task completes on a helper. Each case repeats, since
// which worker claims a task first is up to the Go scheduler.
func TestRunInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 32} {
			for rep := 0; rep < 1000; rep++ {
				checkRunInOrder(t, workers, n)
			}
		}
	}
}

func checkRunInOrder(t *testing.T, workers, n int) {
	t.Helper()
	tasks := make([]int, n)
	for i := range tasks {
		tasks[i] = i * 3 // distinct values, priority order
	}
	// With helpers, tasks[0] waits for every other task: if it were not
	// worker 0's, or worker 0 also ran another task, this would show.
	block := workers >= 2
	othersDone := make(chan struct{})
	if n <= 1 {
		close(othersDone)
	}
	var mu sync.Mutex
	ranOn := make(map[int][]int, n) // task → workers that ran it
	var order []int
	active := make(map[int]bool) // worker → currently in run()
	others := 0
	runInOrder(workers, tasks, nil, func(w, task int) {
		mu.Lock()
		if w < 0 || w >= workers {
			t.Errorf("workers=%d n=%d: worker index %d out of range", workers, n, w)
		}
		if active[w] {
			t.Errorf("workers=%d n=%d: worker %d re-entered while running", workers, n, w)
		}
		active[w] = true
		ranOn[task] = append(ranOn[task], w)
		order = append(order, task)
		mu.Unlock()

		if block && task == tasks[0] {
			select {
			case <-othersDone:
			case <-time.After(10 * time.Second):
				t.Errorf("workers=%d n=%d: the other tasks never finished while tasks[0] ran", workers, n)
			}
		}

		mu.Lock()
		active[w] = false
		if task != tasks[0] {
			if others++; others == n-1 {
				close(othersDone)
			}
		}
		mu.Unlock()
	})
	if len(ranOn) != n {
		t.Errorf("workers=%d n=%d: %d distinct tasks ran, want %d", workers, n, len(ranOn), n)
	}
	for task, ws := range ranOn {
		if len(ws) != 1 {
			t.Errorf("workers=%d n=%d: task %d ran %d times, want once", workers, n, task, len(ws))
		}
	}
	if n == 0 {
		return
	}
	if ws := ranOn[tasks[0]]; len(ws) != 1 || ws[0] != 0 {
		t.Errorf("workers=%d n=%d: tasks[0] ran on workers %v, want [0]", workers, n, ws)
	}
	if workers == 1 && !slices.Equal(order, tasks) {
		t.Errorf("one worker ran %v, want %v", order, tasks)
	}
	if block {
		for _, task := range tasks[1:] {
			if ws := ranOn[task]; slices.Contains(ws, 0) {
				t.Errorf("workers=%d n=%d: task %d ran on worker 0 while tasks[0] held it", workers, n, task)
			}
		}
	}
}
