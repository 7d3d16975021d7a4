// Package par provides the small concurrency primitives the measurement
// pipeline fans out with: a bounded index-space worker pool and a
// deterministic conflict-ordered scheduler.
//
// Both primitives are designed for *deterministic* parallelism: callers
// write results into pre-sized, index-addressed slices, so the output of a
// parallel run is byte-for-byte identical to a sequential one regardless of
// scheduling. ConflictOrdered additionally serializes tasks that touch the
// same shared state (e.g. a simulated router's IP-ID counter) in submission
// order, which keeps even order-dependent side effects reproducible.
//
// Both pools are cancellable: they stop claiming new tasks once ctx is
// done and return the cancellation cause. Cancellation never interrupts a
// task mid-flight — a task that started runs to completion — so the set of
// executed indices is always a clean prefix of the claimed schedule and
// every per-index result slot is either fully written or untouched. With a
// background (never-cancelled) context the schedule is exactly the
// pre-cancellation behavior, so the determinism contract is unaffected.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines.
// With workers <= 1 it degenerates to a plain sequential loop (no goroutines
// spawned), so a Workers=1 run is exactly the sequential code path.
//
// Cancellation is checked before each index is claimed: once ctx is done no
// new fn call starts, in-flight calls finish, and ForEach returns the
// cancellation cause. It returns nil iff fn ran for every index.
//
// fn must confine its writes to per-index state (slot i of a pre-sized
// slice); ForEach establishes a happens-before edge between every fn call
// and ForEach's return.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	return ForEachWorker(ctx, workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach passing fn, with each index, the number w in
// [0, workers) of the goroutine that runs it (always 0 when sequential).
// Calls with the same w never overlap, so fn may also write per-worker
// state: storage w of a pre-sized slice, reused across the indices that
// worker claims. Which worker claims which index depends on scheduling,
// so per-worker state must not decide any result.
func ForEachWorker(ctx context.Context, workers, n int, fn func(w, i int)) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			fn(0, i)
		}
		return nil
	}
	var next struct {
		sync.Mutex
		i int
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				next.Lock()
				i := next.i
				next.i++
				next.Unlock()
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	// Claimed indices always run, so the pool completed iff the claim
	// counter passed n. The counter only stalls short of n when every
	// worker observed cancellation.
	next.Lock()
	complete := next.i >= n
	next.Unlock()
	if !complete {
		return context.Cause(ctx)
	}
	return nil
}

// ConflictOrdered runs n tasks on at most workers goroutines under two
// guarantees that together make side-effectful tasks deterministic:
//
//  1. Tasks sharing a conflict key never run concurrently.
//  2. Tasks sharing a conflict key run in ascending index order.
//
// keysOf(i) lists the conflict keys task i touches (duplicates are fine).
// Tasks with disjoint key sets run in parallel; the schedule reduces to a
// sequential loop when every task shares a key. Because every per-key queue
// is ordered by task index, the task with the smallest unfinished index is
// always runnable and the schedule cannot deadlock.
//
// Like ForEach, cancellation stops workers from claiming further ready
// tasks (each worker selects on ctx.Done against the ready queue);
// in-flight tasks finish and ConflictOrdered returns the cancellation
// cause, or nil iff every task ran.
func ConflictOrdered(ctx context.Context, workers, n int, keysOf func(i int) []uint64, run func(i int)) error {
	if n <= 0 {
		return nil
	}
	keys := make([][]uint64, n)
	queues := make(map[uint64][]int)
	for i := 0; i < n; i++ {
		ks := keysOf(i)
		// Dedupe: a task appearing twice in one queue would wait on itself.
		uniq := ks[:0:0]
		for _, k := range ks {
			dup := false
			for _, u := range uniq {
				dup = dup || u == k
			}
			if !dup {
				uniq = append(uniq, k)
			}
		}
		keys[i] = uniq
		for _, k := range uniq {
			queues[k] = append(queues[k], i)
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			run(i)
		}
		return nil
	}

	var mu sync.Mutex
	head := make(map[uint64]int, len(queues))
	// ready is sized for every task, so enqueueReady sends never block and
	// a worker abandoning the queue on cancellation cannot wedge another.
	ready := make(chan int, n)
	pending := n

	// atHeads reports whether task i is at the head of all its key queues.
	// Caller holds mu.
	atHeads := func(i int) bool {
		for _, k := range keys[i] {
			if queues[k][head[k]] != i {
				return false
			}
		}
		return true
	}

	dispatched := make([]bool, n)
	enqueueReady := func(i int) {
		if !dispatched[i] && atHeads(i) {
			dispatched[i] = true
			ready <- i
		}
	}

	mu.Lock()
	for i := 0; i < n; i++ {
		if len(keys[i]) == 0 {
			// Keyless task: conflicts with nothing.
			dispatched[i] = true
			ready <- i
			continue
		}
		enqueueReady(i)
	}
	mu.Unlock()

	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case i, ok := <-ready:
					if !ok {
						return
					}
					run(i)
					mu.Lock()
					for _, k := range keys[i] {
						head[k]++
					}
					// Completing i can only unblock the new heads of i's queues.
					for _, k := range keys[i] {
						if head[k] < len(queues[k]) {
							enqueueReady(queues[k][head[k]])
						}
					}
					pending--
					if pending == 0 {
						close(ready)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	complete := pending == 0
	mu.Unlock()
	if !complete {
		return context.Cause(ctx)
	}
	return nil
}
