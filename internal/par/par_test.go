package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("defaulted worker count must be >= 1")
	}
}

func TestForEachCoversAllIndexes(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		hits := make([]atomic.Int32, n)
		if err := ForEach(ctx, workers, n, func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	if err := ForEach(ctx, 4, 0, func(int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestForEachCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// Cancel from inside a task: no further index may be claimed after
		// in-flight tasks drain, and the cancellation cause must surface.
		ctx, cancel := context.WithCancelCause(context.Background())
		cause := errors.New("stop here")
		n := 1000
		var ran atomic.Int32
		err := ForEach(ctx, workers, n, func(i int) {
			if ran.Add(1) == 5 {
				cancel(cause)
			}
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want cause %v", workers, err, cause)
		}
		// In-flight tasks finish, so up to `workers` extra calls may land
		// after the cancel — but nowhere near the full index space.
		if got := ran.Load(); got >= int32(n) {
			t.Fatalf("workers=%d: ran %d of %d tasks after cancel", workers, got, n)
		}
		cancel(nil)
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, workers, 10, func(int) { t.Error("fn ran under a dead context") })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestConflictOrderedSerializesPerKey(t *testing.T) {
	// 60 tasks over two disjoint key families, two keys per task: same-key
	// tasks must run in index order and never concurrently.
	n := 60
	keysOf := func(i int) []uint64 { return []uint64{uint64(i % 6), uint64(6 + (i*5)%7)} }
	var mu sync.Mutex
	perKey := make(map[uint64][]int)
	inKey := make(map[uint64]bool)
	err := ConflictOrdered(context.Background(), 8, n, keysOf, func(i int) {
		mu.Lock()
		for _, k := range keysOf(i) {
			if inKey[k] {
				t.Errorf("task %d entered busy key %d", i, k)
			}
			inKey[k] = true
		}
		mu.Unlock()
		mu.Lock()
		for _, k := range keysOf(i) {
			perKey[k] = append(perKey[k], i)
			inKey[k] = false
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("ConflictOrdered: %v", err)
	}
	for k, order := range perKey {
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] {
				t.Errorf("key %d ran out of order: %v", k, order)
			}
		}
	}
}

func TestConflictOrderedRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		n := 200
		hits := make([]atomic.Int32, n)
		// All tasks share key 0 plus a private key: fully serialized.
		err := ConflictOrdered(context.Background(), workers, n, func(i int) []uint64 {
			return []uint64{0, uint64(1 + i)}
		}, func(i int) { hits[i].Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: ConflictOrdered: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestConflictOrderedSharedKeyPreservesTotalOrder(t *testing.T) {
	// When every task shares one key the parallel schedule must equal the
	// sequential one exactly.
	n := 50
	var order []int
	err := ConflictOrdered(context.Background(), 8, n, func(i int) []uint64 { return []uint64{42} },
		func(i int) { order = append(order, i) })
	if err != nil {
		t.Fatalf("ConflictOrdered: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d; schedule %v", i, got, order)
		}
	}
}

func TestConflictOrderedDuplicateAndEmptyKeys(t *testing.T) {
	n := 20
	hits := make([]atomic.Int32, n)
	err := ConflictOrdered(context.Background(), 4, n, func(i int) []uint64 {
		if i%3 == 0 {
			return nil // keyless: unconstrained
		}
		return []uint64{7, 7} // duplicate key must not self-deadlock
	}, func(i int) { hits[i].Add(1) })
	if err != nil {
		t.Fatalf("ConflictOrdered: %v", err)
	}
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestConflictOrderedCancelled(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancelCause(context.Background())
		cause := errors.New("watchdog stall")
		n := 500
		var ran atomic.Int32
		// Fully serialized schedule so the cancel point is well inside the run.
		err := ConflictOrdered(ctx, workers, n, func(i int) []uint64 { return []uint64{1} },
			func(i int) {
				if ran.Add(1) == 3 {
					cancel(cause)
				}
			})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want cause %v", workers, err, cause)
		}
		if got := ran.Load(); got >= int32(n) {
			t.Fatalf("workers=%d: ran %d of %d tasks after cancel", workers, got, n)
		}
		cancel(nil)
	}
}

// ForEachWorker hands every index to exactly one call, numbers the
// workers within [0, workers), and never runs two calls of one worker at
// once: per-worker storage needs no lock.
func TestForEachWorkerExclusiveWorkers(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3, 8} {
		n := 500
		hits := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, workers)
		err := ForEachWorker(ctx, workers, n, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: worker %d out of range", workers, w)
				return
			}
			if busy[w].Swap(true) {
				t.Errorf("workers=%d: worker %d ran two calls at once", workers, w)
			}
			hits[i].Add(1)
			busy[w].Store(false)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}
