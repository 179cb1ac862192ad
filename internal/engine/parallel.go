package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default parallelism for multi-machine
// drivers: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Gate is a counting semaphore bounding how many persistent workers
// execute simultaneously. Unlike RunParallel, which spawns goroutines
// per task batch, a Gate serves long-lived workers (one per fleet
// shard) that acquire a slot to execute a command batch and release it
// while blocked on cross-worker hand-offs — so a bounded worker count
// can never deadlock a pipeline of blocking exchanges as long as every
// blocked worker releases its slot first.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate with n slots; n < 1 is clamped to 1.
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free and takes it.
func (g *Gate) Acquire() { g.slots <- struct{}{} }

// Release returns a slot taken by Acquire.
func (g *Gate) Release() { <-g.slots }

// Slots returns the gate's capacity.
func (g *Gate) Slots() int { return cap(g.slots) }

// RunParallel executes the tasks concurrently on up to workers
// goroutines and returns the first error in task order (so the reported
// error does not depend on goroutine interleaving). workers <= 1, or a
// single task, runs sequentially with no goroutines.
//
// It is the synchronization-barrier primitive of the multi-core cluster
// (internal/multicore): independent cores (each owning its engine,
// scheduler, meters) step concurrently between barriers, and the
// cross-core work — the coordinator's DVFS decisions — runs sequentially
// at the barrier. Tasks must not share mutable state.
func RunParallel(workers int, tasks []func() error) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, task := range tasks {
			if err := task(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				errs[i] = tasks[i]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
