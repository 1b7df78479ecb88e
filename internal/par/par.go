// Package par provides the worker-pool primitives behind the parallel
// detection/control engine: fixed sharding of an index space across
// GOMAXPROCS-bounded worker goroutines, with the degenerate one-worker
// case running inline (no goroutines, no synchronization) so sequential
// fallbacks cost nothing.
//
// The package is deliberately tiny: the parallel algorithms in
// internal/deposet, internal/detect and internal/offline are all
// round-synchronous (shard → barrier → shard …), so contiguous static
// shards plus a WaitGroup barrier is the whole requirement. Work items
// inside one round are uniform enough that work stealing would buy
// nothing, and static shards keep every pass deterministic.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: requested if positive,
// otherwise runtime.GOMAXPROCS(0); the result is clamped to [1, n] so a
// loop over n items never spawns idle workers. n ≤ 0 yields 1.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Shard returns the half-open range [lo, hi) of items owned by worker w
// out of `workers` over n items: contiguous, balanced to within one item.
func Shard(w, workers, n int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// ForShard partitions [0, n) into `workers` contiguous shards and calls
// fn(w, lo, hi) for each on its own goroutine, returning after all
// complete. With workers ≤ 1 (or n ≤ the shard width) it runs inline.
// fn must confine its writes to data owned by its shard; the return
// provides the barrier (happens-before edge) making those writes visible
// to the caller.
func ForShard(n, workers int, fn func(w, lo, hi int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo, hi := Shard(w, workers, n)
			fn(w, lo, hi)
		}(w)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) across `workers` shards.
func ForEach(n, workers int, fn func(i int)) {
	ForShard(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Loop is a round-synchronous sharded worker loop: the worker goroutines
// are spawned once and reused for every round, so a multi-round parallel
// scan (detection frontiers, clock-construction passes) pays goroutine
// startup and closure allocation once per loop instead of once per
// round. With one worker NewLoop returns nil, and a nil *Loop runs
// every round inline, like ForShard, without allocating.
type Loop struct {
	workers int
	n       int
	fn      func(w, lo, hi int)
	start   []chan struct{} // one per worker: tokens can't be stolen
	done    chan struct{}
}

// NewLoop spawns the workers of a round-synchronous loop. workers is
// resolved like Workers against shardHint, an upper bound on the item
// counts the rounds will use; with one worker it is nil, which runs
// rounds inline. The caller must Close the loop.
func NewLoop(shardHint, workers int) *Loop {
	workers = Workers(workers, shardHint)
	if workers == 1 {
		return nil
	}
	l := &Loop{workers: workers}
	l.start = make([]chan struct{}, workers)
	l.done = make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		ch := make(chan struct{}, 1)
		l.start[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				lo, hi := Shard(w, l.workers, l.n)
				l.fn(w, lo, hi)
				l.done <- struct{}{}
			}
		}(w, ch)
	}
	return l
}

// Workers returns the resolved worker count of the loop.
func (l *Loop) Workers() int {
	if l == nil {
		return 1
	}
	return l.workers
}

// Round partitions [0, n) into the loop's shards and runs fn(w, lo, hi)
// on every worker, returning after all complete. As with ForShard, fn
// must confine writes to data owned by its shard; the send/receive pairs
// give the same happens-before edges a spawn-and-wait barrier would.
func (l *Loop) Round(n int, fn func(w, lo, hi int)) {
	if l == nil {
		fn(0, 0, n)
		return
	}
	l.n, l.fn = n, fn
	for _, ch := range l.start {
		ch <- struct{}{}
	}
	for i := 0; i < l.workers; i++ {
		<-l.done
	}
}

// Each runs fn(i) for every i in [0, n) across the loop's shards.
func (l *Loop) Each(n int, fn func(i int)) {
	l.Round(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Close terminates the worker goroutines. The loop must not be used
// afterwards; Close must not race a Round.
func (l *Loop) Close() {
	if l == nil {
		return
	}
	for _, ch := range l.start {
		close(ch)
	}
}
