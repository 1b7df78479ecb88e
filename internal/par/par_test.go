package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, gmp},  // auto
		{-3, 100, gmp}, // auto
		{4, 100, 4},    // explicit
		{4, 2, 2},      // clamped to n
		{4, 0, 1},      // degenerate n
		{1, 100, 1},    // sequential
		{0, 1, 1},      // single item
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestShardCoversExactly(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for workers := 1; workers <= 9 && workers <= n; workers++ {
			next := 0
			for w := 0; w < workers; w++ {
				lo, hi := Shard(w, workers, n)
				if lo != next {
					t.Fatalf("n=%d w=%d/%d: lo=%d, want %d", n, w, workers, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d/%d: hi=%d < lo=%d", n, w, workers, hi, lo)
				}
				if hi-lo > n/workers+1 {
					t.Fatalf("n=%d w=%d/%d: shard width %d unbalanced", n, w, workers, hi-lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: shards end at %d", n, workers, next)
			}
		}
	}
}

func TestForEachVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		const n = 333
		var counts [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForShardInlineWhenSequential(t *testing.T) {
	// workers=1 must run on the calling goroutine (no data races even on
	// unsynchronized state).
	sum := 0
	ForShard(10, 1, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 10 {
			t.Fatalf("inline shard = (%d, %d, %d)", w, lo, hi)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestLoopInlineWhenSequential(t *testing.T) {
	// One worker needs no pool: the nil loop runs rounds on the calling
	// goroutine, and Close is a no-op.
	l := NewLoop(10, 1)
	if l != nil || l.Workers() != 1 {
		t.Fatalf("NewLoop(10, 1) = %v with %d workers, want nil and 1", l, l.Workers())
	}
	defer l.Close()
	sum := 0
	l.Round(10, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 10 {
			t.Fatalf("inline round = (%d, %d, %d)", w, lo, hi)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}
