package detect

import "predctl/internal/par"

// fronts is what the Garg–Waldecker elimination sees of its caller: one
// current front per process — a candidate state (PossiblyTruthPar), a
// candidate interval (DefinitelyTruthPar), or the head of a queue of
// reported intervals (IntervalQueues).
type fronts interface {
	// ruledOut reports that front i can join no witness with front j
	// or with any later front of j's process.
	ruledOut(i, j int) bool
	// next retires front i for its process's next front, reporting
	// false when the process has none.
	next(i int) bool
}

// eliminate is the one elimination kernel behind weak-conjunctive
// detection (Garg–Waldecker), the Lemma 2 overlap loop and the
// incremental interval checkers. Each round records, for every front,
// some other front that rules it out (its ruler), then retires every
// ruled-out front past all the successors its ruler still rules out. It
// reports true when a round finds no front ruled out (the fronts are a
// witness) and false as soon as a process has no next front.
//
// Retiring a round's fronts together reaches the same fixpoint as
// retiring them one at a time: fronts only move causally later, so a
// front once ruled out stays ruled out, and the surviving fronts — the
// witness — do not depend on the order of retirement. This is the round
// structure of Garg's work-optimal parallel detection. A round's O(n²)
// pair scan is sharded over loop when it has more than one worker and
// runs inline otherwise; ruler (one slot per process) is the caller's
// scratch.
func eliminate[F fronts](loop *par.Loop, ruler []int, f F) bool {
	n := len(ruler)
	// Only a sharded loop gets a closure. It escapes into the worker
	// pool, so it writes slots of its own; the inline path allocates
	// nothing, and the caller's slots may live on its stack.
	var round func(w, lo, hi int)
	if loop.Workers() > 1 {
		shared := make([]int, n)
		round = func(_, lo, hi int) { findRulers(f, shared, lo, hi) }
		ruler = shared
	}
	for {
		if round == nil {
			findRulers(f, ruler, 0, n)
		} else {
			loop.Round(n, round)
		}
		advanced := false
		for i, j := range ruler {
			if j < 0 {
				continue
			}
			advanced = true
			for {
				if !f.next(i) {
					return false
				}
				if !f.ruledOut(i, j) {
					break
				}
			}
		}
		if !advanced {
			return true
		}
	}
}

// stackRulers is the process count up to which callers keep eliminate's
// ruler slots in a stack array (see rulers).
const stackRulers = 64

// rulers returns n ruler slots, in buf when it is large enough.
func rulers(buf []int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// findRulers sets ruler[i], for i in [lo, hi), to the first front that
// rules front i out, or -1 when none does.
func findRulers[F fronts](f F, ruler []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		ruler[i] = -1
		for j := range ruler {
			if i != j && f.ruledOut(i, j) {
				ruler[i] = j
				break
			}
		}
	}
}

// ClockInterval is one maximal true-interval of a process's local
// predicate as reported at run time: Lo and Hi are the vector clocks of
// its first and last state, LoIdx and HiIdx their traced state indices.
// Clocks follow the vclock convention (component q of a state's clock
// is the newest state of q that causally precedes or is that state).
type ClockInterval struct {
	Proc         int
	LoIdx, HiIdx int64
	Lo, Hi       []int32
}

// IntervalQueues is the incremental form of the elimination, the
// checker process of on-line weak-conjunctive detection: intervals
// arrive one at a time, in order per process, and queue behind their
// process's front. Interval Iᵢ is ruled out by Iⱼ when it wholly
// precedes it (Iᵢ's last state causally precedes Iⱼ's first,
// Lo(Iⱼ)[i] ≥ Hi(Iᵢ)[i]); later intervals of j start later still, so
// Iᵢ can never be simultaneous with any of them and is dropped. When
// every queue is non-empty and no front is ruled out, the fronts are
// pairwise overlappable and the weak-conjunctive-predicate theorem
// guarantees a consistent global state inside all of them.
//
// IntervalQueues is not safe for concurrent use.
type IntervalQueues struct {
	queues  [][]ClockInterval
	ruler   []int
	dropped int64
}

// NewIntervalQueues returns empty queues for n processes.
func NewIntervalQueues(n int) *IntervalQueues {
	return &IntervalQueues{queues: make([][]ClockInterval, n), ruler: make([]int, n)}
}

// Offer queues iv behind its process's earlier intervals and runs the
// elimination. It reports whether the fronts now form a witness. The
// caller guarantees 0 ≤ iv.Proc < n and n components in both clocks.
func (q *IntervalQueues) Offer(iv ClockInterval) bool {
	q.queues[iv.Proc] = append(q.queues[iv.Proc], iv)
	for _, pending := range q.queues {
		if len(pending) == 0 {
			return false // need more intervals before a verdict
		}
	}
	return eliminate(nil, q.ruler, q)
}

func (q *IntervalQueues) ruledOut(i, j int) bool {
	return q.queues[j][0].Lo[i] >= q.queues[i][0].Hi[i]
}

func (q *IntervalQueues) next(i int) bool {
	q.queues[i] = q.queues[i][1:]
	q.dropped++
	return len(q.queues[i]) > 0
}

// Fronts returns a copy of every process's front interval, or nil while
// some queue is empty. After Offer reports true it is the witness.
func (q *IntervalQueues) Fronts() []ClockInterval {
	out := make([]ClockInterval, len(q.queues))
	for p, pending := range q.queues {
		if len(pending) == 0 {
			return nil
		}
		out[p] = pending[0]
	}
	return out
}

// Dropped returns the number of intervals the elimination has retired
// since the queues were made.
func (q *IntervalQueues) Dropped() int64 { return q.dropped }

// Depth returns the total number of queued intervals.
func (q *IntervalQueues) Depth() int {
	d := 0
	for _, pending := range q.queues {
		d += len(pending)
	}
	return d
}

// Reset empties every queue. The drop count carries over.
func (q *IntervalQueues) Reset() {
	clear(q.queues)
}
