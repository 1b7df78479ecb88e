package detect

import (
	"sort"

	"predctl/internal/deposet"
	"predctl/internal/par"
	"predctl/internal/predicate"
)

// DefaultParCutoff is the minimum total state count at which the
// detection algorithms shard across workers. Below it a handful of
// frontier rounds costs less than one barrier, so small traces take the
// sequential path and cannot regress.
const DefaultParCutoff = 2048

// Par configures the parallel detection engine. The zero value is the
// transparent default: GOMAXPROCS workers above DefaultParCutoff total
// states, sequential below. Tests force the parallel path with
// {Workers: k, Cutoff: 1}; Workers: 1 forces sequential at any size.
type Par struct {
	// Workers is the worker count; 0 resolves to GOMAXPROCS.
	Workers int
	// Cutoff is the minimum total state count for going parallel; 0
	// resolves to DefaultParCutoff.
	Cutoff int
}

// resolve returns the effective worker count for a view of `states`
// total states: 1 (sequential) below the cutoff or when only one worker
// is available.
func (o Par) resolve(states int) int {
	cutoff := o.Cutoff
	if cutoff <= 0 {
		cutoff = DefaultParCutoff
	}
	if states < cutoff {
		return 1
	}
	return par.Workers(o.Workers, states)
}

func viewStates(v deposet.View) int {
	total := 0
	for p := 0; p < v.NumProcs(); p++ {
		total += v.Len(p)
	}
	return total
}

// PossiblyTruthPar is PossiblyTruth with the elimination rounds sharded
// across workers; with one worker (the sequential PossiblyTruth) every
// round runs inline. Each process's front starts at its first
// holds-state; a front that causally precedes another front can join no
// consistent cut with it or with its successors, so eliminate retires
// it for the process's next holds-state. The result is the least fixed
// point: the minimal cut where every process sits at a holds-state and
// no frontier state causally precedes another.
func PossiblyTruthPar(v deposet.View, holds HoldsFn, opts Par) (deposet.Cut, bool) {
	n := v.NumProcs()
	f := stateFronts{v: v, holds: holds, cur: make(deposet.Cut, n)}
	for p := 0; p < n; p++ {
		if !f.seek(p) {
			return nil, false
		}
	}
	loop := par.NewLoop(n, opts.resolve(viewStates(v)))
	defer loop.Close()
	var buf [stackRulers]int
	if !eliminate(loop, rulers(buf[:], n), f) {
		return nil, false
	}
	return f.cur, true
}

// stateFronts are PossiblyTruthPar's fronts: the candidate state cur[p]
// of every process.
type stateFronts struct {
	v     deposet.View
	holds HoldsFn
	cur   deposet.Cut
}

func (f stateFronts) ruledOut(i, j int) bool {
	return f.v.HB(deposet.StateID{P: i, K: f.cur[i]}, deposet.StateID{P: j, K: f.cur[j]})
}

func (f stateFronts) next(i int) bool {
	f.cur[i]++
	return f.seek(i)
}

// seek moves cur[p] to the first holds-state at or after it, reporting
// false when p has none.
func (f stateFronts) seek(p int) bool {
	for f.cur[p] < f.v.Len(p) && !f.holds(p, f.cur[p]) {
		f.cur[p]++
	}
	return f.cur[p] < f.v.Len(p)
}

// DefinitelyTruthPar is DefinitelyTruth with the interval extraction
// and the elimination rounds sharded across workers; with one worker
// (the sequential DefinitelyTruth) everything runs inline. Each
// process's front is one of its holds-intervals. A front Iⱼ falsifying
// the overlap clause against some front Iᵢ can never overlap Iᵢ or any
// later interval of i (interval starts only move causally later), so
// eliminate retires it for j's next interval. The surviving fronts
// pairwise satisfy the overlap clause — the paper's Lemma 2 witness.
func DefinitelyTruthPar(v deposet.View, holds HoldsFn, opts Par) ([]deposet.Interval, bool) {
	n := v.NumProcs()
	loop := par.NewLoop(n, opts.resolve(viewStates(v)))
	defer loop.Close()
	ivs := make([][]deposet.Interval, n)
	truthIntervalsOn(loop, ivs, v, holds)
	for p := 0; p < n; p++ {
		if len(ivs[p]) == 0 {
			return nil, false
		}
	}
	f := intervalFronts{v: v, ivs: ivs, cur: make([]int, n)}
	var buf [stackRulers]int
	if !eliminate(loop, rulers(buf[:], n), f) {
		return nil, false
	}
	witness := make([]deposet.Interval, n)
	for p := range witness {
		witness[p] = f.front(p)
	}
	return witness, true
}

// intervalFronts are DefinitelyTruthPar's fronts: interval ivs[p][cur[p]]
// of every process.
type intervalFronts struct {
	v   deposet.View
	ivs [][]deposet.Interval
	cur []int
}

func (f intervalFronts) front(p int) deposet.Interval { return f.ivs[p][f.cur[p]] }

func (f intervalFronts) ruledOut(i, j int) bool {
	return !OverlapsView(f.v, f.front(j), f.front(i))
}

func (f intervalFronts) next(i int) bool {
	f.cur[i]++
	return f.cur[i] < len(f.ivs[i])
}

// TruthIntervalsInto fills dst[p] with the maximal runs where holds is
// true on process p, extracting the per-process interval lists in
// parallel shards (each process's scan is independent). dst must have
// NumProcs entries. The off-line controller uses it to extract
// false-intervals by negating its local predicates.
func TruthIntervalsInto(dst [][]deposet.Interval, v deposet.View, opts Par, holds HoldsFn) {
	loop := par.NewLoop(len(dst), opts.resolve(viewStates(v)))
	defer loop.Close()
	truthIntervalsOn(loop, dst, v, holds)
}

// truthIntervalsOn is TruthIntervalsInto on an existing loop. Only a
// sharded loop gets a closure, so the inline path allocates nothing but
// the interval lists.
func truthIntervalsOn(loop *par.Loop, dst [][]deposet.Interval, v deposet.View, holds HoldsFn) {
	if loop.Workers() == 1 {
		for p := range dst {
			dst[p] = truthIntervals(v, p, holds)
		}
		return
	}
	loop.Each(len(dst), func(p int) {
		dst[p] = truthIntervals(v, p, holds)
	})
}

// AllViolationsPar is AllViolations across workers. When ¬b is regular
// the violations are the cuts of ¬b's slice, and the workers enumerate
// disjoint segments of the slice's ideal forest (slice.Cuts) — no
// visited maps, no level barriers, no cross-worker merge until the final
// sort, so the multi-worker path carries none of the synchronization
// overhead of the exhaustive walk. Non-regular predicates run the
// level-synchronized exhaustive walk (AllViolationsExhaustivePar). Both
// paths return (depth, lexicographic) order at any worker count above
// one; at one worker the non-regular path keeps the sequential
// enumerator's BFS discovery order.
func AllViolationsPar(d *deposet.Deposet, b predicate.Expr, opts Par) []deposet.Cut {
	if sl, ok := violationSlice(d, b); ok {
		return sl.Cuts(opts.resolve(d.NumStates()))
	}
	return AllViolationsExhaustivePar(d, b, opts)
}

// AllViolationsExhaustivePar is the lattice enumeration
// level-synchronized and sharded across workers: the consistent cuts at
// lattice depth ℓ (sum of frontier indices) all have depth-(ℓ+1)
// successors, so each level's consistency checks and predicate
// evaluations run in parallel shards, with a deterministic (sorted)
// merge between levels. The violation list therefore comes out in
// (depth, lexicographic) order — a fixed order, though not the BFS
// discovery order the sequential enumerator happens to produce. The
// predicate is compiled to packed per-state truth bits first, so the
// per-cut evaluations inside the shards never call a LocalFn. It is the
// cross-validation oracle and forced-baseline for the sliced path.
func AllViolationsExhaustivePar(d *deposet.Deposet, b predicate.Expr, opts Par) []deposet.Cut {
	workers := opts.resolve(d.NumStates())
	if workers == 1 {
		return AllViolationsExhaustive(d, b)
	}
	b = predicate.Compile(b, d)
	return allViolationsLevelSync(d, b, opts, nil)
}

// allViolationsLevelSync is the sharded level-synchronous walk shared by
// AllViolationsExhaustivePar and AllViolationsWithStats; b must already
// be compiled. stats, when non-nil, accumulates the cuts visited.
func allViolationsLevelSync(d *deposet.Deposet, b predicate.Expr, opts Par, stats *EnumStats) []deposet.Cut {
	workers := opts.resolve(d.NumStates())
	n := d.NumProcs()
	loop := par.NewLoop(workers, workers)
	defer loop.Close()
	var out []deposet.Cut
	level := []deposet.Cut{d.BottomCut()}
	type shardResult struct {
		violations []deposet.Cut
		next       map[string]deposet.Cut
	}
	results := make([]shardResult, loop.Workers())
	for len(level) > 0 {
		if stats != nil {
			stats.StatesExplored += len(level)
		}
		loop.Round(len(level), func(w, lo, hi int) {
			res := shardResult{next: make(map[string]deposet.Cut)}
			for x := lo; x < hi; x++ {
				g := level[x]
				if !b.Eval(d, g) {
					res.violations = append(res.violations, g)
				}
				for p := 0; p < n; p++ {
					if g[p]+1 >= d.Len(p) {
						continue
					}
					h := g.Clone()
					h[p]++
					key := h.Key()
					if _, dup := res.next[key]; dup {
						continue
					}
					if d.Consistent(h) {
						res.next[key] = h
					}
				}
			}
			results[w] = res
		})
		merged := make(map[string]deposet.Cut)
		for w := range results {
			for k, c := range results[w].next {
				merged[k] = c
			}
			out = append(out, results[w].violations...)
			results[w] = shardResult{}
		}
		keys := make([]string, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		level = level[:0]
		for _, k := range keys {
			level = append(level, merged[k])
		}
	}
	return out
}
