package detect

import "predctl/internal/deposet"

// HoldsFn gives the truth of a per-process local condition at state (p, k).
type HoldsFn func(p, k int) bool

// PossiblyTruth is PossiblyConjunctive generalized over any causal view
// (plain or controlled computation) with the conjuncts given as a truth
// function. Processes are "constant true" wherever holds returns true.
// It is PossiblyTruthPar with one worker.
func PossiblyTruth(v deposet.View, holds HoldsFn) (deposet.Cut, bool) {
	return PossiblyTruthPar(v, holds, Par{Workers: 1})
}

// OverlapsView is the overlap clause of Overlaps evaluated on any causal
// view; see Overlaps for the clause and its boundary-adjacent reading.
func OverlapsView(v deposet.View, ii, ij deposet.Interval) bool {
	if ii.Lo == 0 || ij.Hi == v.Len(ij.P)-1 {
		return true
	}
	return v.HB(deposet.StateID{P: ii.P, K: ii.Lo - 1}, deposet.StateID{P: ij.P, K: ij.Hi + 1})
}

// truthIntervals returns the maximal runs where holds is true on p.
func truthIntervals(v deposet.View, p int, holds HoldsFn) []deposet.Interval {
	var ivs []deposet.Interval
	m := v.Len(p)
	for k := 0; k < m; {
		if !holds(p, k) {
			k++
			continue
		}
		lo := k
		for k < m && holds(p, k) {
			k++
		}
		ivs = append(ivs, deposet.Interval{P: p, Lo: lo, Hi: k - 1})
	}
	return ivs
}

// DefinitelyTruth is DefinitelyConjunctive generalized over any causal
// view with the conjuncts given as a truth function. It is
// DefinitelyTruthPar with one worker.
func DefinitelyTruth(v deposet.View, holds HoldsFn) ([]deposet.Interval, bool) {
	return DefinitelyTruthPar(v, holds, Par{Workers: 1})
}
