// Package detect implements the predicate-detection algorithms the
// active-debugging cycle relies on (paper §§1–2, 7):
//
//   - PossiblyConjunctive: weak conjunctive predicates — does some
//     consistent global state satisfy q1 ∧ … ∧ qn? (Garg–Waldecker.)
//     Detecting a *bug* "all servers unavailable" is possibly(∧ ¬availᵢ).
//   - DefinitelyConjunctive: strong conjunctive predicates — does every
//     global sequence pass through a state satisfying ∧qᵢ? This is the
//     interval-overlap condition of the paper's Lemma 2, and with
//     qᵢ = ¬lᵢ it decides infeasibility of disjunctive control.
//   - IntervalQueues: weak conjunctive detection on-line, over true
//     intervals reported with vector clocks as a run proceeds (the
//     simulator monitor's checker process and the cluster's live
//     checker). All three run one elimination kernel (kernel.go).
//   - PossiblyGeneral / AllViolations / SGSD: general predicates. Those
//     in the regular fragment (predicate.IsRegular) dispatch to the
//     computation slice (internal/slice) and run in polynomial time; the
//     rest fall back to exhaustive lattice search (exponential — Lemma 1
//     shows SGSD is NP-complete), which also serves as the
//     cross-validation oracle (*Exhaustive variants in sliced.go).
package detect

import (
	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// PossiblyConjunctive reports whether some consistent global state of d
// satisfies the conjunction cj, returning a witness cut if so. It runs
// the Garg–Waldecker weak-conjunctive-predicate algorithm: keep one
// candidate state per process (the earliest state satisfying that
// process's conjunct) and, whenever two candidates are causally ordered,
// advance the earlier one — it can never be part of a consistent cut with
// the later one or any of its successors. Time O(n²·S) for S total
// states; no lattice enumeration. Large computations (DefaultParCutoff
// total states) run the worker-sharded variant transparently; see
// PossiblyTruthPar.
func PossiblyConjunctive(d *deposet.Deposet, cj *predicate.Conjunction) (deposet.Cut, bool) {
	return PossiblyTruthPar(d, func(p, k int) bool { return cj.Holds(d, p, k) }, Par{})
}

// Overlaps evaluates the paper's overlap clause for the ordered pair of
// intervals (Iᵢ, Iⱼ): "Iⱼ cannot be exited before Iᵢ is entered". In the
// state-causality convention used here (s → t means "t reached implies s
// exited"), the clause is
//
//	Iᵢ.lo = ⊥ᵢ  ∨  Iⱼ.hi = ⊤ⱼ  ∨  (i, lo_i−1) → (j, hi_j+1).
//
// Note the boundary-adjacent states: entering Iᵢ means exiting the state
// before its lo, and exiting Iⱼ means reaching the state after its hi.
// Reading the paper's "Iᵢ.lo → Iⱼ.hi" literally on the interval endpoint
// states is subtly incomplete: a message sent from the state just before
// lo_i and received just after hi_j forces the overlap but relates
// (lo_i−1) to (hi_j+1), not lo_i to hi_j. See overlap_test.go for a
// concrete computation distinguishing the two readings.
func Overlaps(d *deposet.Deposet, ii, ij deposet.Interval) bool {
	return OverlapsView(d, ii, ij)
}

// DefinitelyConjunctive reports whether every global sequence of d passes
// through a state satisfying cj, returning a witness overlapping interval
// set if so (one qᵢ-interval per process, pairwise satisfying Overlaps in
// both directions — the paper's overlap predicate, Lemma 2).
//
// The algorithm mirrors the off-line control loop: keep a frontier
// interval per process and, when a pair (i, j) falsifies the overlap
// clause, advance j — interval Iⱼ can never overlap the current or any
// later interval of i, because interval starts only move causally later.
// Large computations run the worker-sharded variant transparently; see
// DefinitelyTruthPar.
func DefinitelyConjunctive(d *deposet.Deposet, cj *predicate.Conjunction) ([]deposet.Interval, bool) {
	return DefinitelyTruthPar(d, func(p, k int) bool { return cj.Holds(d, p, k) }, Par{})
}

// PossiblyGeneral reports whether some consistent global state satisfies
// an arbitrary predicate. Predicates in the regular fragment factor into
// a per-process truth table (predicate.RegularTable) and run the
// Garg–Waldecker fixpoint — polynomial, and the witness it finds is the
// satisfying set's unique least cut, the same cut the exhaustive
// breadth-first walk reports first. Everything else enumerates the
// lattice (exponential in n; see PossiblyGeneralExhaustive).
func PossiblyGeneral(d *deposet.Deposet, b predicate.Expr) (deposet.Cut, bool) {
	if tab, ok := predicate.RegularTable(b, d); ok {
		return PossiblyTruth(d, tab.Holds)
	}
	return PossiblyGeneralExhaustive(d, b)
}

// DefinitelyGeneral reports whether every interleaving of d passes
// through a state satisfying an arbitrary predicate b — equivalently,
// whether no single-step sequence through ¬b-cuts crosses the lattice.
// When ¬b is regular the question is answered on its slice in polynomial
// time (slice.SingleStepChain); otherwise by exhaustive search for an
// avoiding interleaving (¬SGSD(¬b); exponential — for conjunctive
// predicates prefer DefinitelyConjunctive).
func DefinitelyGeneral(d *deposet.Deposet, b predicate.Expr) bool {
	if sl, ok := violationSlice(d, b); ok {
		if _, avoidable, decided := sl.SingleStepChain(); decided {
			return !avoidable
		}
	}
	return DefinitelyGeneralExhaustive(d, b)
}

// AllViolations returns every consistent global state where b is false —
// the debugging view "where can the bug occur?" (paper §7 finds the cuts
// G and H this way). When ¬b is in the regular fragment the violations
// are exactly the cuts of ¬b's slice, enumerated without touching the
// rest of the lattice and returned in (depth, lexicographic) order;
// otherwise the full lattice is walked (exponential; see
// AllViolationsExhaustive), with the predicate compiled to packed
// per-state truth bits up front so per-cut evaluations are bit tests.
func AllViolations(d *deposet.Deposet, b predicate.Expr) []deposet.Cut {
	if sl, ok := violationSlice(d, b); ok {
		return sl.Cuts(1)
	}
	return AllViolationsExhaustive(d, b)
}
