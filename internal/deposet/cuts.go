package deposet

import (
	"fmt"
	"strconv"
	"strings"

	"predctl/internal/vclock"
)

// Cut is a global state: one local state index per process. Cut[p] = k
// selects state (p, k).
type Cut []int

// Clone returns an independent copy of g.
func (g Cut) Clone() Cut {
	h := make(Cut, len(g))
	copy(h, g)
	return h
}

// Equal reports whether g and h select the same states.
func (g Cut) Equal(h Cut) bool {
	if len(g) != len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// Leq reports g ≤ h in the lattice order (component-wise).
func (g Cut) Leq(h Cut) bool {
	for i := range g {
		if g[i] > h[i] {
			return false
		}
	}
	return true
}

// Key returns a compact map key for g.
func (g Cut) Key() string {
	var b strings.Builder
	for i, k := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
	}
	return b.String()
}

func (g Cut) String() string { return "⟨" + g.Key() + "⟩" }

// BottomCut returns the initial global state ⊥ = (⊥0, …, ⊥n-1).
func (d *Deposet) BottomCut() Cut { return make(Cut, d.NumProcs()) }

// TopCut returns the final global state ⊤.
func (d *Deposet) TopCut() Cut {
	g := make(Cut, d.NumProcs())
	for p := range g {
		g[p] = d.lens[p] - 1
	}
	return g
}

// InRange reports whether g selects a valid state on every process.
func (d *Deposet) InRange(g Cut) bool {
	if len(g) != d.NumProcs() {
		return false
	}
	for p, k := range g {
		if k < 0 || k >= d.lens[p] {
			return false
		}
	}
	return true
}

// Consistent reports whether the global state g is consistent: its
// frontier states are pairwise concurrent. Using the vector-clock
// convention, g is consistent iff for all i ≠ j, vc[j][g[j]][i] < g[i]
// (no frontier state causally precedes another).
func (d *Deposet) Consistent(g Cut) bool { return d.clocks.Consistent(g) }

// States returns the frontier states selected by g.
func (d *Deposet) States(g Cut) []StateID {
	ss := make([]StateID, len(g))
	for p, k := range g {
		ss[p] = StateID{p, k}
	}
	return ss
}

// ForEachConsistentCut enumerates every consistent global state exactly
// once, in breadth-first lattice order starting at ⊥, calling f for each.
// Enumeration stops early if f returns false. The number of consistent
// cuts can be exponential in n; this is intended for small computations
// (exhaustive verification, debugging).
func (d *Deposet) ForEachConsistentCut(f func(Cut) bool) { EachConsistentCut(d.clocks, f) }

// CountConsistentCuts returns the size of the lattice Gc.
func (d *Deposet) CountConsistentCuts() int { return CountConsistentCuts(d.clocks) }

// EachConsistentCut is ForEachConsistentCut for any computation given
// by its state clocks — the deposet's own, or the extended clocks of a
// controlled computation.
func EachConsistentCut(clocks *vclock.Arena, f func(Cut) bool) {
	n := clocks.N()
	start := make(Cut, n)
	if !clocks.Consistent(start) {
		// ⊥ is always consistent in a valid deposet; defensive.
		return
	}
	seen := map[string]bool{start.Key(): true}
	queue := []Cut{start}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		if !f(g) {
			return
		}
		for p := 0; p < n; p++ {
			if g[p]+1 >= clocks.Len(p) {
				continue
			}
			h := g.Clone()
			h[p]++
			if key := h.Key(); !seen[key] && clocks.Consistent(h) {
				seen[key] = true
				queue = append(queue, h)
			}
		}
	}
}

// CountConsistentCuts returns the number of consistent global states of
// the computation whose state clocks are clocks.
func CountConsistentCuts(clocks *vclock.Arena) int {
	c := 0
	EachConsistentCut(clocks, func(Cut) bool { c++; return true })
	return c
}

// Sequence is a global sequence: consistent global states from ⊥ to ⊤
// where each step advances every process by at most one state and at
// least one process advances (pure stutter repetitions are permitted by
// the model but never produced by this package's searches).
type Sequence []Cut

// ValidateSequence checks that seq is a global sequence of d.
func (d *Deposet) ValidateSequence(seq Sequence) error {
	if len(seq) == 0 {
		return fmt.Errorf("deposet: empty sequence")
	}
	if !seq[0].Equal(d.BottomCut()) {
		return fmt.Errorf("deposet: sequence starts at %v, not ⊥", seq[0])
	}
	if !seq[len(seq)-1].Equal(d.TopCut()) {
		return fmt.Errorf("deposet: sequence ends at %v, not ⊤", seq[len(seq)-1])
	}
	for i, g := range seq {
		if !d.InRange(g) {
			return fmt.Errorf("deposet: step %d out of range: %v", i, g)
		}
		if !d.Consistent(g) {
			return fmt.Errorf("deposet: step %d inconsistent: %v", i, g)
		}
		if i == 0 {
			continue
		}
		prev := seq[i-1]
		for p := range g {
			if g[p] != prev[p] && g[p] != prev[p]+1 {
				return fmt.Errorf("deposet: step %d advances process %d from %d to %d",
					i, p, prev[p], g[p])
			}
		}
	}
	return nil
}

// SomeSequence returns one global sequence of d (advancing a single
// process per step, chosen smallest-first). A valid deposet always has
// one. Useful as a linearization and in tests.
func (d *Deposet) SomeSequence() Sequence { return SomeSequence(d.clocks) }

// SomeSequence is Deposet.SomeSequence for any computation given by its
// state clocks — a deposet's own, or the extended clocks of a controlled
// computation. It panics if the clocks admit no single-step sequence,
// which a valid computation or a non-interfering control relation rules
// out.
func SomeSequence(clocks *vclock.Arena) Sequence {
	g := make(Cut, clocks.N())
	seq := Sequence{g.Clone()}
	top := make(Cut, len(g))
	for p := range top {
		top[p] = clocks.Len(p) - 1
	}
	for !g.Equal(top) {
		advanced := false
		for p := range g {
			if g[p] < top[p] {
				g[p]++
				if clocks.Consistent(g) {
					seq = append(seq, g.Clone())
					advanced = true
					break
				}
				g[p]--
			}
		}
		if !advanced {
			// Cannot happen in a valid deposet; avoid an infinite loop.
			panic("deposet: stuck constructing a global sequence")
		}
	}
	return seq
}
