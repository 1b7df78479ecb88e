package livedetect

import (
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/wire"
)

// iv builds a 2-node interval with the given clock endpoints.
func iv(proc int, loIdx, hiIdx int64, lo, hi []int32) Interval {
	return Interval{Proc: proc, LoIdx: loIdx, HiIdx: hiIdx, Lo: lo, Hi: hi}
}

func TestCheckerTriggersOnConcurrentIntervals(t *testing.T) {
	c := New(2)
	if c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0})) {
		t.Fatal("single queue must not trigger")
	}
	// Concurrent with proc 0's interval: neither lo dominates the
	// other's hi component.
	if !c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("pairwise overlappable fronts must trigger")
	}
	if !c.Pending(0) {
		t.Fatal("trigger must be pending confirmation")
	}
	w := c.Witness()
	if len(w) != 2 || w[0].Proc != 0 || w[1].Proc != 1 {
		t.Fatalf("witness = %+v", w)
	}
	if !c.Confirm(0) || c.Confirm(0) {
		t.Fatal("confirm must succeed exactly once")
	}
	if !c.Fired() {
		t.Fatal("confirmed detection must report Fired")
	}
}

func TestCheckerEliminatesOrderedIntervals(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	// Proc 1's interval starts causally after proc 0's ended
	// (lo[0]=3 ≥ hi[0]=2): proc 0's front is eliminated.
	if c.Offer(0, iv(1, 1, 2, []int32{3, 1}, []int32{3, 2})) {
		t.Fatal("causally ordered intervals must not trigger")
	}
	if _, dropped, _ := c.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if c.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (only proc 1's interval left)", c.Depth())
	}
}

func TestCheckerEpochDiscardAndReplayDedup(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	// A session-resume replay of the same interval is a no-op.
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	if c.Depth() != 1 {
		t.Fatalf("replayed offer duplicated the queue: depth = %d", c.Depth())
	}
	c.Reset(1)
	if c.Depth() != 0 || c.Epoch() != 1 {
		t.Fatalf("reset left depth=%d epoch=%d", c.Depth(), c.Epoch())
	}
	// Stale-epoch offers (the abandoned execution's stragglers) are dropped...
	if c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) || c.Depth() != 0 {
		t.Fatal("stale-epoch offer leaked into the checker")
	}
	// ...and after the reset the same state indices are acceptable again.
	c.Offer(1, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	if !c.Offer(1, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("fresh-epoch intervals must trigger")
	}
}

func TestCheckerRejectsMalformedClocks(t *testing.T) {
	c := New(2)
	// Candidate clocks come off the wire unchecked: a clockless interval
	// must not reach the queues, let alone complete a witness.
	if c.Offer(0, Interval{Proc: 0, LoIdx: 1, HiIdx: 2}) {
		t.Fatal("clockless interval triggered")
	}
	if c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("one well-formed queue must not trigger")
	}
	if offered, _, stale := c.Stats(); offered != 1 || stale != 1 {
		t.Fatalf("offered=%d stale=%d, want 1 and 1", offered, stale)
	}
	if c.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", c.Depth())
	}
}

func TestCheckerAcceptsIntervalEndingAtStateZero(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 0, 0, []int32{0, -1}, []int32{0, -1}))
	if _, _, stale := c.Stats(); stale != 0 || c.Depth() != 1 {
		t.Fatalf("interval [0..0] dropped as a replay: stale=%d depth=%d", stale, c.Depth())
	}
}

// Property: fed the maximal truth intervals of a computation, with the
// computation's own clocks, in any interleaving that keeps each
// process's order, the checker triggers exactly when offline detection
// finds a consistent cut where every local predicate holds.
func TestCheckerMatchesOfflineDetectionProperty(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		d := deposet.Random(r, deposet.DefaultGen(n, 6+r.Intn(30)))
		truth := deposet.RandomTruth(r, d, 0.3+0.5*r.Float64())
		holds := func(p, k int) bool { return truth[p][k] }
		pending := make([][]Interval, n)
		for p := range pending {
			for _, x := range d.FalseIntervals(p, func(k int) bool { return !truth[p][k] }) {
				pending[p] = append(pending[p], Interval{
					Proc: p, LoIdx: int64(x.Lo), HiIdx: int64(x.Hi),
					Lo: d.Clock(x.LoState()), Hi: d.Clock(x.HiState()),
				})
			}
		}
		c := New(n)
		triggered := false
		for {
			var ready []int
			for p := range pending {
				if len(pending[p]) > 0 {
					ready = append(ready, p)
				}
			}
			if len(ready) == 0 {
				break
			}
			p := ready[r.Intn(len(ready))]
			triggered = c.Offer(0, pending[p][0]) || triggered
			pending[p] = pending[p][1:]
		}
		if _, want := detect.PossiblyTruth(d, holds); triggered != want {
			t.Fatalf("seed %d: checker triggered=%v, offline possibly=%v", seed, triggered, want)
		}
	}
}

func TestCheckerForceTrigger(t *testing.T) {
	c := New(2)
	if c.ForceTrigger(3) {
		t.Fatal("force-trigger for a foreign epoch must refuse")
	}
	if !c.ForceTrigger(0) || !c.Pending(0) {
		t.Fatal("force-trigger must arm the pending state")
	}
}

// prefix op-stream helpers.
func initOp(p int) wire.TraceOp { return wire.TraceOp{Op: wire.TraceInit, Proc: int32(p), Name: "cs"} }
func set(p, v int) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceSet, Proc: int32(p), Name: "cs", Value: int64(v)}
}
func send(p int, id uint64) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceSend, Proc: int32(p), MsgID: id}
}
func recv(p int, id uint64) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceRecv, Proc: int32(p), MsgID: id}
}

func TestAssemblePrefixStopsAtUnmatchedRecv(t *testing.T) {
	// n=1: procs 0 (app) and 1 (ctl). The ctl stream has a recv whose
	// send is not staged yet; assemble would wedge, the prefix stops.
	ops := [][]wire.TraceOp{
		{initOp(0), set(0, 1)},
		{recv(1, 42), set(1, 7)},
	}
	d, consumed, err := AssemblePrefix(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if consumed[0] != 2 || consumed[1] != 0 {
		t.Fatalf("consumed = %v, want [2 0]", consumed)
	}
	if got := d.Len(1); got != 1 {
		t.Fatalf("ctl proc has %d states, want 1 (just ⊥)", got)
	}
	// Staging the send extends the prefix past the former stop.
	ops[0] = append(ops[0], send(0, 42))
	_, consumed, err = AssemblePrefix(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if consumed[0] != 3 || consumed[1] != 2 {
		t.Fatalf("consumed = %v, want [3 2]", consumed)
	}
}

func TestConfirmPrefixDecidesViolation(t *testing.T) {
	violation := predicate.And(
		predicate.LocalVarEq(0, "cs", 1),
		predicate.LocalVarEq(1, "cs", 1),
	)
	// Concurrent critical sections: no causality between the two app
	// streams, so a cut with both cs=1 exists.
	conc := [][]wire.TraceOp{
		{initOp(0), set(0, 1), set(0, 0)},
		{initOp(1), set(1, 1), set(1, 0)},
		nil, nil,
	}
	if _, found, err := ConfirmPrefix(2, conc, violation); err != nil || !found {
		t.Fatalf("concurrent CSs: found=%v err=%v, want detection", found, err)
	}
	// Serialized critical sections: proc 1 enters only after a message
	// chain from proc 0's exit, so no such cut exists.
	serial := [][]wire.TraceOp{
		{initOp(0), set(0, 1), set(0, 0), send(0, 1)},
		{initOp(1), recv(1, 1), set(1, 1), set(1, 0)},
		nil, nil,
	}
	if _, found, err := ConfirmPrefix(2, serial, violation); err != nil || found {
		t.Fatalf("serialized CSs: found=%v err=%v, want none", found, err)
	}
}
