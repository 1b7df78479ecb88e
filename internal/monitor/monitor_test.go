package monitor

import (
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/sim"
	"predctl/internal/vclock"
)

// phasedApp runs `phases` alternating q-false/q-true periods, keeping the
// trace variable "q" and the probe's SetLocal in lock step, with some
// app-level chatter to create causality.
func phasedApp(rounds int) func(*Probe) {
	return func(pr *Probe) {
		p := pr.P()
		p.Init("q", 0)
		pr.SetLocal(false)
		for r := 0; r < rounds; r++ {
			p.Work(sim.Time(1 + p.Rand().Intn(7)))
			if p.Rand().Intn(3) == 0 && pr.N() > 1 {
				to := p.Rand().Intn(pr.N() - 1)
				if to >= p.ID() {
					to++
				}
				pr.Send(to, r)
			}
			for {
				if _, _, ok := pr.TryRecv(); !ok {
					break
				}
			}
			q := p.Rand().Intn(2)
			p.Set("q", q)
			pr.SetLocal(q == 1)
			pr.Step()
		}
		p.Set("q", 1) // end true so late candidates exist
		pr.SetLocal(true)
	}
}

func qHolds(tr *sim.Trace, napps int) detect.HoldsFn {
	return func(p, k int) bool {
		if p >= napps {
			return true // the checker carries no conjunct
		}
		v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "q")
		return ok && v == 1
	}
}

func TestMonitorDetectsSimpleOverlap(t *testing.T) {
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(10)
		},
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(10)
		},
	}
	tr, det, err := Run(sim.Config{Trace: true, Seed: 1}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatal("both-true-everywhere must be detected")
	}
	if _, ok := detect.PossiblyTruth(tr.D, qHolds(tr, 2)); !ok {
		t.Fatal("trace disagrees")
	}
}

func TestMonitorRejectsOrderedIntervals(t *testing.T) {
	// P0 is true only before sending; P1 only after receiving: the true
	// intervals are causally ordered, so ∧q is impossible.
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Set("q", 0)
			pr.SetLocal(false)
			pr.Send(1, "go")
		},
		func(pr *Probe) {
			pr.P().Init("q", 0)
			pr.SetLocal(false)
			pr.Recv()
			pr.P().Set("q", 1)
			pr.SetLocal(true)
		},
	}
	tr, det, err := Run(sim.Config{Trace: true, Seed: 2}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if det.Found {
		t.Fatalf("ordered intervals wrongly detected: %+v", det.Intervals)
	}
	if _, ok := detect.PossiblyTruth(tr.D, qHolds(tr, 2)); ok {
		t.Fatal("trace disagrees: possibly should be false")
	}
}

// Property: the on-line checker's verdict equals the off-line detector's
// verdict on the very trace the run produced, across random workloads.
func TestMonitorMatchesOfflineDetectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%3)
		apps := make([]func(*Probe), n)
		for i := range apps {
			apps[i] = phasedApp(5 + int(uint64(seed>>8)%6))
		}
		tr, det, err := Run(sim.Config{
			Trace: true,
			Seed:  seed,
			Delay: sim.UniformDelay(1, 6),
		}, apps)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, want := detect.PossiblyTruth(tr.D, qHolds(tr, n))
		if det.Found != want {
			t.Logf("seed %d: checker=%v offline=%v", seed, det.Found, want)
			return false
		}
		if det.Found {
			// Witness intervals must be genuinely q-true in the trace.
			for p, c := range det.Intervals {
				for k := int(c.LoIdx); k <= int(c.HiIdx); k++ {
					v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "q")
					if !ok || v != 1 {
						t.Logf("seed %d: witness P%d[%d..%d] not q-true at %d",
							seed, p, c.LoIdx, c.HiIdx, k)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(sim.Config{Procs: 5}, make([]func(*Probe), 2)); err == nil {
		t.Fatal("Procs mismatch accepted")
	}
}

func TestProbeClockPiggyback(t *testing.T) {
	var sent, recvd vclock.VC
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.Step()
			pr.Send(1, "x")
			sent = pr.Clock()
		},
		func(pr *Probe) {
			pr.Recv()
			recvd = pr.Clock()
		},
	}
	_, _, err := Run(sim.Config{Seed: 5}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if recvd[0] < sent[0]-0 || recvd[1] == 0 {
		t.Fatalf("clock not merged: sent=%v recvd=%v", sent, recvd)
	}
}
