package main

import (
	"fmt"
	"math/rand"
	"time"

	"predctl/internal/node"
	"predctl/internal/obs"
)

const rogueDetectName = "rogue-detect"

// Rogue-detect cluster constants: small clusters with millisecond
// think and critical-section times, so the planted violation appears
// within the first rounds.
const (
	rogueThink = time.Millisecond
	rogueCS    = time.Millisecond
	// rogueTailPct is the detection-latency tail: a 30-second run joins
	// one sample per operation, 120 to 220 of them, so p75 leaves 30 to
	// 55 beyond it. The response is mostly the strategy search, whose
	// cost is heavy-tailed over the runs' prefixes: at this sample count
	// p90 moved by 0.15 of its median between runs of the same code from
	// sampling alone, and by 0.38 with host contention added.
	rogueTailPct = 75
	// rogueTimeout bounds one run. When only the commit-time closing
	// pass finds the violation, the strategy search runs on the whole
	// trace and can take tens of seconds; a run past this bound fails.
	rogueTimeout = 60 * time.Second
)

// rogueDetect runs small clusters back to back, each with one planted
// rogue that enters its critical section without permission, and live
// detection on with OnDetect=note: the paper's detect → control step.
type rogueDetect struct {
	n, rounds int
	seed      int64
}

func newRogueDetect(sz size) workload {
	w := &rogueDetect{n: 4, rounds: 8}
	if sz == smokeSize {
		w.rounds = 4
	}
	return w
}

func (w *rogueDetect) inputs() string {
	return fmt.Sprintf("n=%d rounds=%d rogues=1 think=%v cs=%v", w.n, w.rounds, rogueThink, rogueCS)
}

func (w *rogueDetect) prepare(seed int64) error {
	w.seed = seed
	return nil
}

func (w *rogueDetect) op(i int, tr *tracer) (sample, error) {
	root := tr.begin("bench.op")
	defer tr.end(root)
	seed := opSeed(w.seed, i)
	// The scapegoat (node 0) starts out holding the anti-token; the
	// rogue is one of the others.
	rogue := 1 + rand.New(rand.NewSource(seed)).Intn(w.n-1)
	cfg := node.ClusterConfig{
		N: w.n, Rounds: w.rounds, Think: rogueThink, CS: rogueCS,
		Seed: seed, Scapegoat: 0, Rogues: []int{rogue}, Batching: node.Batching{Interval: flushInterval},
		Journal: obs.NewJournal(journalCap(w.n, w.rounds)), Reg: obs.NewRegistry(),
		Live:        node.LiveConfig{Predicate: node.CSMutexPredicate(w.n), OnDetect: node.OnDetectNote},
		WaitTimeout: rogueTimeout,
	}
	cr, err := runCluster(cfg, tr)
	if err != nil {
		return nil, err
	}
	chk := tr.begin("bench.check")
	err = checkCapture(cr, w.n, w.rounds, 0, rogue)
	tr.end(chk)
	if err != nil {
		return nil, err
	}
	// A planted rogue does not always create a violation; the live
	// verdict must match offline detection on the final trace either way.
	free, possiblyGeneral := violationFree(cr, w.n, tr)
	offlineFound := !free
	if cr.res.LiveFired != offlineFound {
		return nil, fmt.Errorf("live verdict %t, offline detection %t", cr.res.LiveFired, offlineFound)
	}
	app, err := appEvents(cr.j, w.n)
	if err != nil {
		return nil, err
	}
	s := clusterSample(cr, app, w.n*w.rounds, cr.wall-time.Duration(app.last))
	if offlineFound {
		s.set("violations", 1)
	}
	det, ok := firstMidRun(cr.res.Detections)
	if !ok {
		return s, nil
	}
	from, fired, err := joinDetection(cr.j, det)
	if err != nil {
		return nil, err
	}
	s.set("detect_ms", float64(det.AtNs-from)/1e6)
	s.set("respond_ms", float64(fired-from)/1e6)
	// The coordinator records the detection, computes the strategy, then
	// writes detect.fired: the gap is the strategy search, in place.
	s.set("offline.control_general_ms", float64(fired-det.AtNs)/1e6)
	if tr != nil {
		s.set("detect.possibly_general_ms", ms(possiblyGeneral))
		probeOffer(s, w.n, cr.j, tr)
		if err := probePrefix(s, w.n, captureOps(cr.res.Deposet), tr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// firstMidRun is the run's first detection confirmed while it was still
// running (commit-time closing-pass detections have no response step).
func firstMidRun(dets []node.DetectionRecord) (node.DetectionRecord, bool) {
	for _, d := range dets {
		if !d.Final {
			return d, true
		}
	}
	return node.DetectionRecord{}, false
}

// joinDetection finds, in the run's own journal, the witness
// candidate's node-side journal time (joined by node and HiIdx) and the
// coordinator's detect.fired annotation, written after the control
// strategy is computed. A detection that does not join fails the
// operation.
func joinDetection(j *obs.Journal, det node.DetectionRecord) (from, fired int64, err error) {
	from, fired = -1, -1
	for _, e := range j.Events() {
		switch {
		case e.Name == obs.EvCandidate && e.Proc == det.Node && e.B == det.WitnessHiIdx && from < 0:
			from = e.At
		case e.Name == obs.EvDetect && e.Proc == -1 && e.A == int64(det.Node) && e.B == int64(det.Epoch) && e.At >= det.AtNs && fired < 0:
			fired = e.At
		}
	}
	if from < 0 {
		return 0, 0, fmt.Errorf("detection at node %d HiIdx %d has no witness candidate in the journal", det.Node, det.WitnessHiIdx)
	}
	if fired < 0 {
		return 0, 0, fmt.Errorf("detection at node %d has no %s annotation", det.Node, obs.EvDetect)
	}
	return from, fired, nil
}

// e2e reports the detection response (witness candidate → strategy
// computed) as response_ms, with the detection alone in the notes.
func (w *rogueDetect) e2e(kept []sample) ([]metric, []string) {
	resp, note := latencyMetrics(collect(kept, "respond_ms"), "response_ms", "respond_ms", rogueTailPct)
	det, _ := latencyMetrics(collect(kept, "detect_ms"), "detect_ms", "detect_ms", rogueTailPct)
	return clusterMetrics(kept, resp), []string{
		fmt.Sprintf("runs=%d", len(kept)),
		fmt.Sprintf("violating_runs=%d", len(collect(kept, "violations"))),
		note,
		fmt.Sprintf("detect_ms.p50 %.4g ms, detect_ms.tail (%s) %.4g ms", det[0].Value, det[1].Alias, det[1].Value),
	}
}
