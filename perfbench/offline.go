package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"predctl"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
)

const offlineDebugName = "offline-debug"

// analyseTailPct is the per-trace analysis tail: a run analyses about
// two thousand traces, so p95 leaves about 100 beyond it. It falls
// among the largest traces, one in nine of the set; p99 followed host
// contention on those few analyses more than their cost.
const analyseTailPct = 95

// traceSize is one generated trace's shape and the probability that a
// local predicate of B holds at a state.
type traceSize struct {
	procs, events int
	density       float64
}

// offlineDebug analyses seeded random traces with a random disjunctive
// B: decode, Possibly(¬B), Definitely(¬B), Control, Replay and
// VerifyReplay, plus Violations on traces small enough to enumerate.
// No sockets: the capture-side layers are not exercised.
type offlineDebug struct {
	sizes []traceSize
	// perSize is how many traces of each size are generated; several
	// draws per size keep one seed's trace contents from setting the
	// run's figures.
	perSize int
	// setupReps is how many times set-up decodes the whole trace set;
	// setup_s is the median.
	setupReps int
	// enumerateMax is the largest trace (in states) Violations runs on.
	enumerateMax int

	traces []offlineTrace
	setups []float64
	// heap watches the heap from the end of set-up to the end of the
	// run; heap_peak_mb is the median of its one-second high-water marks.
	heap *heapWatch
}

// offlineTrace is one input: its trace JSON and the truth table of B's
// local predicates.
type offlineTrace struct {
	json   []byte
	truth  [][]bool
	states int
}

func newOfflineDebug(sz size) workload {
	w := &offlineDebug{
		// Total states straddle detect.DefaultParCutoff (2048) and
		// deposet.ParallelClockCutoff (4096); the two small traces are
		// the ones Violations enumerates. The sizes are an odd number
		// of classes whose analysis costs do not overlap, so the median
		// analysis falls inside the middle class (16×3600) rather than
		// on the gap between two classes, where one seed's traces would
		// tip it from one class to the other.
		sizes: []traceSize{
			{4, 40, 0.5}, {5, 60, 0.5},
			{8, 1600, 0.9}, {8, 2400, 0.6}, {16, 3600, 0.9}, {16, 4800, 0.9}, {16, 6000, 0.9}, {32, 9000, 0.9}, {32, 16000, 0.9},
		},
		perSize:      4,
		setupReps:    9,
		enumerateMax: 128,
	}
	if sz == smokeSize {
		w.sizes = []traceSize{{4, 40, 0.5}, {8, 1600, 0.9}, {8, 2400, 0.6}}
		w.perSize, w.setupReps = 1, 2
	}
	return w
}

func (w *offlineDebug) inputs() string {
	s := ""
	for i, t := range w.sizes {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%dx%d@%.2f", t.procs, t.events, t.density)
	}
	return fmt.Sprintf("traces=%s per_size=%d enumerate_max_states=%d setup_reps=%d",
		s, w.perSize, w.enumerateMax, w.setupReps)
}

// prepare generates the traces, encodes each once to trace JSON, then
// times decoding the whole set (which builds the vector clocks)
// setupReps times.
func (w *offlineDebug) prepare(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	w.traces = w.traces[:0]
	for k := 0; k < w.perSize; k++ {
		for _, sz := range w.sizes {
			d := deposet.Random(r, deposet.DefaultGen(sz.procs, sz.events))
			var buf bytes.Buffer
			if err := predctl.EncodeTrace(&buf, d, nil); err != nil {
				return err
			}
			w.traces = append(w.traces, offlineTrace{
				json: buf.Bytes(), truth: deposet.RandomTruth(r, d, sz.density), states: d.NumStates(),
			})
		}
	}
	w.setups = w.setups[:0]
	for rep := 0; rep < w.setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		for _, t := range w.traces {
			if _, _, err := predctl.DecodeTrace(bytes.NewReader(t.json)); err != nil {
				return err
			}
		}
		w.setups = append(w.setups, time.Since(start).Seconds())
	}
	w.heap = watchHeap()
	return nil
}

// op analyses trace i mod len(traces) and checks the answers against
// each other: Lemma 2 (Control is infeasible exactly when
// Definitely(¬B) holds), the controlled replay satisfying B, and the
// enumerated violations agreeing with Possibly(¬B).
func (w *offlineDebug) op(i int, tr *tracer) (sample, error) {
	root := tr.begin("bench.op")
	defer tr.end(root)
	in := w.traces[i%len(w.traces)]
	s := sample{}
	start := time.Now()
	var d *predctl.Computation
	var err error
	s.set("trace.decode_ms", ms(tr.timed("trace.Decode", func() { d, _, err = predctl.DecodeTrace(bytes.NewReader(in.json)) })))
	if err != nil {
		return nil, err
	}
	b := predicate.DisjunctionFromTruth(in.truth)
	notB := b.Negate()
	var possibly, definitely bool
	s.set("detect.possibly_ms", ms(tr.timed("detect.Possibly", func() { _, possibly = predctl.Possibly(d, notB) })))
	s.set("detect.definitely_ms", ms(tr.timed("detect.Definitely", func() { _, definitely = predctl.Definitely(d, notB) })))
	var cr *predctl.ControlResult
	s.set("offline.control_ms", ms(tr.timed("offline.Control", func() { cr, err = predctl.Control(d, b) })))
	infeasible := errors.Is(err, predctl.ErrInfeasible)
	if err != nil && !infeasible {
		return nil, fmt.Errorf("control: %w", err)
	}
	if infeasible != definitely {
		return nil, fmt.Errorf("control infeasible=%t but definitely(¬B)=%t (Lemma 2)", infeasible, definitely)
	}
	if infeasible {
		s.set("infeasible", 1)
	}
	if possibly {
		s.set("possibly", 1)
	}
	if !infeasible {
		s.set("offline.edges", float64(len(cr.Relation)))
		s.set("control.extend_ms", ms(tr.timed("control.Extend", func() { _, err = predctl.Extend(d, cr.Relation) })))
		if err != nil {
			return nil, fmt.Errorf("extend: %w", err)
		}
		var rr *predctl.ReplayResult
		finish := time.Now()
		s.set("replay.run_ms", ms(tr.timed("replay.Run", func() {
			rr, err = predctl.Replay(d, cr.Relation, predctl.ReplayConfig{Seed: int64(i)})
		})))
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		var bad predctl.Cut
		var holds bool
		s.set("replay.verify_ms", ms(tr.timed("replay.Verify", func() { bad, holds = predctl.VerifyReplay(rr, d, b) })))
		if !holds {
			return nil, fmt.Errorf("controlled replay violates B at %v", bad)
		}
		s.set("finish_s", time.Since(finish).Seconds())
	}
	if in.states <= w.enumerateMax {
		var cuts []predctl.Cut
		s.set("detect.violations_ms", ms(tr.timed("detect.Violations", func() { cuts = predctl.Violations(d, b.Expr()) })))
		if (len(cuts) > 0) != possibly {
			return nil, fmt.Errorf("%d violating cuts but possibly(¬B)=%t", len(cuts), possibly)
		}
	}
	s.set("analyse_ms", ms(time.Since(start)))
	if tr != nil {
		if in.states <= w.enumerateMax {
			var st detect.EnumStats
			tr.timed("slice.AllViolationsWithStats", func() { _, st = detect.AllViolationsWithStats(d, b.Expr(), detect.Par{}) })
			s.set("slice.states_explored", float64(st.StatesExplored))
		}
		if err := probeDeposet(s, d, false, tr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// e2e reports traces analysed per second of analysis time, the
// per-trace analysis latency, the replay-and-verify time of the
// controllable traces, the median set-up and the run's heap peak.
func (w *offlineDebug) e2e(kept []sample) ([]metric, []string) {
	lat := collect(kept, "analyse_ms")
	total := 0.0
	for _, v := range lat {
		total += v / 1e3
	}
	resp, note := latencyMetrics(lat, "response_ms", "analyse_ms", analyseTailPct)
	ms := []metric{
		{Name: "setup_s", Value: median(append([]float64(nil), w.setups...)), Unit: "s"},
		{Name: "work_per_s", Value: float64(len(lat)) / total, Unit: "1/s", Alias: "traces_per_s"},
	}
	ms = append(ms, resp...)
	ms = append(ms,
		metric{Name: "finish_s", Value: median(collect(kept, "finish_s")), Unit: "s", Alias: "replay_verify_s"},
		metric{Name: "heap_peak_mb", Value: median(w.heap.windowPeaks(time.Second)) / (1 << 20), Unit: "MiB"},
	)
	return ms, []string{
		fmt.Sprintf("traces_analysed=%d", len(kept)),
		fmt.Sprintf("controllable=%d infeasible=%d possibly_violated=%d", len(collect(kept, "finish_s")),
			len(collect(kept, "infeasible")), len(collect(kept, "possibly"))),
		fmt.Sprintf("enumerated=%d", len(collect(kept, "detect.violations_ms"))),
		fmt.Sprintf("setup_reps=%d", len(w.setups)),
		note,
	}
}
