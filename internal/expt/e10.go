package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	"predctl"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/obs"
	"predctl/internal/offline"
	"predctl/internal/predicate"
)

// E10 measures the worker-pool parallel engine introduced on top of the
// paper's algorithms: sharded vector-clock construction, sharded
// Possibly/Definitely scans, and the batch layer that runs many traces
// concurrently (the shape of the E1/E2 sweeps). It is not a paper
// artifact — the paper's machines were single-processor — but the
// ROADMAP's "as fast as the hardware allows" goal needs a recorded
// trajectory; cmd/pcbench -baseline serializes the same measurements to
// BENCH_baseline.json.

// ParWorkers is the worker grid the parallel-engine measurements sweep.
var ParWorkers = []int{1, 2, 4}

// ParMeasurement is one workload of the parallel-engine sweep: wall
// time per worker count, with Speedup4 = time(1w)/time(4w).
type ParMeasurement struct {
	Name     string           `json:"name"`
	Procs    int              `json:"procs"`
	States   int              `json:"states"`
	Traces   int              `json:"traces,omitempty"` // batch workloads only
	NsPerOp  map[string]int64 `json:"nsPerOp"`          // worker count → ns
	Speedup4 float64          `json:"speedup4"`
}

// PhaseStats is the serialized form of one obs span: where the sweep's
// wall time and heap allocations went, per pass (clock build, detect
// scan, chain search, batch fan-out).
type PhaseStats struct {
	Calls  int64 `json:"calls"`
	WallNs int64 `json:"wallNs"`
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"allocBytes"`
}

// Baseline is the serializable parallel-engine performance baseline.
type Baseline struct {
	Schema     int                   `json:"schema"`
	GoVersion  string                `json:"goVersion"`
	NumCPU     int                   `json:"numCPU"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Seed       int64                 `json:"seed"`
	Note       string                `json:"note"`
	Results    []ParMeasurement      `json:"results"`
	Phases     map[string]PhaseStats `json:"phases"`
}

// parPhases are the span names MeasureParallel charges work to.
var parPhases = []string{
	"clock_build", "detect_possibly", "detect_definitely",
	"offline_control", "batch_detect", "batch_control",
}

// measure times fn at each worker count and packages the result.
func measure(name string, procs, states, traces int, fn func(workers int)) ParMeasurement {
	m := ParMeasurement{
		Name: name, Procs: procs, States: states, Traces: traces,
		NsPerOp: make(map[string]int64, len(ParWorkers)),
	}
	for _, w := range ParWorkers {
		m.NsPerOp[fmt.Sprint(w)] = timeIt(func() { fn(w) }).Nanoseconds()
	}
	if t4 := m.NsPerOp["4"]; t4 > 0 {
		m.Speedup4 = float64(m.NsPerOp["1"]) / float64(t4)
	}
	return m
}

// parShape sizes the parallel-engine sweep's workloads.
type parShape struct {
	procs, states       int // the large single trace
	intervals           int // false-intervals per process of the control workload
	batchTraces, batchN int // batch layer: traces, states per trace
	slices              []sliceWorkload
	sliceStates         int // the slice sweep's large tractability trace
}

// fullParShape is the acceptance shape: n=32 processes, p=128
// false-intervals, ≈16k states.
var fullParShape = parShape{
	procs: 32, states: 16000, intervals: 128, batchTraces: 16, batchN: 2400,
	slices: sliceWorkloads, sliceStates: 16000,
}

// e10Shape sizes the sweep the E10 table renders. The package tests
// shrink it: they check the table's metadata and shape, not its
// timings, and the full sweep stays in `make baseline` and pcbench.
var e10Shape = fullParShape

// MeasureParallel runs the full parallel-engine sweep: single-trace
// sharding on large traces (the acceptance shape n=32 processes,
// p=128 false-intervals, ≈16k states) plus the batch layer over many
// mid-size traces.
func MeasureParallel(seed int64) *Baseline { return measureParallel(seed, fullParShape) }

func measureParallel(seed int64, sh parShape) *Baseline {
	r := rand.New(rand.NewSource(seed))
	// Every measured pass runs inside an obs span with allocation
	// tracking, so the baseline can attribute wall time and heap churn
	// per phase, not just per worker count.
	reg := obs.NewRegistry()
	reg.TrackAllocs = true
	b := &Baseline{
		Schema:     2,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Note: "wall-clock scaling tracks available cores: on a multi-core host " +
			"(≥4 CPUs) the large-trace rows reach ≥2x at 4 workers; on fewer cores " +
			"the parallel paths degrade gracefully toward 1x (numCPU above records " +
			"what this run had); the forced-cutoff rows (Cutoff: 1) deliberately " +
			"bypass the size fallback to measure the raw sharded machinery — small " +
			"traces regress there (speedup4 < 1), which is exactly what the " +
			"'(default policy)' rows guard: below DefaultParCutoff / " +
			"ParallelClockCutoff the default policy takes the sequential path and " +
			"worker count must not matter (speedup4 ≈ 1)",
	}
	force := func(w int) detect.Par { return detect.Par{Workers: w, Cutoff: 1} }

	// Single large trace, message-rich: clock construction + detection.
	bigBuilder := deposet.RandomBuilder(r, deposet.DefaultGen(sh.procs, sh.states))
	big := bigBuilder.MustBuild()
	truthLow := deposet.RandomTruth(r, big, 0.05)
	truthHigh := deposet.RandomTruth(r, big, 0.6)
	b.Results = append(b.Results,
		measure("deposet-build/clocks", sh.procs, big.NumStates(), 0, func(w int) {
			reg.Span("clock_build", func() {
				if _, err := bigBuilder.BuildParallel(w); err != nil {
					panic(err)
				}
			})
		}),
		measure("detect-possibly", sh.procs, big.NumStates(), 0, func(w int) {
			reg.Span("detect_possibly", func() {
				detect.PossiblyTruthPar(big, func(p, k int) bool { return truthLow[p][k] }, force(w))
			})
		}),
		measure("detect-definitely", sh.procs, big.NumStates(), 0, func(w int) {
			reg.Span("detect_definitely", func() {
				detect.DefinitelyTruthPar(big, func(p, k int) bool { return truthHigh[p][k] }, force(w))
			})
		}),
	)

	// Small-trace regression guard. The forced-cutoff rows above measure
	// the raw parallel machinery; on a small trace that machinery *loses*
	// (barrier cost exceeds the scan — the recorded regression was
	// speedup4 ≈ 0.5 for detect-possibly). These rows run the same entry
	// points under the default policy, where DefaultParCutoff /
	// ParallelClockCutoff route sub-threshold inputs to the sequential
	// path: worker count must make no difference, pinning speedup4 ≈ 1.
	smallBuilder := deposet.RandomBuilder(r, deposet.DefaultGen(8, detect.DefaultParCutoff/2))
	small := smallBuilder.MustBuild()
	smallLow := deposet.RandomTruth(r, small, 0.05)
	smallHigh := deposet.RandomTruth(r, small, 0.6)
	b.Results = append(b.Results,
		measure("deposet-build-small (default policy)", 8, small.NumStates(), 0, func(int) {
			if _, err := smallBuilder.Build(); err != nil {
				panic(err)
			}
		}),
		measure("detect-possibly-small (default policy)", 8, small.NumStates(), 0, func(w int) {
			detect.PossiblyTruthPar(small, func(p, k int) bool { return smallLow[p][k] }, detect.Par{Workers: w})
		}),
		measure("detect-definitely-small (default policy)", 8, small.NumStates(), 0, func(w int) {
			detect.DefinitelyTruthPar(small, func(p, k int) bool { return smallHigh[p][k] }, detect.Par{Workers: w})
		}),
	)

	// Off-line control on the acceptance workload n=32, p=128.
	cd, cdj := intervalWorkload(sh.procs, sh.intervals)
	b.Results = append(b.Results,
		measure(fmt.Sprintf("offline-control n=%d p=%d", sh.procs, sh.intervals), sh.procs, cd.NumStates(), 0, func(w int) {
			reg.Span("offline_control", func() {
				if _, err := offline.Control(cd, cdj, offline.Options{Par: force(w)}); err != nil {
					panic(err)
				}
			})
		}))

	// Batch layer of the predctl facade: many mid-size traces analyzed
	// concurrently (the shape of the E1/E2 sweeps).
	traces := sh.batchTraces
	ds := make([]*predctl.Computation, traces)
	qs := make([]*predctl.Conjunction, traces)
	djs := make([]*predicate.Disjunction, traces)
	states := 0
	for i := range ds {
		d := deposet.Random(r, deposet.DefaultGen(8, sh.batchN))
		ds[i] = d
		cj := predctl.NewConjunction(d.NumProcs())
		qt := deposet.RandomTruth(r, d, 0.1)
		for p := 0; p < d.NumProcs(); p++ {
			tp := qt[p]
			cj.Add(p, "q", func(_ *predctl.Computation, k int) bool { return tp[k] })
		}
		qs[i] = cj
		djs[i] = predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.85))
		states += d.NumStates()
	}
	b.Results = append(b.Results,
		measure("batch-detect", 8, states, traces, func(w int) {
			reg.Span("batch_detect", func() {
				if _, err := predctl.DetectBatch(ds, qs, w); err != nil {
					panic(err)
				}
			})
		}),
		measure("batch-control", 8, states, traces, func(w int) {
			reg.Span("batch_control", func() {
				if _, err := predctl.ControlBatch(ds, djs, w); err != nil {
					panic(err)
				}
			})
		}),
	)
	b.Phases = make(map[string]PhaseStats, len(parPhases))
	for _, name := range parPhases {
		s := reg.SpanStats(name)
		b.Phases[name] = PhaseStats{
			Calls: s.Count(), WallNs: s.Wall().Nanoseconds(),
			Allocs: s.Allocs(), Bytes: s.Bytes(),
		}
	}
	return b
}

// BaselineJSON renders the sweep as the committed BENCH_baseline.json.
func BaselineJSON(seed int64) ([]byte, error) {
	doc, err := json.MarshalIndent(MeasureParallel(seed), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// E10 renders the same sweep as a pcbench table.
func E10(seed int64) *Table {
	t := &Table{
		ID:    "E10",
		Title: "parallel detection/control engine scaling",
		Claim: "(beyond the paper) worker-sharded hot paths; cf. Garg 2020, Chauhan et al. 2013 in PAPERS.md",
		Columns: []string{
			"workload", "procs", "states", "traces", "1w", "2w", "4w", "speedup@4",
		},
	}
	base := measureParallel(seed, e10Shape)
	for _, m := range base.Results {
		traces := "-"
		if m.Traces > 0 {
			traces = fmt.Sprint(m.Traces)
		}
		t.Row(m.Name, m.Procs, m.States, traces,
			nsString(m.NsPerOp["1"]), nsString(m.NsPerOp["2"]), nsString(m.NsPerOp["4"]),
			fmt.Sprintf("%.2fx", m.Speedup4))
	}
	sliceRows(t, measureSlice(seed, e10Shape))
	t.Note("host: %d CPU(s), GOMAXPROCS=%d, %s — speedups are bounded by available cores",
		base.NumCPU, base.GOMAXPROCS, base.GoVersion)
	t.Note("sequential cross-validation: every parallel path is property-tested")
	t.Note("against the sequential implementation (internal/detect, internal/offline)")
	return t
}

func nsString(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
