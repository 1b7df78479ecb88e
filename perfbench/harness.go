package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// size selects a workload's input sizes: the benchmark's own, or the
// seconds-long smoke configuration the package test runs.
type size int

const (
	fullSize size = iota
	smokeSize
)

// sample is one checked operation's named values: end-to-end values
// (setup_s, finish_s, …) and, for traced operations, per-layer values.
// A key holds one value per operation, or many (response latencies,
// pooled across operations). A key missing from a sample means the
// operation had no such value.
type sample map[string][]float64

func (s sample) set(key string, v float64) { s[key] = []float64{v} }

// workload is one named closed-loop workload.
type workload interface {
	// inputs describes the generated input sizes for the inputs line.
	inputs() string
	// prepare generates the seeded inputs and does any set-up shared by
	// all operations.
	prepare(seed int64) error
	// op runs the operation on input i and checks its output. It returns the
	// operation's values only when every check passed; the error of a
	// failed operation is counted, never retried. tr is nil for
	// untraced operations.
	op(i int, tr *tracer) (sample, error)
	// e2e computes the end-to-end metrics from the kept samples, and
	// notes recording the samples behind them.
	e2e(kept []sample) ([]metric, []string)
}

// newWorkload returns the named workload at the given size, or nil.
func newWorkload(name string, sz size) workload {
	switch name {
	case flatLiveName:
		return newFlatLive(sz)
	case treeStoreName:
		return newTreeStore(sz)
	case rogueDetectName:
		return newRogueDetect(sz)
	case offlineDebugName:
		return newOfflineDebug(sz)
	}
	return nil
}

// slowOp is the operation time above which the run logs the operation.
const slowOp = 3 * time.Second

// run drives the workload closed-loop for o.seconds and assembles the
// result, with the host and inputs record in its notes. Failed and slow
// operations are logged to log as they happen.
func run(o options, wl workload, log io.Writer) (*result, error) {
	if err := wl.prepare(o.seed); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", o.workload, err)
	}
	traced := o.trace == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &result{}
	var kept, keptTraced []sample
	tracedOps := 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	// At least two operations, so a traced run always has one of each
	// kind even when a single operation outlasts --seconds. A traced run
	// runs each input twice, untraced then traced, so both halves see
	// the same inputs.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		input := i
		var opTr *tracer
		if traced {
			input = i / 2
			if i%2 == 1 {
				opTr = tr
				opTr.op = i
				tracedOps++
			}
		}
		res.Attempted++
		start := time.Now()
		s, err := wl.op(input, opTr)
		if d := time.Since(start); d > slowOp {
			fmt.Fprintf(log, "perfbench: %s op %d took %.1fs\n", o.workload, i, d.Seconds())
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "perfbench: %s op %d failed: %s\n", o.workload, i, firstLine(err))
			continue
		}
		if opTr != nil {
			keptTraced = append(keptTraced, s)
		} else {
			kept = append(kept, s)
		}
	}

	hostLine := fmt.Sprintf("# host: numcpu=%d gomaxprocs=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res.Notes = append(res.Notes, hostLine)
	e2e, counts := wl.e2e(kept)
	inputs := fmt.Sprintf("# inputs: workload=%s seed=%d seconds=%d trace=%d %s ops=%d kept=%d %s",
		o.workload, o.seed, o.seconds, o.trace, wl.inputs(), res.Attempted, len(kept)+len(keptTraced),
		strings.Join(counts, " "))
	res.Notes = append(res.Notes, inputs)
	res.Correct = len(kept) > 0 && allFinite(e2e)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	// Traced run: the traced operations' end-to-end numbers beside the
	// untraced ones (the difference is the tracing overhead), then the
	// per-layer metrics from the traced operations.
	te2e, tcounts := wl.e2e(keptTraced)
	res.Notes = append(res.Notes,
		fmt.Sprintf("# traced ops: %d kept %s", len(keptTraced), strings.Join(tcounts, " ")),
		fmt.Sprintf("# %-32s %14s %14s %9s", "end-to-end (traced run)", "untraced", "traced", "overhead"))
	for k, m := range e2e {
		over := 100 * (te2e[k].Value/m.Value - 1)
		res.Notes = append(res.Notes, fmt.Sprintf("# %-32s %14.6g %14.6g %8.1f%% %s", m.Name, m.Value, te2e[k].Value, over, m.Unit))
	}
	res.Metrics = layerMetrics(keptTraced, tr, tracedOps)
	res.Correct = res.Correct && len(keptTraced) > 0 && allFinite(te2e)
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("# spans: %d written to %s", len(tr.spans), path))
	return res, nil
}

// layerSpec names one per-layer metric.
type layerSpec struct{ name, unit string }

// selfLayers are the layers whose self time a traced run reports, named
// after the span prefixes (bench is the harness's own checking work).
var selfLayers = []string{"bench", "node", "wire", "coord", "relay", "store", "livedetect", "detect", "slice", "offline", "control", "deposet", "trace", "replay"}

// layerSpecs lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer a workload never calls reports 0.
var layerSpecs = []layerSpec{
	{"node.mesh_frames_per_cs", "frames"},
	{"node.mesh_bytes_per_cs", "bytes"},
	{"node.handoff_ns.p50", "ns"},
	{"node.retransmits", "count"},
	{"node.transport_setup_ms", "ms"},
	{"node.transport_heap_kb", "KiB"},
	{"wire.coord_frames_per_item", "frames"},
	{"wire.coord_bytes_per_item", "bytes"},
	{"wire.batch_mean", "items"},
	{"wire.encode_ns_per_item", "ns"},
	{"wire.decode_ns_per_item", "ns"},
	{"coord.ingest_ns_per_item", "ns"},
	{"coord.ingest_allocs_per_item", "allocs"},
	{"coord.root_conns", "count"},
	{"coord.root_frames", "count"},
	{"coord.root_bytes", "bytes"},
	{"relay.ingest_ns_per_item", "ns"},
	{"relay.frame_reduction", "ratio"},
	{"store.append_ns_per_record", "ns"},
	{"store.seal_ms", "ms"},
	{"store.verify_ms", "ms"},
	{"store.replay_ns_per_record", "ns"},
	{"store.segments", "count"},
	{"store.bytes", "bytes"},
	{"livedetect.offer_ns", "ns"},
	{"livedetect.dropped_per_offered", "ratio"},
	{"livedetect.prefix_ms", "ms"},
	{"detect.possibly_general_ms", "ms"},
	{"detect.possibly_ms", "ms"},
	{"detect.definitely_ms", "ms"},
	{"detect.violations_ms", "ms"},
	{"slice.states_explored", "count"},
	{"offline.control_general_ms", "ms"},
	{"offline.control_ms", "ms"},
	{"control.extend_ms", "ms"},
	{"offline.edges", "count"},
	{"deposet.assemble_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.encode_ms", "ms"},
	{"replay.run_ms", "ms"},
	{"replay.verify_ms", "ms"},
}

// layerMetrics reports each per-layer value as its median over the
// traced operations that measured it (0 when none did), then each
// layer's self time per traced operation.
func layerMetrics(traced []sample, tr *tracer, tracedOps int) []metric {
	var out []metric
	for _, ls := range layerSpecs {
		v := 0.0
		if vals := collect(traced, ls.name); len(vals) > 0 {
			v = median(vals)
		}
		out = append(out, metric{Name: ls.name, Value: v, Unit: ls.unit})
	}
	self := tr.selfTimes()
	for _, l := range selfLayers {
		v := 0.0
		if tracedOps > 0 {
			v = ms(self[l]) / float64(tracedOps)
		}
		out = append(out, metric{Name: "self_ms." + l, Value: v, Unit: "ms/op"})
	}
	return out
}

// median of vals (which it sorts).
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// tail is the pct-th percentile of vals (nearest rank). Each workload
// fixes pct as the highest percentile that leaves at least 10 samples
// beyond it at the benchmark's run length, so the metric does not
// switch percentiles with the sample count; the notes record how many
// samples lay beyond it.
func tail(vals []float64, pct float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(0, int(math.Ceil(float64(len(sorted))*pct/100))-1)]
}

// collect gathers key's values over the samples that have it.
func collect(kept []sample, key string) []float64 {
	var vals []float64
	for _, s := range kept {
		vals = append(vals, s[key]...)
	}
	return vals
}

// medianMetric is the median of key over the kept samples.
func medianMetric(kept []sample, key, unit string) metric {
	return metric{Name: key, Value: median(collect(kept, key)), Unit: unit}
}

// latencyMetrics reports a latency distribution as name.p50 and
// name.tail at percentile pct, with a note of the sample counts.
func latencyMetrics(vals []float64, name, alias string, pct float64) ([]metric, string) {
	ms := []metric{
		{Name: name + ".p50", Value: median(append([]float64(nil), vals...)), Unit: "ms", Alias: alias + ".p50"},
		{Name: name + ".tail", Value: tail(vals, pct), Unit: "ms", Alias: fmt.Sprintf("%s.p%g", alias, pct)},
	}
	beyond := int(float64(len(vals)) * (100 - pct) / 100)
	return ms, fmt.Sprintf("%s_samples=%d %s.tail=p%g (%d beyond)", name, len(vals), name, pct, beyond)
}

func allFinite(ms []metric) bool {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 300 {
		s = s[:300] + "…"
	}
	return s
}
