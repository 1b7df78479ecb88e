// Command perfbench is predctl's benchmark. It drives one of four
// closed-loop workloads — one caller, each operation started only after
// the previous one finished — through predctl's public entry points
// (node.RunCluster, node.AssembleBundle, store.Verify and the predctl
// facade), checks every operation's output, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload flat-live --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: it alternates untraced and traced operations, reports
// the per-layer metrics from spans recorded around each public call,
// and prints the traced end-to-end numbers beside the untraced ones.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.json)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(o, newWorkload(o.workload, fullSize), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

func (o options) validate() error {
	if newWorkload(o.workload, fullSize) == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	return nil
}

// metric is one reported number. Alias, when set, is the workload's
// own name for it, printed beside the metric's name.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Alias string  `json:"-"`
}

// result is what one invocation reports. Notes are "#" lines that
// record the host and inputs the numbers came from.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Notes     []string
}

// print writes the notes and the human-readable metric lines, then the
// JSON result as the last line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.Metrics {
		name := m.Name
		if m.Alias != "" {
			name += " (" + m.Alias + ")"
		}
		fmt.Fprintf(w, "%-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-44s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio, r.Failed, r.Attempted)
	ms := make(map[string]metric, len(r.Metrics))
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			continue // no checked operation measured it; Correct is false
		}
		ms[m.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := []string{flatLiveName, treeStoreName, rogueDetectName, offlineDebugName}
	sort.Strings(names)
	return names
}
