package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's calls into each
// layer. The harness is a single caller, so spans nest as a stack. A nil
// *tracer records nothing: untraced operations pass nil.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named "<layer>.<call>" under the innermost open
// span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNs: time.Since(t.origin).Nanoseconds()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// timed runs f inside a span and returns its wall time. Untraced calls
// are timed too, because the end-to-end metrics come from them.
func (t *tracer) timed(name string, f func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerOf is the layer part of a span name: "store.Verify" → "store".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time — a span's duration minus the
// time its direct children cover — over every recorded span.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return out
}

// write stores the spans as JSON, in start order (Parent indexes this
// list).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
