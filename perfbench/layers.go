package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"

	"predctl/internal/deposet"
	"predctl/internal/livedetect"
	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/trace"
	"predctl/internal/wire"
)

// layers.go measures the per-layer metrics of a traced cluster
// operation: counts read from the run's registry and Result, and timed
// calls into each layer replaying the run's own capture.

// clusterLayers adds the per-layer values of one traced cluster run to s.
// probeDir is an empty directory for the store probe's bundle.
func clusterLayers(s sample, cr *clusterRun, sh clusterShape, probeDir string, tr *tracer) error {
	res, reg := cr.res, cr.reg
	css := float64(sh.n * sh.rounds)
	mesh, coord := obs.L("stream", "mesh"), obs.L("stream", "coord")
	s.set("node.mesh_frames_per_cs", float64(reg.Counter("predctl_wire_frames_total", mesh).Value())/css)
	s.set("node.mesh_bytes_per_cs", float64(reg.Counter("predctl_wire_bytes_total", mesh).Value())/css)
	if h := reg.Histogram("predctl_response_handoff_ns").Values(); len(h) > 0 {
		s.set("node.handoff_ns.p50", medianInt(h))
	}
	s.set("node.retransmits", float64(reg.Counter("predctl_wire_retransmits_total", mesh).Value()+
		reg.Counter("predctl_wire_retransmits_total", coord).Value()))
	coordFrames := reg.Counter("predctl_wire_frames_total", coord).Value()
	batch := reg.Histogram("predctl_wire_batch_size", coord)
	if items := batch.Sum(); items > 0 {
		s.set("wire.coord_frames_per_item", float64(coordFrames)/float64(items))
		s.set("wire.coord_bytes_per_item", float64(reg.Counter("predctl_wire_bytes_total", coord).Value())/float64(items))
	}
	s.set("wire.batch_mean", batch.Mean())
	s.set("coord.root_conns", float64(res.RootConns))
	s.set("coord.root_frames", float64(res.RootFrames))
	s.set("coord.root_bytes", float64(res.RootBytes))
	if sh.relays > 0 && res.RootFrames > 0 {
		s.set("relay.frame_reduction", float64(coordFrames)/float64(res.RootFrames))
	}

	if err := probeTransport(s, sh.n, tr); err != nil {
		return err
	}
	ops := captureOps(res.Deposet)
	bodies := captureBodies(ops, cr.j)
	if err := probeWire(s, ops, tr); err != nil {
		return err
	}
	if err := probeIngest(s, sh.n, bodies, tr); err != nil {
		return err
	}
	if err := probeStore(s, sh.n, bodies, res.Deposet, probeDir, tr); err != nil {
		return err
	}
	if sh.live {
		probeOffer(s, sh.n, cr.j, tr)
		if err := probePrefix(s, sh.n, ops, tr); err != nil {
			return err
		}
		free, d := violationFree(cr, sh.n, tr)
		if !free {
			return fmt.Errorf("offline detection found a violation in a violation-free run")
		}
		s.set("detect.possibly_general_ms", ms(d))
	}
	return probeDeposet(s, res.Deposet, true, tr)
}

func medianInt(vals []int64) float64 {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return median(f)
}

// probeTransport times one node's NewTransport at the workload's n and
// the heap it holds before any frame is sent (median of 5).
func probeTransport(s sample, n int, tr *tracer) error {
	const reps = 5
	var setups, heaps []float64
	for r := 0; r < reps; r++ {
		lns := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(lns[:i])
				return fmt.Errorf("transport probe: %w", err)
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var t *node.Transport
		var err error
		d := tr.timed("node.NewTransport", func() {
			t, err = node.NewTransport(node.TransportConfig{ID: 0, N: n, Addrs: addrs, Listener: lns[0]})
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			closeAll(lns)
			return fmt.Errorf("transport probe: %w", err)
		}
		t.Close()
		closeAll(lns[1:])
		setups = append(setups, ms(d))
		heaps = append(heaps, float64(int64(after.HeapInuse)-int64(before.HeapInuse))/1024)
	}
	s.set("node.transport_setup_ms", median(setups))
	s.set("node.transport_heap_kb", median(heaps))
	return nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// captureOps turns a captured computation back into the per-process
// trace-op streams a cluster capture carries (sends and receives keyed
// by message, variable writes as Init/Set/Let), so the capture-path
// layers can be replayed on the run's own data.
func captureOps(d *deposet.Deposet) [][]wire.TraceOp {
	raw := d.Raw()
	type role struct {
		op byte
		id uint64
	}
	roles := make([]map[int]role, len(raw.Lens))
	for p := range roles {
		roles[p] = map[int]role{}
	}
	for i, m := range raw.Msgs {
		roles[m.FromP][m.SendEvent] = role{wire.TraceSend, uint64(i + 1)}
		if m.Received() {
			roles[m.ToP][m.RecvEvent] = role{wire.TraceRecv, uint64(i + 1)}
		}
	}
	vars := func(p, k int) map[string]int {
		if raw.Vars == nil {
			return nil
		}
		return raw.Vars[p][k]
	}
	out := make([][]wire.TraceOp, len(raw.Lens))
	for p, l := range raw.Lens {
		proc := int32(p)
		ops := out[p]
		for _, name := range sortedKeys(vars(p, 0)) {
			ops = append(ops, wire.TraceOp{Op: wire.TraceInit, Proc: proc, Name: name, Value: int64(vars(p, 0)[name])})
		}
		for k := 1; k < l; k++ {
			var changed []string
			prev, cur := vars(p, k-1), vars(p, k)
			for _, name := range sortedKeys(cur) {
				if v, ok := prev[name]; !ok || v != cur[name] {
					changed = append(changed, name)
				}
			}
			r, hasRole := roles[p][k]
			switch {
			case hasRole:
				ops = append(ops, wire.TraceOp{Op: r.op, Proc: proc, MsgID: r.id})
			case len(changed) > 0:
				ops = append(ops, wire.TraceOp{Op: wire.TraceSet, Proc: proc, Name: changed[0], Value: int64(cur[changed[0]])})
				changed = changed[1:]
			default:
				ops = append(ops, wire.TraceOp{Op: wire.TraceStep, Proc: proc})
			}
			for _, name := range changed {
				ops = append(ops, wire.TraceOp{Op: wire.TraceLet, Proc: proc, Name: name, Value: int64(cur[name])})
			}
		}
		out[p] = ops
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// batchItems is the capture batcher's default MaxItems.
const batchItems = 128

// captureBodies encodes the run's capture as a node's batcher would:
// trace-op and journal-event batch frames, sequenced as one stream.
// It returns the frame bodies (without the length prefix).
func captureBodies(ops [][]wire.TraceOp, j *obs.Journal) [][]byte {
	var bodies [][]byte
	var seq uint64
	frame := func(m wire.Msg) {
		seq++
		bodies = append(bodies, wire.Marshal(seq, m)[4:])
	}
	for _, p := range ops {
		for i := 0; i < len(p); i += batchItems {
			frame(wire.TraceOpBatch{Ops: p[i:min(i+batchItems, len(p))]})
		}
	}
	var evs []wire.JournalEvent
	for _, e := range j.Events() {
		if e.Proc < 0 {
			continue // coordinator annotations never cross the wire
		}
		evs = append(evs, wire.JournalEvent{At: e.At, Proc: int32(e.Proc), Kind: uint8(e.Kind), Name: e.Name,
			A: e.A, B: e.B, C: e.C, VC: e.VC})
	}
	for i := 0; i < len(evs); i += batchItems {
		frame(wire.JournalBatch{Events: evs[i:min(i+batchItems, len(evs))]})
	}
	return bodies
}

// probeWire times encoding the run's trace ops into batch frames and
// decoding them back, per op.
func probeWire(s sample, ops [][]wire.TraceOp, tr *tracer) error {
	var frames [][]byte
	items := 0
	enc := tr.timed("wire.Marshal", func() {
		var seq uint64
		for _, p := range ops {
			for i := 0; i < len(p); i += batchItems {
				seq++
				frames = append(frames, wire.Marshal(seq, wire.TraceOpBatch{Ops: p[i:min(i+batchItems, len(p))]}))
			}
			items += len(p)
		}
	})
	var err error
	decoded := 0
	dec := tr.timed("wire.DecodeBody", func() {
		for _, f := range frames {
			var m wire.Msg
			if _, m, err = wire.DecodeBody(f[4:]); err != nil {
				return
			}
			decoded += len(m.(wire.TraceOpBatch).Ops)
		}
	})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if decoded != items || items == 0 {
		return fmt.Errorf("wire probe: decoded %d of %d ops", decoded, items)
	}
	s.set("wire.encode_ns_per_item", float64(enc.Nanoseconds())/float64(items))
	s.set("wire.decode_ns_per_item", float64(dec.Nanoseconds())/float64(items))
	return nil
}

// probeIngest replays the run's capture frames through the
// coordinator's decode-and-stage path, and re-wrapped as a relay's
// upstream frames through the root's relayed-ingest path, per capture
// item.
func probeIngest(s sample, n int, bodies [][]byte, tr *tracer) error {
	items := 0
	for _, b := range bodies {
		_, m, err := wire.DecodeBody(b)
		if err != nil {
			return err
		}
		switch v := m.(type) {
		case wire.TraceOpBatch:
			items += len(v.Ops)
		case wire.JournalBatch:
			items += len(v.Events)
		}
	}
	var err error
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	d := tr.timed("coord.IngestBench", func() { _, err = node.IngestBench(n, nil, bodies) })
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	s.set("coord.ingest_ns_per_item", float64(d.Nanoseconds())/float64(items))
	s.set("coord.ingest_allocs_per_item", float64(mem1.Mallocs-mem0.Mallocs)/float64(items))
	// A relay coalesces several child frames per upstream frame.
	const coalesce = 8
	var up [][]byte
	var seq uint64
	for i := 0; i < len(bodies); i += coalesce {
		var fs []wire.RelayFrame
		for _, b := range bodies[i:min(i+coalesce, len(bodies))] {
			fs = append(fs, wire.RelayFrame{Origin: 0, Body: b})
		}
		seq++
		up = append(up, wire.Marshal(seq, wire.RelayBatch{Frames: fs})[4:])
	}
	d = tr.timed("relay.IngestRelayBench", func() { _, err = node.IngestRelayBench(n, nil, up) })
	if err != nil {
		return fmt.Errorf("relay ingest probe: %w", err)
	}
	s.set("relay.ingest_ns_per_item", float64(d.Nanoseconds())/float64(items))
	return nil
}

// probeStore spills the run's capture frames into a fresh segment
// store, seals it, verifies and replays the bundle, and reassembles it:
// the reassembled trace must equal the run's, byte for byte.
func probeStore(s sample, n int, bodies [][]byte, live *deposet.Deposet, dir string, tr *tracer) error {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	app := tr.timed("store.Append", func() {
		for _, b := range bodies {
			if err = st.Append(0, 0, b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	seal := tr.timed("store.Seal", func() { err = st.Seal(n, 0) })
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	man, ver, err := verifyStore(dir, tr)
	if err != nil {
		return err
	}
	records := 0
	rep := tr.timed("store.ReplayBundle", func() {
		_, err = store.ReplayBundle(dir, func(wire.SegmentRecord, uint64, wire.Msg) error {
			records++
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	var disk *deposet.Deposet
	tr.timed("node.AssembleBundle", func() { disk, _, err = node.AssembleBundle(dir) })
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if err := sameTrace(live, disk, tr); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	var bytes int64
	for _, sm := range man.Segments {
		bytes += sm.Bytes
	}
	s.set("store.append_ns_per_record", float64(app.Nanoseconds())/float64(len(bodies)))
	s.set("store.seal_ms", ms(seal))
	s.set("store.verify_ms", ms(ver))
	s.set("store.replay_ns_per_record", float64(rep.Nanoseconds())/float64(records))
	s.set("store.segments", float64(len(man.Segments)))
	s.set("store.bytes", float64(bytes))
	return nil
}

// probeOffer replays the run's candidate stream, in journal order,
// through a fresh streaming checker. The journal keeps each candidate's
// closing clock; the opening clock is taken as that clock minus the
// node's own closing tick.
func probeOffer(s sample, n int, j *obs.Journal, tr *tracer) {
	var ivs []livedetect.Interval
	for _, e := range j.Events() {
		if e.Name != obs.EvCandidate || e.Proc < 0 || e.Proc >= n || len(e.VC) != n {
			continue
		}
		lo := append([]int32(nil), e.VC...)
		lo[e.Proc]--
		ivs = append(ivs, livedetect.Interval{Proc: e.Proc, LoIdx: e.A, HiIdx: e.B, Lo: lo, Hi: e.VC})
	}
	if len(ivs) == 0 {
		return
	}
	c := livedetect.New(n)
	d := tr.timed("livedetect.Offer", func() {
		for _, iv := range ivs {
			c.Offer(0, iv)
		}
	})
	offered, dropped, _ := c.Stats()
	s.set("livedetect.offer_ns", float64(d.Nanoseconds())/float64(len(ivs)))
	if offered > 0 {
		s.set("livedetect.dropped_per_offered", float64(dropped)/float64(offered))
	}
}

// probePrefix assembles the run's complete capture into its causally
// closed prefix, as the coordinator's commit-time closing pass does.
func probePrefix(s sample, n int, ops [][]wire.TraceOp, tr *tracer) error {
	var err error
	t := tr.timed("livedetect.AssemblePrefix", func() { _, _, err = livedetect.AssemblePrefix(n, ops) })
	if err != nil {
		return fmt.Errorf("prefix probe: %w", err)
	}
	s.set("livedetect.prefix_ms", ms(t))
	return nil
}

// probeDeposet times building the computation's vector clocks from its
// explicit form, and its trace JSON encoding and (with decode) decoding.
func probeDeposet(s sample, d *deposet.Deposet, decode bool, tr *tracer) error {
	raw := d.Raw()
	var err error
	t := tr.timed("deposet.FromRaw", func() { _, err = deposet.FromRaw(raw) })
	if err != nil {
		return fmt.Errorf("deposet probe: %w", err)
	}
	s.set("deposet.assemble_ms", ms(t))
	var buf bytes.Buffer
	t = tr.timed("trace.Encode", func() { err = trace.Encode(&buf, d, nil) })
	if err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	s.set("trace.encode_ms", ms(t))
	if !decode {
		return nil
	}
	t = tr.timed("trace.Decode", func() { _, _, err = trace.Decode(&buf) })
	if err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	s.set("trace.decode_ms", ms(t))
	return nil
}
