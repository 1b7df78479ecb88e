package node

import (
	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// staging holds one origin's capture frames (trace ops and journal
// events, the volume of a run) for its current epoch until assembly.
// A coordinator picks one backend for all its sessions: RAM, or the
// segmented on-disk trace store when one is configured. Both run every
// frame through the same captureFold, RAM as it arrives and the store
// at replay, so disk ≡ RAM holds by construction. Callers hold the
// session lock around every call.
type staging interface {
	// add stages one capture frame: m decoded, raw its wire body.
	add(epoch uint32, m wire.Msg, raw []byte) error
	// discard voids everything staged (an epoch discard, a relaunch).
	discard()
	// replay folds the staged capture into f, in staging order.
	replay(f *captureFold) error
}

// ramStaging folds each frame on arrival, so the heap holds the
// process's trace ops and journal events and nothing of the frames
// that carried them.
type ramStaging struct{ fold *captureFold }

func (r *ramStaging) add(_ uint32, m wire.Msg, _ []byte) error {
	r.fold.add(m)
	return nil
}

func (r *ramStaging) discard() { r.fold = newCaptureFold(len(r.fold.byProc)/2, true) }

func (r *ramStaging) replay(f *captureFold) error {
	f.merge(r.fold)
	return nil
}

// storeStaging appends the raw frame bodies to the trace store, so the
// bytes on disk are exactly the bytes that crossed the wire, and
// decodes them back at replay.
type storeStaging struct {
	s      *store.Store
	origin int32
}

func (d storeStaging) add(epoch uint32, _ wire.Msg, raw []byte) error {
	return d.s.Append(d.origin, epoch, raw)
}

func (d storeStaging) discard() { d.s.Discard(d.origin) }

func (d storeStaging) replay(f *captureFold) error {
	return d.s.Replay(d.origin, func(_ uint64, m wire.Msg) error {
		f.add(m)
		return nil
	})
}

// isCapture reports whether m is capture volume, the frames staging
// holds; every other stream frame folds into coordination state.
func isCapture(m wire.Msg) bool {
	switch m.(type) {
	case wire.Trace, wire.TraceOpBatch, wire.JournalEvent, wire.JournalBatch:
		return true
	}
	return false
}

// captureFold is the one frame→capture fold: add turns a capture frame
// into per-process trace ops (and, with journal set, journal events).
// RAM staging, the trace store's replay and AssembleBundle all fold
// through it, so they cannot disagree on what a frame contributes.
type captureFold struct {
	byProc  [][]wire.TraceOp
	journal bool
	events  []obs.Event
	ops     int // trace ops folded
	dropped int // trace ops naming a process outside 0..2n-1
}

func newCaptureFold(n int, journal bool) *captureFold {
	return &captureFold{byProc: make([][]wire.TraceOp, 2*n), journal: journal}
}

func (f *captureFold) add(m wire.Msg) {
	switch v := m.(type) {
	case wire.Trace:
		f.addOps(v.Ops)
	case wire.TraceOpBatch:
		f.addOps(v.Ops)
	case wire.JournalEvent:
		if f.journal {
			f.events = append(f.events, obsEvent(v))
		}
	case wire.JournalBatch:
		if f.journal {
			for _, e := range v.Events {
				f.events = append(f.events, obsEvent(e))
			}
		}
	}
}

func (f *captureFold) addOps(ops []wire.TraceOp) {
	for _, op := range ops {
		p := int(op.Proc)
		if p < 0 || p >= len(f.byProc) {
			f.dropped++
			continue
		}
		f.byProc[p] = append(f.byProc[p], op)
		f.ops++
	}
}

// merge appends what g folded after what f folded. Both folds cover
// the same processes.
func (f *captureFold) merge(g *captureFold) {
	for p, ops := range g.byProc {
		f.byProc[p] = append(f.byProc[p], ops...)
	}
	if f.journal {
		f.events = append(f.events, g.events...)
	}
	f.ops += g.ops
	f.dropped += g.dropped
}

func obsEvent(e wire.JournalEvent) obs.Event {
	return obs.Event{
		At: e.At, Proc: int(e.Proc), Kind: obs.Kind(e.Kind), Name: e.Name,
		A: e.A, B: e.B, C: e.C, VC: e.VC,
	}
}
