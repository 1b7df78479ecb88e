package node

// session_test.go pins the one capture-session machine: its handshake
// and admission verdicts, and the guarantees built on them — a relay
// forwards child frames in the order it admitted them, a relayed
// stream that skipped frames fails the run instead of assembling a
// trace with holes, and a staging failure fails the run instead of
// reordering a process's ops.

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/wire"
)

func TestSessionHandshakeAndAdmission(t *testing.T) {
	a, b := &coordConn{}, &coordConn{}
	det := &wire.Detection{Epoch: 1, Node: 2}
	var s session

	v, replies := s.handshake(a, 0, wire.Hello{}, decisions{})
	if v != fresh || len(replies) != 0 {
		t.Fatalf("first Hello: %v %v, want fresh and no replies", v, replies)
	}
	for _, f := range []struct {
		seq  uint64
		want verdict
	}{{0, duplicate}, {1, next}, {2, next}, {2, duplicate}, {4, gap}} {
		if got := s.admit(a, f.seq); got != f.want {
			t.Fatalf("admit(%d) = %v, want %v", f.seq, got, f.want)
		}
	}
	if got := s.admit(b, 3); got != superseded {
		t.Fatalf("frame from a non-owner: %v, want superseded", got)
	}
	if got := s.admit(nil, 3); got != next {
		t.Fatalf("owner-free admit(3) = %v, want next", got)
	}

	v, replies = s.handshake(b, 0, wire.Resume{}, decisions{epoch: 2, shutdown: true, detection: det})
	want := []wire.Msg{wire.ResumeAck{Cum: 3, Epoch: 2}, *det, wire.Shutdown{Epoch: 2}}
	if v != resumed || !reflect.DeepEqual(replies, want) {
		t.Fatalf("Resume: %v %v, want resumed %v", v, replies, want)
	}
	if got := s.admit(a, 4); got != superseded {
		t.Fatalf("frame from the resumed-away connection: %v, want superseded", got)
	}

	v, replies = s.handshake(a, 0, wire.Hello{}, decisions{epoch: 2, detection: det})
	if v != rejoin || !reflect.DeepEqual(replies, []wire.Msg{*det}) || s.lastSeq != 0 {
		t.Fatalf("second Hello: %v %v lastSeq %d, want rejoin, the detection, 0", v, replies, s.lastSeq)
	}
	var late session
	if v, replies = late.handshake(a, 0, wire.Hello{}, decisions{epoch: 2}); v != fresh ||
		!reflect.DeepEqual(replies, []wire.Msg{wire.Restart{Epoch: 2}}) {
		t.Fatalf("late Hello: %v %v, want fresh and a catch-up Restart", v, replies)
	}
	if v, replies = s.handshake(a, 0, wire.Hello{}, decisions{epoch: 2, committed: true}); v != refused ||
		!reflect.DeepEqual(replies, []wire.Msg{wire.Shutdown{Epoch: 2}, wire.Commit{}}) {
		t.Fatalf("Hello after commit: %v %v, want refused with the exit ramp", v, replies)
	}

	up := session{lastSeq: 9}
	if _, replies = up.handshake(a, 0, wire.RelayHello{Resume: true}, decisions{}); replies[0] != (wire.ResumeAck{Cum: 9}) {
		t.Fatalf("resumed relay acked %v, want Cum 9", replies[0])
	}
	if _, replies = up.handshake(a, 0, wire.RelayHello{}, decisions{committed: true}); !reflect.DeepEqual(replies,
		[]wire.Msg{wire.ResumeAck{}, wire.Commit{}}) {
		t.Fatalf("fresh relay: %v, want Cum 0 and the replayed Commit", replies)
	}
}

// fakeRoot accepts relay uplinks on a loopback listener, acks each
// handshake and discards everything the relay sends.
func fakeRoot(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(bufReader(conn)); err != nil {
					return
				}
				wire.WriteFrame(conn, 0, wire.ResumeAck{})
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRelayForwardsInStagingOrder is the regression test for the relay
// uplink reorder: the flusher goroutine and a handshake's synchronous
// Hello flush both drain the forward queue, and two unserialized
// passes could put their RelayBatches on the uplink in swapped order —
// the root then dropped the earlier frames as replay overlap. Frames
// staged by one goroutine while others flush must reach the uplink log
// in staging order, every one of them.
func TestRelayForwardsInStagingOrder(t *testing.T) {
	r, err := StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: 2, Upstream: fakeRoot(t), Addr: "127.0.0.1:0",
		Batching: Batching{Interval: 50 * time.Microsecond}, Timeouts: testTimeouts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const frames = 100000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					r.flush()
				}
			}
		}()
	}
	for seq := uint64(1); seq <= frames; seq++ {
		r.stage(0, wire.KindTraceOpBatch, wire.AppendBody(nil, seq, wire.TraceOpBatch{}))
	}
	close(done)
	wg.Wait()
	r.flush()

	r.cc.mu.Lock()
	defer r.cc.mu.Unlock()
	var want uint64 = 1
	for _, b := range r.cc.sent {
		_, m, err := wire.DecodeBody(b.B[4:])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.(wire.RelayBatch).Frames {
			_, seq, err := wire.PeekBody(f.Body)
			if err != nil {
				t.Fatal(err)
			}
			if seq != want {
				t.Fatalf("uplink carries inner frame %d where %d belongs", seq, want)
			}
			want++
		}
	}
	if want != frames+1 {
		t.Fatalf("uplink carries %d of %d frames", want-1, frames)
	}
}

// TestRelayedGapFailsRun drives a coordinator through a scripted relay
// uplink whose origin 0 skips inner frame 2 and otherwise completes the
// run: the root must fail it with ErrCaptureGap rather than assemble a
// trace with the frame missing.
func TestRelayedGapFailsRun(t *testing.T) {
	const n = 2
	coord, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufReader(conn)
	if err := wire.WriteFrame(conn, 0, wire.RelayHello{Relay: 0, Relays: 1, N: n}); err != nil {
		t.Fatal(err)
	}
	if _, m, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(wire.ResumeAck); !ok {
		t.Fatalf("relay handshake answered with %T", m)
	}
	var outer uint64
	forward := func(frames ...wire.RelayFrame) {
		outer++
		wire.WriteFrame(conn, outer, wire.RelayBatch{Frames: frames})
	}
	inner := func(origin int32, seq uint64, m wire.Msg) wire.RelayFrame {
		return wire.RelayFrame{Origin: origin, Body: wire.AppendBody(nil, seq, m)}
	}
	step := func(p int32) wire.Msg { return wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: p}}} }
	var script []wire.RelayFrame
	for i := int32(0); i < n; i++ {
		script = append(script,
			inner(i, 0, wire.Hello{From: i, N: n}),
			inner(i, 1, wire.TraceOpBatch{Ops: []wire.TraceOp{
				{Op: wire.TraceInit, Proc: i, Name: "cs"},
				{Op: wire.TraceInit, Proc: n + i, Name: "tokens"},
			}}))
	}
	// Origin 0's frame 2 (a step) is lost between child and root.
	script = append(script,
		inner(0, 3, step(0)), inner(0, 4, wire.Done{Proc: 0}),
		inner(1, 2, step(1)), inner(1, 3, wire.Done{Proc: 1}))
	go func() {
		forward(script...)
		// Complete the run the way relayed children would: bye on the
		// Shutdown broadcast, so a root that missed the gap commits.
		for {
			_, m, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			if _, ok := m.(wire.Shutdown); ok {
				forward(inner(0, 5, wire.Shutdown{}), inner(1, 4, wire.Shutdown{}))
			}
		}
	}()
	res, err := coord.Wait(10 * time.Second)
	if err == nil {
		t.Fatalf("run with a relayed gap assembled a trace (%d states on process 0)", res.Deposet.Len(0))
	}
	if !errors.Is(err, ErrCaptureGap) {
		t.Fatalf("Wait: %v, want ErrCaptureGap", err)
	}
}

// TestStagingFailureFailsRun forces a trace-store append error: the
// coordinator must fail the run with ErrStaging — there is no RAM
// fallback that would stage the frame out of order.
func TestStagingFailureFailsRun(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // every Append now fails
	coord, err := NewCoordinator(CoordConfig{
		N: 2, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf, Store: st,
		Journal: obs.NewJournal(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire.WriteFrame(conn, 0, wire.Hello{From: 0, N: 2})
	wire.WriteFrame(conn, 1, wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceInit, Proc: 0, Name: "cs"}}})
	if _, err := coord.Wait(10 * time.Second); !errors.Is(err, ErrStaging) {
		t.Fatalf("Wait: %v, want ErrStaging", err)
	}
}

// TestRelaunchReoffersHello pins the relaunch handshake: a relaunched
// node whose stream breaks before its rejoin decision arrives (the
// server that took its Hello died) offers Hello again, not Resume, so
// the root decides the rejoin instead of reading the new incarnation's
// frames as the dead one's replay. Once a restart decision has been
// taken, a break resumes as usual.
func TestRelaunchReoffersHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cc, err := dialCoord(ln.Addr().String(), 1, 3, true, Batching{}, newWireMeters(nil, "coord", nil),
		chaosTimeouts().withDefaults(), nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	// handshake accepts the client's next connection and returns its
	// first frame with the connection still open.
	handshake := func() (net.Conn, wire.Msg) {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := wire.ReadFrame(bufReader(conn))
		if err != nil {
			t.Fatal(err)
		}
		return conn, m
	}
	c, m := handshake()
	if _, ok := m.(wire.Hello); !ok {
		t.Fatalf("dial handshake %T, want Hello", m)
	}
	c.Close() // the Hello dies with its server
	c, m = handshake()
	if _, ok := m.(wire.Hello); !ok {
		t.Fatalf("relaunch resumed with %T before its rejoin decision, want Hello", m)
	}
	// The rejoin decision arrives and is taken; a later break resumes.
	wire.WriteFrame(c, 0, wire.Restart{Epoch: 1})
	select {
	case e := <-cc.restartCh:
		if e != 1 {
			t.Fatalf("restart epoch %d, want 1", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no restart decision reached the node")
	}
	c.Close()
	c, m = handshake()
	defer c.Close()
	if _, ok := m.(wire.Resume); !ok {
		t.Fatalf("after the rejoin decision a break resumed with %T, want Resume", m)
	}
}
