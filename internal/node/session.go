package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"predctl/internal/wire"
)

// session.go: the one server-side capture-session machine. Every
// endpoint that terminates a resumable capture stream — the root's
// direct node streams, a relay's child streams, the root's relay
// uplinks and the per-origin streams relayed through them — runs the
// same handshake decision and the same sequence-admission rule through
// the sans-IO session type below. Callers own the sockets and the
// locks: they hand in the handshake frame (or a frame's sequence
// number) plus a snapshot of the decision state, and act on the
// verdict and the reply frames.
//
// The admission rule is strict: sequence numbers are contiguous, and a
// caller admits and stages a frame as one atomic step under the
// stream's own lock. A relay forwards every admitted child frame
// verbatim and in order, so the relayed inner streams obey the same
// rule, and a missing relayed frame is an error, never a silent skip.

// verdict is what a session decided about a handshake or a frame.
type verdict int

const (
	fresh      verdict = iota // Hello for a stream never attached: a new process
	rejoin                    // Hello for an attached stream: a relaunched process
	resumed                   // Resume or RelayHello: the stream continues
	refused                   // Hello after commit: the run is sealed
	next                      // the next contiguous frame: stage it
	duplicate                 // at or below the admitted sequence: resume replay overlap
	gap                       // frames are missing before this one
	superseded                // a newer connection owns the stream
)

// decisions is the terminal-decision state a handshake replays to a
// stream that was not connected when the decisions were broadcast.
type decisions struct {
	epoch     uint32
	shutdown  bool
	committed bool
	detection *wire.Detection // latest detection that drove a re-execution
}

// session is one capture stream's sequence state. It outlives any one
// connection: a resumed stream keeps lastSeq, so the replayed tail is
// recognized as duplicate, while a relaunched process restarts it.
type session struct {
	attached bool       // a Hello was admitted for this stream before
	owner    *coordConn // the connection allowed to ingest; admit(nil, …) skips the check
	lastSeq  uint64     // highest contiguous sequence admitted
}

// handshake decides a stream's first frame — Hello, Resume or
// RelayHello, already validated by streamOrigin — arriving on from
// with sequence seq, and returns the frames to write back in order.
//
// A Hello is answered with the latest re-execution Detection (a
// relaunched or late node missed the broadcast, and a planted rogue
// must learn it runs under active debugging) and, for a fresh stream
// joining after a restart decision, a Restart to the current epoch: it
// was not connected for the broadcast and has executed nothing, so it
// just starts the in-flight epoch late. A rejoin gets no Restart here;
// the caller's restart decision broadcasts a newer one. After commit a
// Hello gets the parked node's exit ramp, Shutdown then Commit.
//
// A resume is answered with ResumeAck carrying the admitted sequence
// (the peer retransmits everything past it) and the current epoch,
// followed by the replayed Detection, Shutdown and Commit decisions.
// A RelayHello without Resume comes from a fresh relay process whose
// uplink log starts over, so the sequence restarts at zero.
func (s *session) handshake(from *coordConn, seq uint64, first wire.Msg, d decisions) (verdict, []wire.Msg) {
	var replies []wire.Msg
	if _, ok := first.(wire.Hello); ok {
		if d.committed {
			return refused, []wire.Msg{wire.Shutdown{Epoch: d.epoch}, wire.Commit{}}
		}
		v := fresh
		if s.attached {
			v = rejoin
		}
		s.attached, s.owner, s.lastSeq = true, from, seq
		if d.detection != nil {
			replies = append(replies, *d.detection)
		}
		if v == fresh && d.epoch > 0 {
			replies = append(replies, wire.Restart{Epoch: d.epoch})
		}
		return v, replies
	}
	if h, ok := first.(wire.RelayHello); ok && !h.Resume {
		s.lastSeq = 0
	}
	s.attached, s.owner = true, from
	replies = append(replies, wire.ResumeAck{Cum: s.lastSeq, Epoch: d.epoch})
	if d.detection != nil {
		replies = append(replies, *d.detection)
	}
	if d.shutdown {
		replies = append(replies, wire.Shutdown{Epoch: d.epoch})
	}
	if d.committed {
		replies = append(replies, wire.Commit{})
	}
	return resumed, replies
}

// admit decides one frame with sequence seq arriving on from: the next
// contiguous frame is admitted, anything at or below the admitted
// sequence is a duplicate, anything beyond is a gap. A nil from skips
// the ownership check (relayed inner streams reach the root through
// whichever relay uplink forwards them).
func (s *session) admit(from *coordConn, seq uint64) verdict {
	switch {
	case from != nil && from != s.owner:
		return superseded
	case seq <= s.lastSeq:
		return duplicate
	case seq == s.lastSeq+1:
		s.lastSeq = seq
		return next
	}
	return gap
}

// ErrCaptureGap reports a capture stream whose sequence skipped frames.
// On a direct stream it drops the connection so the peer's session
// resume retransmits; on a relayed stream it cannot happen legitimately
// (relays forward verbatim and in order) and fails the run.
var ErrCaptureGap = errors.New("capture stream sequence gap")

// errSuperseded stops a read loop whose connection a newer one
// replaced: its buffered frames must not interleave with the
// successor's.
var errSuperseded = errors.New("superseded by a newer connection")

// verdictErr is a frame verdict in read-loop form: nil keeps reading
// (next, duplicate), an error says why the stream must stop. last is
// the session's admitted sequence.
func verdictErr(v verdict, seq, last uint64) error {
	switch v {
	case superseded:
		return errSuperseded
	case gap:
		return fmt.Errorf("%w: frame %d after %d", ErrCaptureGap, seq, last)
	}
	return nil
}

// streamOrigin validates a handshake frame for an n-node cluster and
// returns the stream it opens: the node id for Hello and Resume, the
// relay index for RelayHello.
func streamOrigin(first wire.Msg, n int) (int, error) {
	ok := false
	id := 0
	switch h := first.(type) {
	case wire.Hello:
		id, ok = int(h.From), int(h.N) == n && h.From >= 0 && int(h.From) < n
	case wire.Resume:
		id, ok = int(h.From), int(h.N) == n && h.From >= 0 && int(h.From) < n
	case wire.RelayHello:
		id, ok = int(h.Relay), int(h.N) == n && h.Relay >= 0 && h.Relays >= 1 && h.Relay < h.Relays
	default:
		return 0, fmt.Errorf("first frame is %T, want Hello or Resume", first)
	}
	if !ok {
		return 0, fmt.Errorf("bad handshake %#v", first)
	}
	return id, nil
}

// readHandshake reads a stream's first frame within timeout, keeping
// the raw body (a relay forwards a child's Hello verbatim).
func readHandshake(conn net.Conn, br *bufio.Reader, timeout time.Duration) (uint64, wire.Msg, []byte, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	body, err := wire.ReadRawBody(br)
	if err != nil {
		return 0, nil, nil, err
	}
	seq, m, err := wire.DecodeBody(body)
	return seq, m, body, err
}

// serveStream is the read loop every server-side capture stream runs
// after its handshake: read a raw frame body, peek its kind and
// sequence number, and hand it to ingest, until the connection breaks
// or ingest returns an error (logged unless the stream was merely
// superseded). The generous read deadline lets a wedged peer fail the
// run loudly instead of hanging it; live peers stream continuously.
func serveStream(conn net.Conn, br *bufio.Reader, quit <-chan struct{}, logf func(string, ...any), who string,
	ingest func(kind byte, seq uint64, body []byte) error) {
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		body, err := wire.ReadRawBody(br)
		if err != nil {
			select {
			case <-quit:
			default:
				if !errors.Is(err, net.ErrClosed) {
					logf("%s stream: %v", who, err)
				}
			}
			return
		}
		kind, seq, err := wire.PeekBody(body)
		if err == nil {
			err = ingest(kind, seq, body)
		}
		if err != nil {
			if !errors.Is(err, errSuperseded) {
				logf("%s: %v; dropping connection", who, err)
			}
			return
		}
	}
}

// broadcast writes m to every connection, closing any whose write
// fails: the peer's session resume then replays the current decision
// state (epoch, shutdown, commit) at its handshake, so a failed write
// becomes a reconnect-and-catch-up instead of a silently missed
// decision. who prefixes the log line.
func broadcast(opt Timeouts, logf func(string, ...any), who string, conns map[int]*coordConn, m wire.Msg, what string) {
	for id, conn := range conns {
		if err := conn.writeFrame(opt, m); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				logf("%s: node %d: %s write: %v", who, id, what, err)
			}
			conn.Close()
		}
	}
}

// writeFrames writes a handshake's replies in order, stopping at the
// first error.
func (c *coordConn) writeFrames(opt Timeouts, ms []wire.Msg) error {
	for _, m := range ms {
		if err := c.writeFrame(opt, m); err != nil {
			return err
		}
	}
	return nil
}
