package node

import (
	"bufio"
	"fmt"
	"sort"
	"sync"
	"time"

	"predctl/internal/wire"
)

// relaySession is the coordinator's per-relay stream state: the outer
// session of the relay's uplink (RelayBatch frames, resumable exactly
// like a node stream) plus fan-in accounting for statusz. The
// per-origin inner sessions live in c.sessions as always — a relay is
// transport, not identity.
type relaySession struct {
	index int

	// ingestMu holds admission of an uplink frame and the ingest of
	// every inner frame it carries as one step, and orders handshakes
	// against it: a resumed uplink's first batch must not overtake the
	// tail of a batch its predecessor is still unpacking, or an origin
	// would see its inner frames out of order.
	ingestMu sync.Mutex

	mu      sync.Mutex
	sess    session
	frames  uint64 // RelayBatch frames accepted
	items   uint64 // inner frames unpacked from them
	origins map[int]bool
	lastAt  time.Time
}

// relaySession returns (creating if needed) the state for relay index.
func (c *Coordinator) relaySession(index int) *relaySession {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.relays[index]
	if rs == nil {
		rs = &relaySession{index: index, origins: map[int]bool{}}
		c.relays[index] = rs
	}
	return rs
}

// attachRelay installs conn as relay index's uplink, closing any
// superseded one.
func (c *Coordinator) attachRelay(index int, conn *coordConn) {
	c.mu.Lock()
	old := c.relayConns[index]
	c.relayConns[index] = conn
	c.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
}

// handleRelay serves one relay uplink: the RelayHello handshake (the
// relay-flavored Resume — the ack's Cum is the outer sequence, and the
// decision replay is what the relay caches for its children), then the
// shared read loop, each admitted RelayBatch unpacked into per-origin
// inner frames that flow through the very same admit-and-stage path a
// direct node stream takes.
func (c *Coordinator) handleRelay(conn *coordConn, br *bufio.Reader, index int, h wire.RelayHello) {
	rs := c.relaySession(index)
	rs.ingestMu.Lock()
	c.shutdownMu.Lock()
	d := c.decisionsLocked()
	rs.mu.Lock()
	_, replies := rs.sess.handshake(conn, 0, h, d)
	rs.mu.Unlock()
	c.attachRelay(index, conn)
	err := conn.writeFrames(c.opt, replies)
	c.shutdownMu.Unlock()
	rs.ingestMu.Unlock()
	if err != nil {
		c.logf("coordinator: relay %d: handshake: %v", index, err)
		return
	}
	serveStream(conn.Conn, br, c.closed, c.logf, fmt.Sprintf("coordinator: relay %d", index),
		func(_ byte, seq uint64, body []byte) error {
			c.countFrame(body)
			return c.ingestUplink(rs, conn, seq, body)
		})
}

// ingestUplink admits one uplink frame of relay rs arriving on from
// (nil skips the ownership check) and ingests every inner frame of the
// RelayBatch it carries.
func (c *Coordinator) ingestUplink(rs *relaySession, from *coordConn, seq uint64, body []byte) error {
	_, m, err := wire.DecodeBody(body)
	if err != nil {
		return err
	}
	batch, ok := m.(wire.RelayBatch)
	if !ok {
		return fmt.Errorf("unexpected %T on a relay uplink", m)
	}
	rs.ingestMu.Lock()
	defer rs.ingestMu.Unlock()
	rs.mu.Lock()
	v := rs.sess.admit(from, seq)
	last := rs.sess.lastSeq
	if v == next {
		rs.frames++
		rs.items += uint64(len(batch.Frames))
		rs.lastAt = time.Now()
		for _, f := range batch.Frames {
			rs.origins[int(f.Origin)] = true
		}
	}
	rs.mu.Unlock()
	if v != next {
		return verdictErr(v, seq, last)
	}
	for _, f := range batch.Frames {
		c.ingestRelayed(rs.index, f)
	}
	return nil
}

// ingestRelayed runs one relayed inner frame through its origin's
// session exactly as a direct frame: a Hello through the handshake
// (the root stays the sole owner of the restart decision — its
// per-origin attached bit survives relay crashes, so a node relaunch
// behind a relay still voids the epoch; the relay replays its cached
// decisions to the child itself), anything else through admitStage.
// Relays forward child frames verbatim and in order, so a relayed gap
// means capture was lost between a child and the root: it fails the
// run.
func (c *Coordinator) ingestRelayed(relay int, f wire.RelayFrame) {
	origin := int(f.Origin)
	if origin < 0 || origin >= c.n {
		c.logf("coordinator: relay %d: frame for unknown origin %d", relay, origin)
		return
	}
	iseq, m, err := wire.DecodeBody(f.Body)
	if err == nil {
		st := c.session(origin)
		if _, ok := m.(wire.Hello); ok {
			c.shutdownMu.Lock()
			v, _ := c.openLocked(st, nil, iseq, m)
			if v == rejoin {
				c.restartClusterLocked(origin)
			}
			c.shutdownMu.Unlock()
			if v == refused {
				c.logf("coordinator: node %d rejoined after commit (via relay); refused", origin)
			}
			return
		}
		err = c.admitStage(st, nil, iseq, m, f.Body)
	}
	if err != nil {
		c.fail(fmt.Errorf("node: coordinator: origin %d via relay %d: %w", origin, relay, err))
	}
}

// CoordRelayStatus is one relay's row in CoordStatus — the fan-in tree
// as `pctl top` shows it.
type CoordRelayStatus struct {
	Relay int `json:"relay"`
	// FanIn is the number of distinct origins whose frames this relay
	// has forwarded.
	FanIn int `json:"fan_in"`
	// Frames counts forwarded RelayBatch frames, Items the inner frames
	// re-batched into them.
	Frames uint64 `json:"frames"`
	Items  uint64 `json:"items"`
	// LastSeq is the uplink's highest contiguous outer sequence.
	LastSeq uint64 `json:"last_seq"`
	// LagMs is the age of the last accepted uplink frame; -1 until one
	// arrives.
	LagMs float64 `json:"lag_ms"`
}

// relayStatusRows snapshots the relay table in index order.
func (c *Coordinator) relayStatusRows(now time.Time) []CoordRelayStatus {
	c.mu.Lock()
	relays := make([]*relaySession, 0, len(c.relays))
	for _, rs := range c.relays {
		relays = append(relays, rs)
	}
	c.mu.Unlock()
	sort.Slice(relays, func(i, j int) bool { return relays[i].index < relays[j].index })
	var rows []CoordRelayStatus
	for _, rs := range relays {
		rs.mu.Lock()
		row := CoordRelayStatus{
			Relay: rs.index, FanIn: len(rs.origins),
			Frames: rs.frames, Items: rs.items, LastSeq: rs.sess.lastSeq,
			LagMs: -1,
		}
		if !rs.lastAt.IsZero() {
			row.LagMs = float64(now.Sub(rs.lastAt).Microseconds()) / 1e3
		}
		rs.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}
