package node

import (
	"fmt"
	"net"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Relay is the middle tier of a hierarchical ingest tree: it terminates
// the resumable capture streams of a subset of nodes with the same
// session machine the root coordinator runs (session.go) — contiguous
// sequence admission, session resume with per-child cumulative acks,
// handshake replay of cached terminal decisions — but instead of
// staging capture it forwards every admitted raw frame body, verbatim
// and in admission order, inside wire.RelayBatch frames over one
// session to the root. The root therefore handles O(relays)
// connections instead of O(n), while resume and epoch semantics
// compose across both hops:
//
//   - child → relay: the child's coordClient session machinery is
//     untouched; the relay answers Resume with the child's cumulative
//     inner sequence and replays cached Restart/Detection/Shutdown/
//     Commit decisions, so a relay looks exactly like a coordinator.
//   - relay → root: the relay's uplink IS a coordClient (the same
//     session log, redial/backoff and retransmit code), with a
//     RelayHello handshake and an intercept that fans every decision
//     frame out to the children.
//
// A relay crash heals like a coordinator-stream sever: children redial
// with backoff and offer Resume; the relaunched relay has no per-child
// state, acks Cum=0, and the children replay their entire session logs
// — the root's per-origin admission recognizes the overlap as
// duplicate.
//
// The relay rewrites nothing: no snapshot folding, no epoch discards.
// Each child's inner sequence therefore reaches the root contiguous,
// and the root — which discards voided epochs and applies snapshots
// idempotently anyway — can hold relayed streams to the same admission
// rule as direct ones. The only merge is coalescing frames into
// batches under a byte cap.
type Relay struct {
	cfg  RelayConfig
	opt  Timeouts
	ln   net.Listener
	cc   *coordClient
	logf func(string, ...any)

	// Cached upstream decisions, replayed to (re)connecting children —
	// the relay-local mirror of the root's handshake replay state.
	mu        sync.Mutex
	epoch     uint32
	committed bool
	shutdown  bool
	detection *wire.Detection
	children  map[int]*relayChild
	contacted bool // a RelayHello reached the root at least once
	closing   bool
	// conns is every accepted downstream connection, owner or not —
	// Close must reach conns mid-handshake and superseded readers too,
	// or a child that registered after Close's snapshot keeps its
	// stream alive and wg.Wait never returns.
	conns map[net.Conn]struct{}

	// flushMu serializes whole flush passes — the flusher goroutine's
	// and a handshake's synchronous Hello flush — so batches reach the
	// uplink log in the order their frames were staged.
	flushMu   sync.Mutex
	pendMu    sync.Mutex
	pending   []relayPending
	pendBytes int
	// urgent is the control-kind coalescing timer; urgentArmed (under
	// pendMu) keeps one window open at a time.
	urgent      *time.Timer
	urgentArmed bool

	kick     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// RelayConfig configures one relay.
type RelayConfig struct {
	// Index identifies this relay (0..Relays-1); Relays is the tree's
	// fan-in width, N the cluster size.
	Index  int
	Relays int
	N      int
	// Upstream is the root coordinator's address.
	Upstream string
	// Addr/Listener is the downstream side the children dial. When
	// Listener is non-nil it is used directly (Addr ignored).
	Addr     string
	Listener net.Listener
	// Batching paces the upstream flush (withDefaults applied).
	Batching Batching
	Timeouts Timeouts
	// Reg receives the relay's wire meters (uplink stream).
	Reg          *obs.Registry
	MetricLabels []obs.Label
	Logf         func(string, ...any)
}

// relayChild is the relay's per-node-id stream state: the downstream
// mirror of the root's nodeSession, minus the staging. mu holds
// admission and forward-queueing of a frame as one step.
type relayChild struct {
	mu   sync.Mutex
	sess session
}

// relayPending is one child frame queued for the next upstream flush.
type relayPending struct {
	origin int32
	body   []byte
}

// maxRelayBatchBytes caps one RelayBatch's payload, comfortably under
// wire.MaxFrame with envelope overhead to spare.
const maxRelayBatchBytes = 512 << 10

// relayControlFlush is the urgent-coalescing window for completion-
// latency kinds (Hello, Done, bye, EpochMark): long enough that a wave
// of them from many children — every child sends Done within the same
// workload tail — folds into a few upstream frames instead of one
// frame each, short enough to be invisible next to the dial timeout
// and the capture interval it undercuts.
const relayControlFlush = time.Millisecond

// relayMaxPendFrames is the early-kick threshold on queued child
// frames. A relay item is a whole child frame (itself a batch of up to
// Batching.MaxItems capture items), so the node-level item cap would
// kick mid-interval on every busy subtree and shred the upstream
// coalescing; pendBytes against maxRelayBatchBytes is the real memory
// guard, this only backstops pathological tiny-frame floods.
const relayMaxPendFrames = 1024

// StartRelay establishes the upstream session (blocking until the root
// answers or the coordinator deadline passes), then begins accepting
// children. The synchronous uplink handshake is what guarantees every
// child handshake can be answered with the cluster's current epoch.
func StartRelay(cfg RelayConfig) (*Relay, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.N < 2 || cfg.Relays < 1 || cfg.Index < 0 || cfg.Index >= cfg.Relays {
		return nil, fmt.Errorf("node: relay %d/%d for n=%d: bad shape", cfg.Index, cfg.Relays, cfg.N)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("node: relay listen %s: %w", cfg.Addr, err)
		}
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Relay{
		cfg:      cfg,
		opt:      cfg.Timeouts.withDefaults(),
		ln:       ln,
		logf:     logf,
		children: map[int]*relayChild{},
		conns:    map[net.Conn]struct{}{},
		urgent:   time.NewTimer(time.Hour),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if !r.urgent.Stop() {
		<-r.urgent.C
	}
	// The uplink flushes at twice the children's cadence: a relay
	// aggregates an entire subtree, so one extra interval of staleness
	// buys roughly double the child frames per upstream RelayBatch.
	batch := cfg.Batching.withDefaults()
	batch.Interval *= 2
	wm := newWireMeters(reg, "uplink", cfg.MetricLabels)
	cc := &coordClient{
		id: -(cfg.Index + 1), n: cfg.N, addr: cfg.Upstream,
		opt: r.opt, batch: batch, wm: wm, logf: logf,
		shutdownEv: make(chan uint32, 1),
		restartCh:  make(chan uint32, 1),
		commitCh:   make(chan struct{}),
		quit:       make(chan struct{}),
		sessDone:   make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	cc.mkResume = r.mkResume
	cc.onMsg = r.onUpstream
	cc.onResumeAck = r.onResumeAck
	r.cc = cc

	// First contact runs the same resume path every later redial runs:
	// RelayHello out, ResumeAck in, retransmit past Cum (nothing, yet).
	conn, br, err := cc.resume()
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("node: relay %d: root %s: %w", cfg.Index, cfg.Upstream, err)
	}
	go cc.session(conn, br)

	r.wg.Add(2)
	go r.acceptLoop()
	go r.flusher()
	return r, nil
}

// Addr returns the relay's downstream listen address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close tears the relay down abruptly: listener, children, uplink. A
// chaos kill uses exactly this — no drain, no goodbye — and the tree
// heals through the two resume hops.
func (r *Relay) Close() {
	r.quitOnce.Do(func() { close(r.quit) })
	r.ln.Close()
	r.mu.Lock()
	r.closing = true
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	r.cc.close()
	r.wg.Wait()
}

// mkResume builds the uplink handshake. Resume=false (a fresh relay
// process) tells the root to reset the outer session numbering while
// keeping every per-origin inner session — the difference between a
// relay relaunch (children keep their capture logs) and a node
// relaunch (its log died with it).
func (r *Relay) mkResume(epoch uint32) wire.Msg {
	r.mu.Lock()
	resumed := r.contacted
	r.mu.Unlock()
	return wire.RelayHello{
		Relay: int32(r.cfg.Index), Relays: int32(r.cfg.Relays), N: int32(r.cfg.N),
		Resume: resumed, Epoch: epoch,
	}
}

// onResumeAck observes every uplink handshake: it initializes (or
// refreshes) the cached cluster epoch, and on an epoch the children
// may have missed — a Restart decided while the uplink was down —
// fans the catch-up out downstream.
func (r *Relay) onResumeAck(ack wire.ResumeAck) {
	r.mu.Lock()
	r.contacted = true
	bumped := ack.Epoch > r.epoch
	if bumped {
		r.epoch = ack.Epoch
	}
	conns := r.childConnsLocked()
	r.mu.Unlock()
	r.cc.mu.Lock()
	r.cc.epoch = ack.Epoch
	r.cc.mu.Unlock()
	if bumped {
		r.fanOut(conns, wire.Restart{Epoch: ack.Epoch}, "restart catch-up")
	}
}

// onUpstream intercepts every frame the root sends: cache the decision
// for handshake replay, fan it out to the children. Consumes
// everything — the relay has no node-side epoch loop to feed.
func (r *Relay) onUpstream(m wire.Msg) bool {
	r.mu.Lock()
	switch v := m.(type) {
	case wire.Shutdown:
		r.shutdown = true
	case wire.Commit:
		r.committed = true
	case wire.Restart:
		if v.Epoch > r.epoch {
			r.epoch = v.Epoch
		}
		r.shutdown = false
	case wire.ReExec:
		if v.Epoch > r.epoch {
			r.epoch = v.Epoch
		}
		r.shutdown = false
	case wire.Detection:
		det := v
		r.detection = &det
	case wire.ResumeAck:
		// Handled in resume(); a stray one carries nothing to forward.
		r.mu.Unlock()
		return true
	default:
		r.mu.Unlock()
		r.logf("relay %d: root sent unexpected %T", r.cfg.Index, m)
		return true
	}
	conns := r.childConnsLocked()
	r.mu.Unlock()
	r.fanOut(conns, m, fmt.Sprintf("%T", m))
	return true
}

// childConnsLocked snapshots the downstream connections. Caller holds
// r.mu.
func (r *Relay) childConnsLocked() map[int]*coordConn {
	conns := make(map[int]*coordConn, len(r.children))
	for id, ch := range r.children {
		ch.mu.Lock()
		if ch.sess.owner != nil {
			conns[id] = ch.sess.owner
		}
		ch.mu.Unlock()
	}
	return conns
}

// fanOut writes a root decision to every child connection; a child
// whose write fails gets the cached decisions replayed at its resume.
func (r *Relay) fanOut(conns map[int]*coordConn, m wire.Msg, what string) {
	broadcast(r.opt, r.logf, fmt.Sprintf("relay %d", r.cfg.Index), conns, m, what)
}

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
			default:
				r.logf("relay %d: accept: %v", r.cfg.Index, err)
			}
			return
		}
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				r.mu.Lock()
				delete(r.conns, conn)
				r.mu.Unlock()
			}()
			r.handleChild(conn)
		}()
	}
}

// handleChild serves one child connection with the root's handshake
// contract — the session decides, and an admitted Hello is forwarded
// so the root owns the fresh-vs-rejoin restart decision — then runs
// the shared read loop, queueing each admitted raw frame body for the
// upstream flush under the child's lock.
func (r *Relay) handleChild(rawConn net.Conn) {
	conn := &coordConn{Conn: rawConn}
	defer conn.Close()
	br := bufReader(rawConn)
	seq, first, body, err := readHandshake(rawConn, br, r.opt.DialTimeout)
	if err != nil {
		r.logf("relay %d: handshake: %v", r.cfg.Index, err)
		return
	}
	id, err := streamOrigin(first, r.cfg.N)
	if _, ok := first.(wire.RelayHello); ok {
		err = fmt.Errorf("first frame is %T, want Hello or Resume", first)
	}
	if err != nil {
		r.logf("relay %d: %v", r.cfg.Index, err)
		return
	}
	// r.mu is the relay's shutdownMu: holding it across the decision and
	// its replies orders them against onUpstream's cache update and
	// fan-out snapshot, so the child sees every decision exactly once.
	r.mu.Lock()
	ch := r.children[id]
	if ch == nil {
		ch = &relayChild{}
		r.children[id] = ch
	}
	ch.mu.Lock()
	v, replies := ch.sess.handshake(conn, seq, first,
		decisions{epoch: r.epoch, shutdown: r.shutdown, committed: r.committed, detection: r.detection})
	hello := v == fresh || v == rejoin
	if hello {
		r.stage(int32(id), wire.KindHello, body)
	}
	ch.mu.Unlock()
	err = conn.writeFrames(r.opt, replies)
	r.mu.Unlock()
	if hello {
		// Hello is the one frame that lives outside the child's session
		// log (it is the dial handshake, so a session resume never
		// replays it): every instant it sits queued here is a window
		// where this relay's death silently unregisters the child — or
		// swallows a crashed node's rejoin, wedging its WaitRestart hold.
		// Push it upstream now; Hellos are far too rare to batch.
		r.flush()
	}
	switch {
	case v == refused:
		// The run is sealed: the child got the exit ramp, and its Hello
		// is not forwarded — there is no run left to restart.
		r.logf("relay %d: node %d rejoined after commit; refused", r.cfg.Index, id)
		return
	case err != nil:
		r.logf("relay %d: node %d: handshake: %v", r.cfg.Index, id, err)
		return
	}
	serveStream(rawConn, br, r.quit, r.logf, fmt.Sprintf("relay %d: node %d", r.cfg.Index, id),
		func(kind byte, seq uint64, body []byte) error {
			ch.mu.Lock()
			defer ch.mu.Unlock()
			v := ch.sess.admit(conn, seq)
			if v == next {
				r.stage(int32(id), kind, body)
			}
			return verdictErr(v, seq, ch.sess.lastSeq)
		})
}

// stage queues one raw child frame body for the upstream flush.
// Completion-latency frames (Done, bye, EpochMark) flush within
// relayControlFlush rather than riding the full batch cadence; capture
// volume rides the interval.
func (r *Relay) stage(origin int32, kind byte, body []byte) {
	r.pendMu.Lock()
	r.pending = append(r.pending, relayPending{origin: origin, body: body})
	r.pendBytes += len(body)
	full := r.pendBytes >= maxRelayBatchBytes || len(r.pending) >= relayMaxPendFrames
	switch kind {
	case wire.KindDone, wire.KindShutdown, wire.KindEpochMark:
		if !full && !r.urgentArmed {
			// Don't flush synchronously: open a short window so the
			// control wave — every child's Done lands in the same
			// workload tail — coalesces before the uplink write.
			r.urgentArmed = true
			r.urgent.Reset(relayControlFlush)
		}
	}
	r.pendMu.Unlock()
	if full {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// flusher paces the upstream flush on the batching interval, the same
// size-or-interval policy the node-side capture batcher uses.
func (r *Relay) flusher() {
	defer r.wg.Done()
	t := time.NewTicker(r.cc.batch.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-r.kick:
		case <-r.urgent.C:
		case <-t.C:
		}
		r.flush()
	}
}

// flush drains the pending queue into RelayBatch frames under the byte
// cap and sends them through the uplink's session log — resumable,
// metered, and, with passes serialized by flushMu, in staging order.
func (r *Relay) flush() {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.pendMu.Lock()
	pend := r.pending
	r.pending = nil
	r.pendBytes = 0
	if r.urgentArmed {
		// Any flush satisfies an open control window; stop the timer so
		// a stale fire doesn't wake the flusher for nothing (a drained
		// timer channel is left as-is — the extra empty flush is free).
		r.urgentArmed = false
		r.urgent.Stop()
	}
	r.pendMu.Unlock()
	if len(pend) == 0 {
		return
	}
	var frames []wire.RelayFrame
	bytes := 0
	send := func() {
		if len(frames) > 0 {
			r.cc.sendItems(wire.RelayBatch{Frames: frames}, len(frames))
			frames, bytes = nil, 0
		}
	}
	for _, p := range pend {
		frames = append(frames, wire.RelayFrame{Origin: p.origin, Body: p.body})
		bytes += len(p.body)
		if bytes >= maxRelayBatchBytes {
			send()
		}
	}
	send()
}
