package node

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// Batching is the size-or-interval flush policy for a node's
// coordinator capture stream. Journal events and trace ops accumulate
// on the node and are flushed as wire.JournalBatch / wire.TraceOpBatch
// frames when MaxItems are pending or Interval elapses, whichever
// comes first — hundreds of nodes each emitting thousands of capture
// items must not mean one TCP frame (and one syscall at each end) per
// item. Zero values take the defaults below.
type Batching struct {
	// MaxItems caps the items carried per batch frame and triggers an
	// early flush when that many are pending. Default 128.
	MaxItems int
	// Interval is the flush period while below MaxItems; it bounds how
	// stale the coordinator's view can go. Default 2ms.
	Interval time.Duration
	// PerEvent disables batching: every journal event and trace op
	// rides its own frame, the pre-batching wire behavior. It exists as
	// the bench baseline and as a debugging aid (per-event frames are
	// easier to correlate with a packet capture).
	PerEvent bool
	// SnapshotEvery emits a wire.MetricsSnapshot (a cumulative dump of
	// the node's registry) every that-many flusher passes, riding the
	// existing batching cadence — the coordinator's live merged registry
	// and `pctl top` feed off it. Default 25 (≈ 50ms at the default 2ms
	// interval); negative disables snapshot streaming.
	SnapshotEvery int
}

// WithDefaults resolves unset fields to their defaults — the exact
// policy a node's capture batcher runs, exported so tooling (bench
// notes, CLI help) can describe the effective config instead of
// hand-writing it.
func (b Batching) WithDefaults() Batching { return b.withDefaults() }

func (b Batching) withDefaults() Batching {
	if b.MaxItems <= 0 {
		b.MaxItems = 128
	}
	if b.Interval <= 0 {
		b.Interval = 2 * time.Millisecond
	}
	if b.SnapshotEvery == 0 {
		b.SnapshotEvery = 25
	}
	return b
}

// CoordConfig parameterizes the cluster coordinator.
type CoordConfig struct {
	N        int
	Addr     string       // listen address (ignored when Listener is set)
	Listener net.Listener // optional pre-bound listener
	// Journal receives the merged cluster journal: every control event
	// forwarded by every node, plus candidate reports. May be nil.
	Journal      *obs.Journal
	Reg          *obs.Registry
	MetricLabels []obs.Label
	Timeouts     Timeouts
	Logf         func(string, ...any)
	// HTTPAddr, when non-empty (or HTTPListener non-nil), opts into the
	// introspection server: /metrics serves the coordinator's live
	// merged registry (every node's streamed snapshots plus per-node
	// ingest-lag gauges), /statusz the CoordStatus document `pctl top`
	// polls, /healthz liveness, /debug/pprof/ profiling.
	HTTPAddr     string
	HTTPListener net.Listener
	// Start anchors annotation timestamps; clusters pass the shared run
	// epoch so annotations line up with node journal timestamps. Zero
	// means "now".
	Start time.Time
	// Live opts the coordinator into online detection of possibly(¬B)
	// while the run streams. Zero value (nil Predicate) disables it.
	Live LiveConfig
	// Store, when non-nil, spills staged capture (trace ops, journal
	// events) to the segmented on-disk trace store instead of holding it
	// in RAM; assembly and the live prefix pass replay from disk. The
	// coordinator seals the store into a capture bundle at commit; the
	// caller owns Open/Close.
	Store *store.Store
}

// LiveConfig parameterizes the live online-detection subsystem: the
// coordinator feeds every ingested candidate to an incremental checker
// (internal/livedetect) and, on a confirmed detection, closes the
// paper's active-debugging loop without waiting for the run to end.
type LiveConfig struct {
	// Predicate is the good-state invariant B; the checker watches for
	// possibly(¬B). Nil disables live detection entirely.
	Predicate predicate.Expr
	// OnDetect selects the response to a confirmed mid-run detection:
	// OnDetectReExec (the default) broadcasts Detection + ReExec frames
	// and drives a §8 controlled re-execution; OnDetectNote records the
	// detection and lets the run finish undisturbed.
	OnDetect string
	// MaxReExecs caps detection-triggered re-executions so a violation
	// the control strategy cannot suppress does not re-execute forever.
	// Zero means the default of 1; negative disables re-execution.
	MaxReExecs int
}

// OnDetect modes.
const (
	OnDetectReExec = "reexec"
	OnDetectNote   = "note"
)

// CSMutexPredicate returns the cluster workload's control predicate
// B = ∨ᵢ (csᵢ = 0) over the n application processes: at least one
// application is outside its critical section. Its violation,
// possibly(¬B) = "a consistent cut with every application in CS", is
// what live detection watches the (n−1)-mutex runs for.
func CSMutexPredicate(n int) predicate.Expr {
	xs := make([]predicate.Expr, n)
	for i := range xs {
		xs[i] = predicate.LocalVarEq(i, "cs", 0)
	}
	return predicate.Or(xs...)
}

// DetectionRecord is one confirmed live detection as the run's history
// keeps it (detections survive epoch discards like annotations do: they
// describe what really happened, which re-execution does not rewrite).
type DetectionRecord struct {
	// Epoch is the execution epoch the detection fired in.
	Epoch uint32 `json:"epoch"`
	// Node is the node whose candidate completed the streaming witness,
	// or -1 when only the commit-time closing pass found the cut.
	Node int `json:"node"`
	// AtNs is when the confirmation landed, relative to the run start.
	AtNs int64 `json:"at_ns"`
	// Cut is the confirmed consistent cut — one consumed-state index per
	// logical process (apps 0..n-1, controllers n..2n-1).
	Cut []int64 `json:"cut"`
	// WitnessHiIdx is the last traced app-state index of the triggering
	// candidate interval (latency attribution joins it with the node's
	// monitor.candidate journal event).
	WitnessHiIdx int64 `json:"witness_hi_idx"`
	// StrategyEdges counts the added synchronization edges of the
	// control strategy computed on the confirmed prefix (0 when the
	// off-line algorithm found none or failed).
	StrategyEdges int `json:"strategy_edges"`
	// Final marks a detection found only by the commit-time closing
	// pass rather than strictly mid-run.
	Final bool `json:"final"`
	// ReExec marks a detection that triggered a controlled
	// re-execution.
	ReExec bool `json:"reexec"`
}

// Result is a completed cluster run as the coordinator saw it.
type Result struct {
	// Deposet is the captured run — apps 0..n-1, controllers n..2n-1,
	// the layout sim traces use — consumable by replay/detect/offline.
	Deposet *deposet.Deposet
	// Stats holds each node's final tallies.
	Stats []Stats
	// Candidates counts monitor candidate reports staged for the final
	// epoch (discarded epochs' reports are not included).
	Candidates int
	// Epoch is the re-execution epoch the run completed at: 0 for a
	// fault-free run, +1 per controlled re-execution restart.
	Epoch uint32
	// Restarts counts the controlled re-execution restarts the
	// coordinator ordered (crashed-node rejoins).
	Restarts int
	// Detections is the live checker's confirmed possibly(¬B) history
	// across every epoch, in confirmation order. Empty when live
	// detection was off or nothing fired.
	Detections []DetectionRecord
	// LiveFired reports whether the live checker confirmed possibly(¬B)
	// for the final epoch. Because commit runs a closing confirmation
	// pass over the complete final-epoch capture, this coincides exactly
	// with the offline detect.PossiblyGeneral verdict on Deposet.
	LiveFired bool
	// ReExecs counts detection-triggered controlled re-executions
	// (disjoint from Restarts, which counts crash recoveries).
	ReExecs int
	// RootConns counts stream handshakes the coordinator accepted
	// (Hello, Resume, RelayHello); RootFrames / RootBytes the frames
	// and payload bytes it read off accepted streams. With a relay tree
	// these measure the root's actual ingest load — O(relays) instead
	// of O(n) — which is what the cluster bench's tree rows report.
	RootConns  int64
	RootFrames int64
	RootBytes  int64
}

// nodeSession is the coordinator's per-node-id stream state: the
// stream's session (sequence admission, see session.go) plus what it
// staged. Staged capture (frames, candidates) belongs to the session's
// current epoch and is discarded wholesale when an EpochMark announces
// a newer one — the mechanism that makes the final trace equal to a
// fault-free run of the final epoch. The session lock, not the
// coordinator's, guards the hot ingest path, preserving the
// no-global-serialization property the batched ingest bench pins.
type nodeSession struct {
	id int

	// ingestMu serializes accept-and-stage as one atomic step per frame
	// (and handshake resets against in-flight frames): a handler whose
	// connection was superseded mid-ingest must not interleave its
	// staging with the successor's, or the per-process op order the
	// deposet assembly depends on scrambles. Always taken before mu.
	ingestMu sync.Mutex

	mu    sync.Mutex
	sess  session
	epoch uint32  // the stream's current epoch (last EpochMark seen)
	stage staging // the coordinator's backend for this origin
	cands int

	// Live-observability state: the node's latest cumulative metrics
	// snapshot and when it arrived. Deliberately NOT cleared on epoch
	// discard — the registry is cumulative across re-executions, so the
	// dashboard keeps its history through a restart.
	lastSnap   []wire.MetricPoint
	lastSnapAt time.Time
	snapEpoch  uint32
}

// resetLocked drops the staged capture and moves the stream to epoch
// e: on an EpochMark, and at epoch 0 on an admitted Hello (a relaunched
// process's dead incarnation left capture behind). A session built
// without a backend stages nothing. Caller holds s.mu.
func (s *nodeSession) resetLocked(e uint32) {
	s.epoch, s.cands = e, 0
	if s.stage != nil {
		s.stage.discard()
	}
}

// coordConn wraps one node connection with write serialization:
// ResumeAck from the handler races Shutdown/Restart broadcasts from
// other goroutines.
type coordConn struct {
	net.Conn
	wmu sync.Mutex
}

func (c *coordConn) writeFrame(opt Timeouts, m wire.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.SetWriteDeadline(time.Now().Add(opt.WriteTimeout))
	return wire.WriteFrame(c.Conn, 0, m)
}

// Coordinator collects the capture streams of a node cluster and
// reassembles them into a deposet trace plus a merged journal.
// Protocol flow: nodes connect and stream; after all N report Done at
// the current epoch the coordinator broadcasts Shutdown{epoch}; each
// node final-flushes, echoes Shutdown as its bye, and parks; when
// every bye is in, the coordinator broadcasts Commit — the run is
// sealed, parked nodes exit, and Wait assembles the trace. The park is
// what makes shutdown crash-safe: a node killed between the Shutdown
// broadcast and its bye rejoins and triggers a restart (the epoch was
// still voidable), while after Commit a rejoin is refused with the
// same Shutdown+Commit exit ramp.
//
// Failure handling is the paper's §8 controlled re-execution, global
// form: when a crashed node relaunches (a second Hello for a known
// id), the coordinator bumps the cluster epoch and broadcasts
// Restart{epoch} — every node aborts, resets its mesh, discards its
// local capture and deterministically re-executes from scratch. Each
// stream's EpochMark then discards that stream's staged capture, so
// what Wait assembles is exactly the final epoch: a trace
// indistinguishable from a fault-free run.
type Coordinator struct {
	n       int
	ln      net.Listener
	journal *obs.Journal
	cands   *obs.Counter
	opt     Timeouts
	logf    func(string, ...any)
	start   time.Time

	// live is the merged cluster registry: every node's streamed
	// MetricsSnapshot applied with a node label, plus the coordinator's
	// scrape-time ingest-lag gauges. It backs the introspection
	// server's /metrics and feeds CoordStatus.
	live *obs.Registry
	insp *obs.Introspection

	// Live online detection (nil ld when CoordConfig.Live is off):
	// every ingested candidate feeds ld; a trigger runs the prefix
	// confirmation, a confirmation fires the OnDetect response.
	ld        *livedetect.Checker
	liveCfg   LiveConfig
	violation predicate.Expr // ¬B, precomputed from Live.Predicate
	detMeter  *obs.Counter

	// store, when non-nil, is every session's staging backend: capture
	// volume (trace ops, journal events) spills to the segmented on-disk
	// trace store and streams back at assembly time. Coordination state
	// (epochs, completion, candidates, snapshots) stays in RAM.
	store *store.Store

	// Root-side ingest accounting for the tree-vs-flat bench: frames
	// and payload bytes read off accepted streams, and handshakes that
	// opened or resumed one.
	rootFrames atomic.Int64
	rootBytes  atomic.Int64
	rootConns  atomic.Int64

	mu         sync.Mutex
	sessions   map[int]*nodeSession
	relays     map[int]*relaySession
	relayConns map[int]*coordConn
	stats      []Stats
	epoch      uint32 // cluster re-execution epoch
	restarts   int
	reexecs    int               // detection-triggered re-executions
	detections []DetectionRecord // confirmed live detections, all epochs
	detByNode  []int             // confirmed detections per witness node
	doneSeen   []bool
	byeSeen    []bool
	doneCount  int
	byeCount   int
	conns      map[int]*coordConn
	annots     []obs.Event // cluster-level annotations (chaos, epoch bumps)
	err        error       // first fatal capture error; closes failed

	// shutdownMu serializes the run's terminal decisions — Shutdown
	// broadcast, Commit broadcast, restart-on-rejoin, and the state
	// replayed to resuming connections — against each other. Combined
	// with the per-connection write lock, every node observes those
	// decisions in decision order, so a Shutdown can never overtake the
	// Restart that voided it. Lock order: shutdownMu → ingestMu → st.mu,
	// and shutdownMu → c.mu; never taken while holding c.mu or a
	// session lock. A relay uplink's rs.ingestMu (held across each
	// RelayBatch, whose relayed Hellos take shutdownMu) comes first.
	shutdownMu sync.Mutex
	shutdown   bool // Shutdown broadcast for the current epoch, byes pending
	committed  bool // Commit broadcast: the run is sealed, no more restarts

	allByes chan struct{}
	byeOnce sync.Once
	failed  chan struct{}
	closed  chan struct{}
	wg      sync.WaitGroup
}

// NewCoordinator starts a coordinator for an n-node cluster.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: coordinator needs n ≥ 2, got %d", cfg.N)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("node: coordinator listen %s: %w", cfg.Addr, err)
		}
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	c := &Coordinator{
		n:          cfg.N,
		ln:         ln,
		journal:    cfg.Journal,
		cands:      cfg.Reg.Counter("predctl_monitor_candidates_total", cfg.MetricLabels...),
		opt:        cfg.Timeouts.withDefaults(),
		logf:       logf,
		start:      start,
		store:      cfg.Store,
		live:       obs.NewRegistry(),
		sessions:   map[int]*nodeSession{},
		relays:     map[int]*relaySession{},
		relayConns: map[int]*coordConn{},
		stats:      make([]Stats, cfg.N),
		doneSeen:   make([]bool, cfg.N),
		byeSeen:    make([]bool, cfg.N),
		conns:      map[int]*coordConn{},
		allByes:    make(chan struct{}),
		failed:     make(chan struct{}),
		closed:     make(chan struct{}),
	}
	if cfg.Live.Predicate != nil {
		lc := cfg.Live
		if lc.OnDetect == "" {
			lc.OnDetect = OnDetectReExec
		}
		if lc.OnDetect != OnDetectReExec && lc.OnDetect != OnDetectNote {
			ln.Close()
			return nil, fmt.Errorf("node: coordinator: unknown OnDetect mode %q", lc.OnDetect)
		}
		if lc.MaxReExecs == 0 {
			lc.MaxReExecs = 1
		}
		c.liveCfg = lc
		c.violation = predicate.Not(lc.Predicate)
		c.ld = livedetect.New(cfg.N)
		c.detMeter = cfg.Reg.Counter("predctl_live_detections_total", cfg.MetricLabels...)
		c.detByNode = make([]int, cfg.N)
	}
	if cfg.HTTPAddr != "" || cfg.HTTPListener != nil {
		insp, err := obs.ServeIntrospection(obs.IntrospectionConfig{
			Addr: cfg.HTTPAddr, Listener: cfg.HTTPListener,
			Reg:     c.live,
			Status:  func() any { return c.Status() },
			Healthy: c.healthy,
			Refresh: c.refreshLag,
			Logf:    logf,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.insp = insp
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// HTTPURL returns the introspection server's base URL, or "" when the
// server was not enabled.
func (c *Coordinator) HTTPURL() string { return c.insp.URL() }

func (c *Coordinator) healthy() error {
	select {
	case <-c.closed:
		return errors.New("coordinator closed")
	default:
		return nil
	}
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until every node's capture stream completed (or timeout),
// then merges the per-session staging — final epoch only — by logical
// process and assembles the run. A fatal capture error (a relayed
// stream that skipped frames, a failed store append) ends the wait
// early: the capture can no longer be the run, so there is no result.
func (c *Coordinator) Wait(timeout time.Duration) (*Result, error) {
	select {
	case <-c.allByes:
	case <-c.failed:
	case <-time.After(timeout):
		c.Close()
		c.mu.Lock()
		done, byes, epoch := c.doneCount, c.byeCount, c.epoch
		c.mu.Unlock()
		return nil, fmt.Errorf("node: coordinator timed out after %v (epoch %d, %d/%d done, %d/%d byes)",
			timeout, epoch, done, c.n, byes, c.n)
	}
	if err := c.failure(); err != nil {
		c.Close()
		return nil, err
	}
	// Deliberately no Close on success: a parked node whose Commit died
	// with a broken stream redials and fetches it from the resume
	// replay, which needs the listener alive. The owner's Close (or the
	// harness's deferred one) tears everything down.

	sessions := c.sessionsSorted()
	c.mu.Lock()
	stats := append([]Stats(nil), c.stats...)
	epoch, restarts := c.epoch, c.restarts
	reexecs := c.reexecs
	dets := append([]DetectionRecord(nil), c.detections...)
	annots := append([]obs.Event(nil), c.annots...)
	c.mu.Unlock()

	f := newCaptureFold(c.n, true)
	candidates := 0
	for _, st := range sessions {
		dropped := f.dropped
		st.mu.Lock()
		candidates += st.cands
		err := st.stage.replay(f)
		st.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("node: coordinator: staged capture of node %d: %w", st.id, err)
		}
		if k := f.dropped - dropped; k > 0 {
			c.logf("coordinator: node %d: %d trace ops for unknown processes dropped", st.id, k)
		}
	}
	events := append(f.events, annots...)
	// The merged journal is time-ordered across nodes (stably, so each
	// node's own order survives ties); the invariant checkers order by
	// generation themselves, this is for human timelines.
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		c.journal.Append(e)
	}

	d, err := assemble(c.n, f.byProc)
	if err != nil {
		return nil, err
	}
	return &Result{
		Deposet:    d,
		Stats:      stats,
		Candidates: candidates,
		Epoch:      epoch,
		Restarts:   restarts,
		Detections: dets,
		LiveFired:  c.ld != nil && c.ld.Fired(),
		ReExecs:    reexecs,
		RootConns:  c.rootConns.Load(),
		RootFrames: c.rootFrames.Load(),
		RootBytes:  c.rootBytes.Load(),
	}, nil
}

// Close shuts the coordinator's listener and connections down.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
		return
	default:
		close(c.closed)
	}
	c.insp.Close()
	c.ln.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	// Relay uplinks are tracked separately from node conns; leaving
	// them open would keep their handleRelay readers — and so wg.Wait —
	// alive for as long as the relays keep forwarding.
	for _, conn := range c.relayConns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.closed:
			default:
				c.logf("coordinator: accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleNode(conn)
		}()
	}
}

// session returns (creating if needed) the state for node id.
func (c *Coordinator) session(id int) *nodeSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.sessions[id]
	if st == nil {
		st = &nodeSession{id: id, stage: &ramStaging{newCaptureFold(c.n, true)}}
		if c.store != nil {
			st.stage = storeStaging{c.store, int32(id)}
		}
		c.sessions[id] = st
	}
	return st
}

// attach installs conn as node id's connection, closing any previous
// one so a zombie handler can't keep reading a superseded stream.
func (c *Coordinator) attach(id int, conn *coordConn) {
	c.mu.Lock()
	old := c.conns[id]
	c.conns[id] = conn
	c.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
}

// handleNode serves one accepted connection: a relay uplink goes to
// handleRelay; a node stream runs its handshake (Hello for a fresh
// session or a crashed-node rejoin, Resume to continue one), then the
// shared read loop with sequence-checked ingest into its session.
func (c *Coordinator) handleNode(rawConn net.Conn) {
	conn := &coordConn{Conn: rawConn}
	defer conn.Close()
	br := bufReader(rawConn)
	seq, first, _, err := readHandshake(rawConn, br, c.opt.DialTimeout)
	if err != nil {
		c.logf("coordinator: handshake: %v", err)
		return
	}
	c.rootConns.Add(1)
	id, err := streamOrigin(first, c.n)
	if err != nil {
		c.logf("coordinator: %v", err)
		return
	}
	if h, ok := first.(wire.RelayHello); ok {
		c.handleRelay(conn, br, id, h)
		return
	}
	st := c.session(id)
	// The decision, its replies and a rejoin's restart broadcast all
	// happen under shutdownMu, so every node observes the decisions in
	// decision order.
	c.shutdownMu.Lock()
	v, replies := c.openLocked(st, conn, seq, first)
	if v != refused {
		c.attach(id, conn)
	}
	err = conn.writeFrames(c.opt, replies)
	if v == rejoin {
		// Until Commit, a rejoin always restarts — even one landing
		// between the Shutdown broadcast and the last bye: the
		// "completed" execution is voided and re-run, because the
		// alternative (refusing the relaunch) would strand the byes the
		// dead incarnation never sent.
		c.restartClusterLocked(id)
	}
	c.shutdownMu.Unlock()
	switch {
	case v == refused:
		c.logf("coordinator: node %d rejoined after commit; refused", id)
		return
	case err != nil:
		c.logf("coordinator: node %d: handshake: %v", id, err)
		return
	}
	serveStream(rawConn, br, c.closed, c.logf, fmt.Sprintf("coordinator: node %d", id),
		func(_ byte, seq uint64, body []byte) error {
			c.countFrame(body)
			_, m, err := wire.DecodeBody(body)
			if err != nil {
				return err
			}
			return c.admitStage(st, conn, seq, m, body)
		})
}

// openLocked runs st's handshake against the current decisions. An
// admitted Hello opens a new incarnation of the stream, so whatever
// the previous one staged is void. Caller holds shutdownMu; the
// session locks order the reset against in-flight frames.
func (c *Coordinator) openLocked(st *nodeSession, from *coordConn, seq uint64, first wire.Msg) (verdict, []wire.Msg) {
	d := c.decisionsLocked()
	st.ingestMu.Lock()
	st.mu.Lock()
	v, replies := st.sess.handshake(from, seq, first, d)
	if v == fresh || v == rejoin {
		st.resetLocked(0)
	}
	st.mu.Unlock()
	st.ingestMu.Unlock()
	return v, replies
}

// decisionsLocked snapshots the decision state handshakes replay.
// Caller holds shutdownMu.
func (c *Coordinator) decisionsLocked() decisions {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := decisions{epoch: c.epoch, shutdown: c.shutdown, committed: c.committed}
	for i := len(c.detections) - 1; i >= 0; i-- {
		if rec := c.detections[i]; rec.ReExec {
			d.detection = &wire.Detection{Epoch: rec.Epoch, Node: int32(rec.Node), AtNs: rec.AtNs, Cut: rec.Cut}
			break
		}
	}
	return d
}

// admitStage admits one frame of st's stream arriving on from (nil for
// a relayed stream) and, if it is the next one, folds it in. Admission
// and staging are one atomic step under ingestMu, so a handler whose
// connection was superseded mid-read can never interleave its staging
// with its successor's. The completion action the frame obligates runs
// once the session locks are released: it takes shutdownMu, which
// handshakes take before ingestMu, and revalidates against the current
// epoch, so a decision a concurrent rejoin just voided dies there.
func (c *Coordinator) admitStage(st *nodeSession, from *coordConn, seq uint64, m wire.Msg, raw []byte) error {
	st.ingestMu.Lock()
	st.mu.Lock()
	v := st.sess.admit(from, seq)
	last := st.sess.lastSeq
	st.mu.Unlock()
	if v != next {
		st.ingestMu.Unlock()
		return verdictErr(v, seq, last)
	}
	act, e := actNone, uint32(0)
	if isCapture(m) {
		st.mu.Lock()
		err := st.stage.add(st.epoch, m, raw)
		st.mu.Unlock()
		if err != nil {
			c.fail(fmt.Errorf("%w: node %d: %v", ErrStaging, st.id, err))
		}
	} else {
		act, e = c.ingest(st, m)
	}
	st.ingestMu.Unlock()
	switch act {
	case actAllDone:
		c.broadcastShutdown(e)
	case actAllByes:
		c.commitRun(e)
	case actDetected:
		c.fireDetection(st.id)
	}
	return nil
}

// ErrStaging reports a capture frame the staging backend could not
// hold (a trace-store append failed). Staging has no fallback — a frame
// parked elsewhere would reorder the process's ops — so it fails the
// run.
var ErrStaging = errors.New("capture staging failed")

// fail records the run's first fatal capture error and releases Wait,
// which returns it.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	c.mu.Unlock()
	if first {
		c.logf("coordinator: %v", err)
		close(c.failed)
	}
}

func (c *Coordinator) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// countFrame accounts one frame body read off an accepted stream.
func (c *Coordinator) countFrame(body []byte) {
	c.rootFrames.Add(1)
	c.rootBytes.Add(int64(len(body) + 4))
}

// restartClusterLocked runs the §8 controlled re-execution decision
// after node id relaunched: bump the epoch, void the completion
// progress of the abandoned execution — including a pending Shutdown,
// whose byes can now never complete — and order every node to restart.
// The caller holds shutdownMu, which serializes this decision against
// Shutdown/Commit broadcasts and resume replays.
func (c *Coordinator) restartClusterLocked(id int) {
	e, conns := c.nextEpochLocked(&c.restarts)
	c.logf("coordinator: node %d rejoined; restarting cluster at epoch %d", id, e)
	c.Annotate(obs.EvEpochRestart, int64(id), int64(e))
	c.broadcast(conns, wire.Restart{Epoch: e}, "restart")
}

// nextEpochLocked voids the current execution, a pending Shutdown
// included, moves the cluster to the next epoch and counts the move in
// *tally; it returns the new epoch and the connections to tell. Caller
// holds shutdownMu.
func (c *Coordinator) nextEpochLocked(tally *int) (uint32, map[int]*coordConn) {
	c.shutdown = false
	c.mu.Lock()
	defer c.mu.Unlock()
	*tally++
	c.enterEpochLocked(c.epoch + 1)
	return c.epoch, c.snapshotConnsLocked()
}

// enterEpochLocked moves the cluster to epoch e and recounts completion
// from scratch. The live checker follows the cluster epoch, so the
// abandoned epoch's candidates cannot seed a detection in the
// re-execution. Caller holds c.mu.
func (c *Coordinator) enterEpochLocked(e uint32) {
	c.epoch = e
	c.doneCount, c.byeCount = 0, 0
	clear(c.doneSeen)
	clear(c.byeSeen)
	if c.ld != nil {
		c.ld.Reset(e)
	}
}

// snapshotConnsLocked copies the connection table for a broadcast —
// direct node streams plus relay uplinks (keyed -(index+1) so the two
// tables cannot collide): a decision broadcast reaches relayed nodes
// through their relay's fan-out. Caller holds c.mu.
func (c *Coordinator) snapshotConnsLocked() map[int]*coordConn {
	conns := make(map[int]*coordConn, len(c.conns)+len(c.relayConns))
	for id, conn := range c.conns {
		conns[id] = conn
	}
	for idx, conn := range c.relayConns {
		conns[-(idx + 1)] = conn
	}
	return conns
}

// broadcast writes a decision to every node stream and relay uplink.
func (c *Coordinator) broadcast(conns map[int]*coordConn, m wire.Msg, what string) {
	broadcast(c.opt, c.logf, "coordinator", conns, m, what)
}

// ingestAction is what a frame's ingest obligates the caller to do
// once every session lock is released.
type ingestAction int

const (
	actNone     ingestAction = iota
	actAllDone               // every Done for the returned epoch is in: broadcast Shutdown
	actAllByes               // every bye for the returned epoch is in: commit the run
	actDetected              // the live checker triggered: run the prefix confirmation
)

// ingest folds one admitted coordination frame (anything but capture
// volume, which admitStage stages) from a node's stream into the
// coordinator state, reporting the completion action (if any) it
// triggered and the epoch that action belongs to. Only the rare
// completion frames (Done, Shutdown, EpochMark) touch c.mu. Done and
// bye count toward completion only when the stream is at the cluster
// epoch: a Done raced by a Restart belongs to a voided execution.
func (c *Coordinator) ingest(st *nodeSession, m wire.Msg) (ingestAction, uint32) {
	switch v := m.(type) {
	case wire.MetricsSnapshot:
		st.mu.Lock()
		st.lastSnap = v.Points
		st.lastSnapAt = time.Now()
		st.snapEpoch = v.Epoch
		st.mu.Unlock()
		// Cumulative set semantics make re-applied resume replays
		// idempotent; the node label scopes series from nodes that
		// don't already label themselves.
		c.live.ApplySnapshot(toObsPoints(v.Points), obs.L("node", strconv.Itoa(st.id)))
	case wire.Candidate:
		if c.ingestCandidate(st, v) {
			return actDetected, 0
		}
	case wire.CandidateBatch:
		det := false
		for _, cand := range v.Cands {
			det = c.ingestCandidate(st, cand) || det
		}
		if det {
			return actDetected, 0
		}
	case wire.EpochMark:
		st.mu.Lock()
		if v.Epoch > st.epoch {
			st.resetLocked(v.Epoch)
		}
		st.mu.Unlock()
		c.mu.Lock()
		if v.Epoch > c.epoch {
			// A mark above our epoch means we are the one missing state —
			// a restarted coordinator rebuilding from session replays.
			// Adopt it and recount completion from the replayed streams.
			c.enterEpochLocked(v.Epoch)
		}
		c.mu.Unlock()
	case wire.Done:
		st.mu.Lock()
		se := st.epoch
		st.mu.Unlock()
		c.mu.Lock()
		if se != c.epoch {
			c.mu.Unlock()
			return actNone, 0
		}
		// A node reports Done twice at its final epoch — once when its
		// application finishes, once with the closing tallies in its bye
		// phase — so later reports overwrite, only the first counts.
		c.stats[st.id] = Stats{
			Requests:    int(v.Requests),
			Handoffs:    int(v.Handoffs),
			CtlMessages: int(v.CtlMessages),
		}
		for _, ns := range v.Responses {
			c.stats[st.id].Responses = append(c.stats[st.id].Responses, time.Duration(ns))
		}
		first := !c.doneSeen[st.id]
		if first {
			c.doneSeen[st.id] = true
			c.doneCount++
		}
		all := c.doneCount == c.n
		e := c.epoch
		c.mu.Unlock()
		if first && all {
			return actAllDone, e
		}
	case wire.Shutdown:
		st.mu.Lock()
		se := st.epoch
		st.mu.Unlock()
		c.mu.Lock()
		all := false
		e := c.epoch
		if se == c.epoch && v.Epoch == c.epoch && !c.byeSeen[st.id] {
			c.byeSeen[st.id] = true
			c.byeCount++
			all = c.byeCount == c.n
		}
		c.mu.Unlock()
		if all {
			return actAllByes, e
		}
	default:
		c.logf("coordinator: node %d: unexpected %T", st.id, m)
	}
	return actNone, 0
}

// refreshLag recomputes the per-node snapshot-staleness gauges —
// predctl_coord_ingest_lag_seconds{node=...} — at scrape time, the
// introspection server's Refresh hook. A node that has never
// snapshotted has no lag series (absence is the signal).
func (c *Coordinator) refreshLag() {
	now := time.Now()
	for _, st := range c.sessionsSorted() {
		st.mu.Lock()
		at := st.lastSnapAt
		st.mu.Unlock()
		if at.IsZero() {
			continue
		}
		c.live.FloatGauge("predctl_coord_ingest_lag_seconds",
			obs.L("node", strconv.Itoa(st.id))).Set(now.Sub(at).Seconds())
	}
	if c.store != nil {
		segs, bytes := c.store.Stats()
		c.live.Gauge("predctl_store_segments_total").Set(int64(segs))
		c.live.Gauge("predctl_store_segment_bytes").Set(bytes)
	}
}

// sessionsSorted snapshots the session table in node-id order.
func (c *Coordinator) sessionsSorted() []*nodeSession {
	c.mu.Lock()
	sessions := make([]*nodeSession, 0, len(c.sessions))
	for _, st := range c.sessions {
		sessions = append(sessions, st)
	}
	c.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	return sessions
}

// CoordStatus is the coordinator's /statusz document: the cluster's
// completion state plus one row per attached node — what `pctl top`
// renders.
type CoordStatus struct {
	N         int    `json:"n"`
	Epoch     uint32 `json:"epoch"`
	Restarts  int    `json:"restarts"`
	Done      int    `json:"done"`
	Byes      int    `json:"byes"`
	Shutdown  bool   `json:"shutdown"`
	Committed bool   `json:"committed"`
	UptimeMs  int64  `json:"uptime_ms"`
	// Live reports whether online detection is enabled; Detections is
	// the confirmed-detection count across all epochs, LiveFired whether
	// the current epoch has a confirmed detection, and ReExecs the
	// detection-triggered re-executions ordered so far.
	Live       bool              `json:"live"`
	Detections int               `json:"detections"`
	LiveFired  bool              `json:"live_fired"`
	ReExecs    int               `json:"reexecs"`
	Nodes      []CoordNodeStatus `json:"nodes"`
	// Relays holds one row per relay uplink when the cluster ingests
	// through an aggregation tree (empty for a flat topology).
	Relays []CoordRelayStatus `json:"relays,omitempty"`
	// StoreSegments / StoreBytes report the trace store's footprint
	// when capture spills to disk (both zero without a store).
	StoreSegments int   `json:"store_segments,omitempty"`
	StoreBytes    int64 `json:"store_bytes,omitempty"`
}

// CoordNodeStatus is one node's row in CoordStatus.
type CoordNodeStatus struct {
	Node       int    `json:"node"`
	Epoch      uint32 `json:"epoch"` // the stream's epoch (last EpochMark)
	LastSeq    uint64 `json:"last_seq"`
	Candidates int    `json:"candidates"`
	// Detections counts confirmed live detections whose streaming
	// witness this node's candidate completed.
	Detections int  `json:"detections"`
	Done       bool `json:"done"`
	Bye        bool `json:"bye"`
	// LagMs is the age of the node's last metrics snapshot; -1 until
	// one arrives.
	LagMs float64 `json:"lag_ms"`
	// Metrics folds the node's last snapshot into per-name totals
	// (counters and gauges, labels summed out) so pollers need not
	// parse series keys.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status assembles the live status document. Safe to call while the
// run streams; it takes only brief per-session locks.
func (c *Coordinator) Status() CoordStatus {
	now := time.Now()
	c.mu.Lock()
	s := CoordStatus{
		N: c.n, Epoch: c.epoch, Restarts: c.restarts,
		Done: c.doneCount, Byes: c.byeCount,
		UptimeMs:   now.Sub(c.start).Milliseconds(),
		Live:       c.ld != nil,
		Detections: len(c.detections),
		ReExecs:    c.reexecs,
	}
	doneSeen := append([]bool(nil), c.doneSeen...)
	byeSeen := append([]bool(nil), c.byeSeen...)
	detByNode := append([]int(nil), c.detByNode...)
	c.mu.Unlock()
	if c.ld != nil {
		s.LiveFired = c.ld.Fired()
	}
	c.shutdownMu.Lock()
	s.Shutdown, s.Committed = c.shutdown, c.committed
	c.shutdownMu.Unlock()
	for _, st := range c.sessionsSorted() {
		st.mu.Lock()
		row := CoordNodeStatus{
			Node: st.id, Epoch: st.epoch, LastSeq: st.sess.lastSeq,
			Candidates: st.cands, LagMs: -1,
			Metrics: obs.SumByName(toObsPoints(st.lastSnap)),
		}
		if !st.lastSnapAt.IsZero() {
			row.LagMs = float64(now.Sub(st.lastSnapAt).Microseconds()) / 1e3
		}
		st.mu.Unlock()
		if st.id >= 0 && st.id < len(doneSeen) {
			row.Done, row.Bye = doneSeen[st.id], byeSeen[st.id]
		}
		if st.id >= 0 && st.id < len(detByNode) {
			row.Detections = detByNode[st.id]
		}
		s.Nodes = append(s.Nodes, row)
	}
	s.Relays = c.relayStatusRows(now)
	if c.store != nil {
		s.StoreSegments, s.StoreBytes = c.store.Stats()
	}
	return s
}

// Annotate records a cluster-level instant event — a chaos injection,
// an epoch bump — on the merged journal's timeline. Annotations use
// Proc -1 (no logical process; the trace exporter renders them on a
// cluster pseudo-row) and survive epoch discards: they describe the
// run's real history, which controlled re-execution does not rewrite.
func (c *Coordinator) Annotate(name string, a, b int64) {
	c.AnnotateAt(time.Since(c.start).Nanoseconds(), name, a, b)
}

// AnnotateAt is Annotate with an explicit timestamp (nanoseconds
// relative to the run start) — for events whose schedule is known a
// priori, like partition windows.
func (c *Coordinator) AnnotateAt(atNs int64, name string, a, b int64) {
	e := obs.Event{
		At: atNs, Proc: -1,
		Kind: obs.KindControl, Name: name, A: a, B: b,
	}
	c.mu.Lock()
	c.annots = append(c.annots, e)
	c.mu.Unlock()
}

// ingestCandidate stages one candidate report and, when live detection
// is on, offers it to the incremental checker at the stream's epoch (so
// an abandoned execution's stragglers are discarded, not believed). It
// reports whether the caller owes a prefix-confirmation pass. The
// candidate's journal event is emitted node-side (with a real
// timestamp) rather than synthesized here.
func (c *Coordinator) ingestCandidate(st *nodeSession, v wire.Candidate) bool {
	c.cands.Inc()
	st.mu.Lock()
	st.cands++
	e := st.epoch
	st.mu.Unlock()
	if c.ld == nil {
		return false
	}
	return c.ld.Offer(e, livedetect.Interval{
		Proc: int(v.Proc), LoIdx: v.LoIdx, HiIdx: v.HiIdx, Lo: v.Lo, Hi: v.Hi,
	})
}

// stagedOps snapshots every session's staged capture for epoch e,
// grouped by logical process — the input to the live prefix
// confirmation. Sessions still at an older epoch contribute nothing:
// their ops predate the EpochMark that will void them.
func (c *Coordinator) stagedOps(e uint32) [][]wire.TraceOp {
	f := newCaptureFold(c.n, false)
	for _, st := range c.sessionsSorted() {
		var err error
		st.mu.Lock()
		if st.epoch == e {
			err = st.stage.replay(f)
		}
		st.mu.Unlock()
		if err != nil {
			c.logf("coordinator: node %d: staged capture: %v", st.id, err)
		}
	}
	return f.byProc
}

// fireDetection runs the confirming stage after the streaming checker
// triggered: assemble the staged capture's causally closed prefix and
// decide possibly(¬B) on it for real. Like the other terminal
// decisions it runs under shutdownMu and revalidates — a trigger a
// concurrent restart just voided dies here instead of firing into the
// wrong epoch. witness is the node whose frame carried the triggering
// candidate (display attribution only; the record prefers the
// checker's own triggering interval).
func (c *Coordinator) fireDetection(witness int) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.ld == nil || c.committed {
		return
	}
	c.mu.Lock()
	e := c.epoch
	c.mu.Unlock()
	if !c.ld.Pending(e) {
		return // superseded by a restart, or already confirmed
	}
	c.confirmLocked(e, witness, false)
}

// confirmLocked decides possibly(¬B) on epoch e's captured prefix and,
// when a consistent cut is found, records the detection and fires the
// OnDetect response. A not-found is not a verdict — the cut may lie
// beyond the current prefix, so the trigger stays pending and later
// candidates retry on the grown capture. Caller holds shutdownMu.
func (c *Coordinator) confirmLocked(e uint32, witness int, final bool) {
	d, _, err := livedetect.AssemblePrefix(c.n, c.stagedOps(e))
	if err != nil {
		c.logf("coordinator: live confirm: %v", err)
		return
	}
	cut, found := detect.PossiblyGeneral(d, c.violation)
	if !found {
		return
	}
	if !c.ld.Confirm(e) {
		return // a concurrent confirmer won, or the epoch moved on
	}
	rec := DetectionRecord{
		Epoch: e, Node: witness, AtNs: time.Since(c.start).Nanoseconds(),
		Cut: cutToInt64(cut), Final: final,
	}
	if iv, ok := c.ld.Trigger(); ok {
		rec.Node, rec.WitnessHiIdx = iv.Proc, iv.HiIdx
	}
	// The active-debugging payload: §4's off-line control algorithm on
	// the confirmed prefix yields the synchronization strategy the
	// controlled re-execution would drive the run through. Failure to
	// find one (¬B may be uncontrollable) downgrades the response to a
	// plain uncontrolled re-execution, it does not suppress the
	// detection.
	if rel, _, err := offline.ControlGeneral(d, c.liveCfg.Predicate); err == nil {
		rec.StrategyEdges = len(rel)
	} else {
		c.logf("coordinator: live detection: no control strategy: %v", err)
	}
	c.mu.Lock()
	canReExec := !final && c.liveCfg.OnDetect == OnDetectReExec && c.reexecs < c.liveCfg.MaxReExecs
	rec.ReExec = canReExec
	c.detections = append(c.detections, rec)
	if rec.Node >= 0 && rec.Node < len(c.detByNode) {
		c.detByNode[rec.Node]++
	}
	c.mu.Unlock()
	c.detMeter.Inc()
	c.Annotate(obs.EvDetect, int64(rec.Node), int64(e))
	c.logf("coordinator: live detection: possibly(¬B) confirmed at epoch %d (witness node %d, cut %v)",
		e, rec.Node, cut)
	if canReExec {
		c.reexecClusterLocked(rec)
	}
}

// reexecClusterLocked is restartClusterLocked's detection-triggered
// twin — the paper's active-debugging response, driven automatically:
// void the epoch the violation was observed in, announce the detection
// (Detection frame, so every node knows it now runs under control) and
// order the §8 controlled re-execution (ReExec frame, which nodes
// treat as a Restart). Caller holds shutdownMu.
func (c *Coordinator) reexecClusterLocked(rec DetectionRecord) {
	ne, conns := c.nextEpochLocked(&c.reexecs)
	c.logf("coordinator: detection at epoch %d: controlled re-execution at epoch %d (%d strategy edges)",
		rec.Epoch, ne, rec.StrategyEdges)
	c.Annotate(obs.EvEpochReExec, int64(rec.Node), int64(ne))
	c.broadcast(conns, wire.Detection{
		Epoch: rec.Epoch, Node: int32(rec.Node), AtNs: rec.AtNs, Cut: rec.Cut,
	}, "detection")
	c.broadcast(conns, wire.ReExec{Epoch: ne, Edges: uint32(rec.StrategyEdges)}, "reexec")
}

// finalLiveLocked is the commit-time closing pass: force the trigger
// and confirm once more on the complete final-epoch capture, so the
// live verdict coincides exactly with the offline decision on the
// assembled trace — the streaming stage's conservatism (node-level
// clocks over-approximate causality) cannot cost a detection, only
// immediacy. The run is complete, so the pass never re-executes.
// Caller holds shutdownMu.
func (c *Coordinator) finalLiveLocked(e uint32) {
	if c.ld == nil {
		return
	}
	if c.ld.ForceTrigger(e) {
		c.confirmLocked(e, -1, true)
	}
}

func cutToInt64(cut deposet.Cut) []int64 {
	out := make([]int64, len(cut))
	for i, v := range cut {
		out[i] = int64(v)
	}
	return out
}

// IngestBench replays pre-encoded frame bodies through the
// coordinator's admit-decode-and-stage path — exactly what handleNode
// does per frame, minus the socket — so the cluster bench can measure
// ingest allocations per trace op without standing up a listener. It
// returns the number of trace ops staged.
func IngestBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	c := benchCoordinator(n)
	st := c.session(0)
	for _, body := range bodies {
		seq, m, err := wire.DecodeBody(body)
		if err == nil {
			err = c.admitStage(st, nil, seq, m, body)
		}
		if err != nil {
			return 0, err
		}
	}
	return c.benchStaged(journal)
}

// IngestRelayBench replays pre-encoded RelayBatch frame bodies through
// the root's uplink path — outer admission, unpack, per-origin
// admission, decode-and-stage — the socket-free twin of IngestBench
// for the tree topology. It returns the number of trace ops staged
// across all origins.
func IngestRelayBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	c := benchCoordinator(n)
	rs := c.relaySession(0)
	for _, body := range bodies {
		_, seq, err := wire.PeekBody(body)
		if err == nil {
			err = c.ingestUplink(rs, nil, seq, body)
		}
		if err != nil {
			return 0, fmt.Errorf("node: relay ingest bench: %w", err)
		}
	}
	return c.benchStaged(journal)
}

// benchCoordinator is a socket-free RAM-staging coordinator for the
// ingest benches.
func benchCoordinator(n int) *Coordinator {
	return &Coordinator{
		n: n, logf: func(string, ...any) {},
		sessions: map[int]*nodeSession{},
		relays:   map[int]*relaySession{},
		stats:    make([]Stats, n),
		doneSeen: make([]bool, n), byeSeen: make([]bool, n),
		failed: make(chan struct{}),
	}
}

// benchStaged counts the ops every session staged and appends their
// journal events, through the same fold Wait runs.
func (c *Coordinator) benchStaged(journal *obs.Journal) (int, error) {
	f := newCaptureFold(c.n, true)
	for _, st := range c.sessionsSorted() {
		if err := st.stage.replay(f); err != nil {
			return 0, err
		}
	}
	for _, e := range f.events {
		journal.Append(e)
	}
	return f.ops, c.failure()
}

// broadcastShutdown tells every node the execution at epoch e is
// complete — once the decision survives revalidation. A crashed-node
// rejoin can land between the last Done being counted and this call
// taking shutdownMu; the restart voided epoch e, and the stale
// decision must die here rather than race its Restart onto the wire
// (the node side latches whichever arrives first, so a raced Shutdown
// would strand part of the cluster in its bye phase while the rest
// re-executes — the 2/4-done hang).
func (c *Coordinator) broadcastShutdown(e uint32) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.shutdown || c.committed {
		return
	}
	c.mu.Lock()
	valid := c.epoch == e && c.doneCount == c.n
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	if !valid {
		return
	}
	c.shutdown = true
	c.broadcast(conns, wire.Shutdown{Epoch: e}, "shutdown")
}

// commitRun seals the run at epoch e once every bye is in and the
// decision survives revalidation (a rejoin after the last bye restarts
// the cluster instead — until this commit, a completed execution is
// still voidable). After it, no restart is possible, parked nodes may
// exit, and Wait assembles the capture.
func (c *Coordinator) commitRun(e uint32) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.committed || !c.shutdown {
		return
	}
	c.mu.Lock()
	valid := c.epoch == e && c.byeCount == c.n
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	if !valid {
		return
	}
	c.committed = true
	c.broadcast(conns, wire.Commit{}, "commit")
	// Closing live pass after the Commit goes out but before allByes
	// releases Wait: every bye is in, so the staged capture is the
	// complete final-epoch trace, and one last confirmation makes the
	// live verdict coincide with offline detection on the assembled
	// run. Running it after the broadcast overlaps the confirm with the
	// nodes' teardown; the record can't be observed partially because
	// Wait blocks on allByes below (and no restart can void it — the
	// seal is already set, and shutdownMu is held throughout).
	c.finalLiveLocked(e)
	if c.store != nil {
		// Seal after the closing live pass (which still replays from the
		// store) but before Wait is released: the directory is a complete,
		// verifiable capture bundle the moment the run result exists.
		if err := c.store.Seal(c.n, e); err != nil {
			c.logf("coordinator: store seal: %v", err)
		}
	}
	c.byeOnce.Do(func() { close(c.allByes) })
}
