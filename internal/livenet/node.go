package livenet

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/retrypolicy"
	"resilientmix/internal/sim"
)

// DataFunc receives a decrypted application payload at a live responder
// together with a reply handle.
type DataFunc func(h ReplyHandle, data []byte)

// Config assembles a live node.
type Config struct {
	// ID is this node's roster identity.
	ID netsim.NodeID
	// Roster is the deployment membership and PKI.
	Roster *Roster
	// Private is this node's private key (matching its roster entry).
	Private onioncrypt.PrivateKey
	// Suite selects the cryptography; nil selects ECIES (real crypto is
	// the point of a live node).
	Suite onioncrypt.Suite
	// StateTTL bounds idle relay and responder state; zero selects 10
	// minutes.
	StateTTL time.Duration
	// DialTimeout bounds outbound connection attempts; zero selects 5s.
	DialTimeout time.Duration
	// ConstructTimeout bounds the wait for a construction ack; zero
	// selects 10s.
	ConstructTimeout time.Duration
	// DialRetry governs outbound dial retries (§4.5's bounded retries
	// with jittered exponential backoff). The zero value selects 2
	// attempts with 100ms backoff, a 1s cap and 50% jitter; set
	// Attempts to 1 for no retries.
	DialRetry retrypolicy.Policy
	// OnData enables the responder role.
	OnData DataFunc
	// Tracer, when non-nil, receives the node's wire events. Live
	// events carry wall-clock microseconds in At (a live network has no
	// virtual clock), so live traces are not run-to-run reproducible —
	// unlike simulator traces.
	Tracer obs.Tracer
}

// liveMetrics holds the node's registry instruments, resolved once at
// startup.
type liveMetrics struct {
	framesOut, sendErrors, badFrames *obs.Counter
	linksDialed                      *obs.Counter
	framesIn                         [kindConstructData + 1]*obs.Counter
	forwardStates, reverseStates     *obs.Gauge
}

// kindNames names the frame kinds for metrics and docs.
var kindNames = [...]string{
	kindConstruct: "construct", kindAck: "ack", kindData: "data",
	kindDeliver: "deliver", kindReverse: "reverse", kindConstructData: "construct_data",
}

func newLiveMetrics(reg *obs.Registry) *liveMetrics {
	m := &liveMetrics{
		framesOut:     reg.Counter("live.frames_out"),
		sendErrors:    reg.Counter("live.send_errors"),
		badFrames:     reg.Counter("live.bad_frames"),
		linksDialed:   reg.Counter("live.links_dialed"),
		forwardStates: reg.Gauge("live.forward_states"),
		reverseStates: reg.Gauge("live.reverse_states"),
	}
	for k := kindConstruct; k <= kindConstructData; k++ {
		m.framesIn[k] = reg.Counter("live.frames_in." + kindNames[k])
	}
	return m
}

// Node is a live peer: relay always, initiator and responder on demand.
// All methods are safe for concurrent use.
//
// Backward routing note: in the simulator, netsim hands every handler
// the sender's identity. TCP does not (connections come from ephemeral
// ports), so construct and deliver frames carry the sender's 4-byte
// roster id in-band. This reveals nothing the protocol doesn't already:
// each relay knows its predecessor by design (§5's analysis is built on
// exactly that), and the responder learns only the terminal relay.
type Node struct {
	cfg Config
	ln  net.Listener
	reg *obs.Registry
	m   *liveMetrics
	// rt samples Go runtime telemetry (goroutines, heap, GC pauses,
	// scheduler latency) into reg on every observability scrape.
	rt *obs.RuntimeCollector
	// hub fans trace events out to runtime subscribers (the
	// /debug/trace streaming endpoint); trc is the node's effective
	// tracer: the configured one plus the hub.
	hub *obs.Hub
	trc obs.Tracer
	// started anchors uptime; lastFrameAt (unix micros) tracks the
	// most recent inbound frame for the health report.
	started     time.Time
	lastFrameAt atomic.Int64

	// flt is the injected-fault controller (see fault.go); degraded
	// counts sessions currently running below full path width (set by
	// the session repair loop, surfaced via Ready/Health/metrics).
	flt      *faultCtl
	degraded atomic.Int64

	// readiness cache (see Ready): readyAt stamps the last probe,
	// readyErr holds its verdict.
	readyMu  sync.Mutex
	readyAt  time.Time
	readyErr error

	// relay is the node's relay and responder (§4.1–4.4), shared with
	// the simulator; the handle* methods drive it from frames.
	relay *onion.Machine

	mu    sync.Mutex
	acks  map[uint64]chan struct{} // initiator: pending construction acks
	paths map[uint64]*Path         // initiator: established paths by sid

	// linksMu guards links (one outbound link slot per peer, see
	// link.go) and conns (every open connection, outbound and inbound,
	// so Close can end their goroutines).
	linksMu sync.Mutex
	links   map[netsim.NodeID]*link
	conns   map[net.Conn]struct{}

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Start launches a node listening on addr ("127.0.0.1:0" in tests; the
// roster address in deployments). It returns once the listener is live.
func Start(addr string, cfg Config) (*Node, error) {
	if cfg.Roster == nil {
		return nil, errors.New("livenet: config needs a roster")
	}
	if _, err := cfg.Roster.Peer(cfg.ID); err != nil {
		return nil, err
	}
	if len(cfg.Private) == 0 {
		return nil, errors.New("livenet: config needs the private key")
	}
	if cfg.Suite == nil {
		cfg.Suite = onioncrypt.ECIES{}
	}
	if cfg.StateTTL <= 0 {
		cfg.StateTTL = 10 * time.Minute
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ConstructTimeout <= 0 {
		cfg.ConstructTimeout = 10 * time.Second
	}
	if cfg.DialRetry.Attempts == 0 {
		cfg.DialRetry = retrypolicy.Policy{
			Attempts:   2,
			Backoff:    100 * time.Millisecond,
			BackoffCap: time.Second,
			Jitter:     0.5,
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen: %w", err)
	}
	reg := obs.NewRegistry()
	hub := obs.NewHub()
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		reg:     reg,
		m:       newLiveMetrics(reg),
		rt:      obs.NewRuntimeCollector(reg),
		hub:     hub,
		trc:     obs.Multi(cfg.Tracer, hub),
		started: time.Now(),
		flt:     newFaultCtl(),
		relay:   onion.NewMachine(cfg.Suite, cfg.Private, sim.FromDuration(cfg.StateTTL), cryptoRand{}),
		acks:    make(map[uint64]chan struct{}),
		paths:   make(map[uint64]*Path),
		links:   make(map[netsim.NodeID]*link),
		conns:   make(map[net.Conn]struct{}),
		quit:    make(chan struct{}),
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.sweepLoop()
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetRoster replaces the node's roster. Clusters that bind ephemeral
// ports start with a provisional roster and install the final one (with
// real addresses) once every listener is up.
func (n *Node) SetRoster(r *Roster) {
	n.mu.Lock()
	n.cfg.Roster = r
	n.mu.Unlock()
}

// roster returns the current roster under the lock.
func (n *Node) roster() *Roster {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Roster
}

// ID returns the node's roster identity.
func (n *Node) ID() netsim.NodeID { return n.cfg.ID }

// Metrics returns the node's metrics registry.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// DebugHandler returns an expvar-style HTTP handler exposing the
// node's metrics as indented JSON; cmd/anonnode mounts it at
// /debug/vars when -debug is set. Each request refreshes the runtime
// telemetry gauges first.
func (n *Node) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.rt.Collect()
		n.reg.ServeHTTP(w, r)
	})
}

// SampleRuntime refreshes the runtime telemetry gauges (throttled) —
// the hook push-style consumers like cmd/anonnode's tsdb self-sampler
// call before snapshotting the registry.
func (n *Node) SampleRuntime() { n.rt.Collect() }

// emit hands one trace event to the configured tracer and every live
// subscriber. trc is never nil (the hub is always present).
func (n *Node) emit(e obs.Event) { n.trc.Emit(e) }

// AttachTracer subscribes a tracer to the node's live event stream and
// returns its (idempotent) detach function — the mechanism behind
// /debug/trace streaming.
func (n *Node) AttachTracer(t obs.Tracer) (detach func()) {
	return n.hub.Attach(t)
}

// syncStateGauges refreshes the relay-state gauges.
func (n *Node) syncStateGauges() {
	fwd, rev := n.relay.PathStates()
	n.m.forwardStates.Set(float64(fwd))
	n.m.reverseStates.Set(float64(rev))
}

// Close stops the listener, closes every link and inbound connection,
// and waits for in-flight handlers. It is idempotent.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.quit)
		err = n.ln.Close()
		n.closeConns()
		n.wg.Wait()
	})
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(conn) {
			conn.Close()
			return
		}
		go n.serveConn(conn)
	}
}

// sweepLoop reclaims expired relay and responder state (§4.3's TTL).
func (n *Node) sweepLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.StateTTL / 2)
	defer ticker.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-ticker.C:
			n.relay.Sweep(now())
			n.syncStateGauges()
		}
	}
}

// send writes one frame to a peer, with the dial-retry policy's full
// budget as the overall deadline.
func (n *Node) send(to netsim.NodeID, f frame) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.sendBudget())
	defer cancel()
	return n.sendCtx(ctx, to, f)
}

// sendBudget bounds a context-free send: every dial attempt plus every
// backoff sleep of the retry policy (each at most twice the larger of
// Backoff and BackoffCap, since jitter is capped at 100%).
func (n *Node) sendBudget() time.Duration {
	pol := n.cfg.DialRetry
	attempts := pol.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := pol.BackoffCap
	if backoff < pol.Backoff {
		backoff = pol.Backoff
	}
	return time.Duration(attempts)*n.cfg.DialTimeout +
		time.Duration(attempts-1)*2*backoff + time.Second
}

// sendCtx writes one frame to a peer under the caller's context. It
// first consults the fault controller (blackholes refuse the frame, the
// injected drop rate consumes it silently, injected latency delays it),
// then writes the frame on the peer's link (see writeLink), dialing it
// under the DialRetry policy only when no open link exists.
func (n *Node) sendCtx(ctx context.Context, to netsim.NodeID, f frame) error {
	if n.flt.blackholed(to) {
		n.noteDrop(n.reg.Counter("live.fault.refused"), to, f, obs.ReasonBlackholed)
		return fmt.Errorf("livenet: peer %d blackholed", to)
	}
	if delay, dropped := n.flt.outboundFault(); dropped {
		n.noteDrop(n.reg.Counter("live.fault.dropped"), to, f, obs.ReasonInjectedDrop)
		return nil // the frame "left" but will never arrive
	} else if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			n.noteDrop(n.m.sendErrors, to, f, obs.ReasonSendFailed)
			return ctx.Err()
		}
	}
	l, err := n.linkTo(to)
	if err == nil {
		err = n.writeLink(ctx, l, to, f)
	}
	if err != nil {
		n.noteDrop(n.m.sendErrors, to, f, obs.ReasonSendFailed)
		return err
	}
	n.m.framesOut.Inc()
	l.peerOut.Inc()
	n.noteFrame(obs.MsgSent, to, f.sid, len(f.body), obs.ReasonNone)
	return nil
}

// noteFrame traces a frame sent to, delivered from or dropped with peer.
func (n *Node) noteFrame(typ obs.Type, peer netsim.NodeID, sid uint64, size int, reason obs.Reason) {
	n.emit(obs.Event{
		Type: typ, At: time.Now().UnixMicro(), Node: int(n.cfg.ID), Peer: int(peer),
		ID: sid, Slot: -1, Hop: -1, Size: size, Reason: reason,
	})
}

// noteDrop counts a dropped frame on c and traces it.
func (n *Node) noteDrop(c *obs.Counter, peer netsim.NodeID, f frame, reason obs.Reason) {
	c.Inc()
	n.noteFrame(obs.MsgDropped, peer, f.sid, len(f.body), reason)
}

func newSID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("livenet: crypto/rand failed: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// cryptoRand is the relay machine's randomness on a live node: stream
// IDs and seal nonces both come from crypto/rand.
type cryptoRand struct{}

func (cryptoRand) Read(b []byte) (int, error) { return rand.Read(b) }
func (cryptoRand) Uint64() uint64             { return newSID() }

// now is the relay machine's clock on a live node: wall time in the
// simulator's microsecond units.
func now() sim.Time { return sim.Time(time.Now().UnixMicro()) }

// prependSender tags a frame body with the sending node's roster id.
func prependSender(id netsim.NodeID, body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(id))
	copy(out[4:], body)
	return out
}

// constructDataBody encodes a kindConstructData body:
// sender(4) | onionLen(4) | onion | payload.
func constructDataBody(id netsim.NodeID, onionBytes, payload []byte) []byte {
	out := make([]byte, 8+len(onionBytes)+len(payload))
	binary.BigEndian.PutUint32(out, uint32(id))
	binary.BigEndian.PutUint32(out[4:], uint32(len(onionBytes)))
	copy(out[8:], onionBytes)
	copy(out[8+len(onionBytes):], payload)
	return out
}

func splitSender(body []byte) (netsim.NodeID, []byte, error) {
	if len(body) < 4 {
		return netsim.Invalid, nil, errors.New("livenet: short body")
	}
	return netsim.NodeID(binary.BigEndian.Uint32(body)), body[4:], nil
}

// sender splits the in-band sender id off a construct, construct-data
// or deliver frame. It rejects senders outside the roster and senders
// this node blackholes.
func (n *Node) sender(f frame) (netsim.NodeID, []byte, bool) {
	from, rest, err := splitSender(f.body)
	if err != nil {
		return netsim.Invalid, nil, false
	}
	if _, err := n.roster().Peer(from); err != nil {
		return netsim.Invalid, nil, false
	}
	if n.flt.blackholed(from) {
		n.noteDrop(n.reg.Counter("live.fault.refused"), from, f, obs.ReasonBlackholed)
		return netsim.Invalid, nil, false
	}
	return from, rest, true
}

func (n *Node) handle(f frame) {
	n.lastFrameAt.Store(time.Now().UnixMicro())
	if f.kind < kindConstruct || f.kind > kindConstructData {
		n.m.badFrames.Inc()
		return
	}
	n.m.framesIn[f.kind].Inc()
	sid := onion.StreamID(f.sid)
	switch f.kind {
	case kindConstruct:
		if from, onionBytes, ok := n.sender(f); ok {
			s := n.relay.Construct(from, sid, onionBytes, now())
			n.syncStateGauges()
			n.sendStep(s)
		}
	case kindConstructData:
		n.handleConstructData(f)
	case kindAck:
		n.mu.Lock()
		ch, ok := n.acks[f.sid]
		delete(n.acks, f.sid)
		n.mu.Unlock()
		if ok {
			close(ch)
			return
		}
		n.sendStep(n.relay.Ack(sid, now()))
	case kindData:
		n.sendStep(n.relay.Data(sid, f.body, now()))
	case kindDeliver:
		n.handleDeliver(f)
	case kindReverse:
		n.mu.Lock()
		p, ok := n.paths[f.sid]
		n.mu.Unlock()
		if ok {
			p.deliverReverse(f.body)
			return
		}
		n.sendStep(n.relay.Reverse(sid, f.body, now()))
	}
}

// handleConstructData unframes a §4.2 combined construction: the onion
// length splits the onion from the payload.
func (n *Node) handleConstructData(f frame) {
	from, rest, ok := n.sender(f)
	if !ok || len(rest) < 4 {
		return
	}
	onionLen := binary.BigEndian.Uint32(rest)
	if uint64(onionLen) > uint64(len(rest)-4) {
		return
	}
	s := n.relay.ConstructData(from, onion.StreamID(f.sid), rest[4:4+onionLen], rest[4+onionLen:], now())
	n.syncStateGauges()
	n.sendStep(s)
}

// sendStep sends the frames a relay step produced, in order.
func (n *Node) sendStep(s onion.Step) {
	for i := 0; i < s.N; i++ {
		fr := &s.Frames[i]
		f := frame{kind: byte(fr.Kind), sid: uint64(fr.SID), body: fr.Body}
		switch fr.Kind {
		case onion.KindConstruct:
			f.body = prependSender(n.cfg.ID, fr.Onion)
		case onion.KindConstructData:
			f.body = constructDataBody(n.cfg.ID, fr.Onion, fr.Body)
		case onion.KindDeliver:
			f.body = prependSender(n.cfg.ID, fr.Body)
		}
		n.send(fr.To, f)
	}
}

// handleDeliver runs the responder role.
func (n *Node) handleDeliver(f frame) {
	if n.cfg.OnData == nil {
		return
	}
	relay, blob, ok := n.sender(f)
	if !ok {
		return
	}
	data, key, drop := n.relay.Deliver(relay, onion.StreamID(f.sid), blob, now())
	if drop != obs.ReasonNone {
		return
	}
	n.noteFrame(obs.MsgDelivered, relay, f.sid, len(data), obs.ReasonNone)
	n.cfg.OnData(ReplyHandle{node: n, sid: f.sid, relay: relay, key: key}, data)
}

// ReplyHandle lets a live responder answer along the delivering path.
type ReplyHandle struct {
	node  *Node
	sid   uint64
	relay netsim.NodeID
	key   []byte
}

// From returns the terminal relay the payload arrived through.
func (h ReplyHandle) From() netsim.NodeID { return h.relay }

// Reply encrypts data with the stream key and sends it up the reverse
// path.
func (h ReplyHandle) Reply(data []byte) error {
	ct, err := h.node.cfg.Suite.SymSeal(rand.Reader, h.key, data)
	if err != nil {
		return err
	}
	return h.node.send(h.relay, frame{kind: kindReverse, sid: h.sid, body: ct})
}
