package livenet

import (
	"cmp"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"sync"
	"time"

	"resilientmix/internal/core"
	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/retrypolicy"
	"resilientmix/internal/sim"
)

// This file is SimEra over real sockets. The initiator, LiveSession,
// drives core.SessionMachine — the simulator's §4.5/§4.7 initiator —
// from goroutines under one mutex: Send allocates segments to live path
// slots and arms each round's ack deadline, ackLoop files acks and probe
// echoes, the deadline applies the machine's condemnations and
// retransmits, probeLoop sends one probe round per interval, repairLoop
// rebuilds condemned slots through fresh roster relays with jittered
// backoff, and coverLoop sends cover traffic, shed first while the
// session is degraded. Payloads are core's application messages
// (core.Msg). The responder, LiveCollector, drives core's m-of-n
// collector from the node's OnData and acks each segment.

// collectorTTL is how long a LiveCollector remembers a message after
// its last segment: well past the session's retransmit window
// (MaxRetransmits × AckTimeout), so a late duplicate of a delivered
// message is not delivered again.
const collectorTTL = 10 * sim.Minute

// LiveDelivered is invoked when the collector reconstructs a message.
type LiveDelivered func(mid uint64, data []byte)

// LiveCollector is the responder side of a live session. Install its
// Handle method as the node's OnData.
type LiveCollector struct {
	mu        sync.Mutex
	coll      *core.Collector
	clock     func() sim.Time
	delivered LiveDelivered
}

// NewLiveCollector creates a collector delivering reconstructed
// messages to the callback.
func NewLiveCollector(delivered LiveDelivered) *LiveCollector {
	return &LiveCollector{coll: core.NewCollector(collectorTTL), clock: now, delivered: delivered}
}

// Handle is the node's OnData: it acks every segment and reconstructs
// once m distinct segments of a message arrived; it echoes liveness
// probes and counts-and-discards cover traffic. When the handle is
// bound to a live node it also maintains the receiver-side registry
// counters (recv.segments, recv.dup_segments, recv.delivered) and
// emits a SegmentReconstructed trace event, so live runs reconcile
// with trace analytics exactly the way simulated runs do.
func (c *LiveCollector) Handle(h ReplyHandle, data []byte) {
	msg, err := core.DecodeMsg(data)
	if err != nil {
		return
	}
	switch msg.Kind {
	case core.MsgProbe:
		// Echo the nonce back up the reverse path — the initiator's
		// liveness detector keys on the round trip.
		h.count("recv.probes")
		h.Reply(core.Msg{Kind: core.MsgAck, MID: msg.MID, Index: msg.Index}.Encode())
		return
	case core.MsgCover:
		h.count("recv.cover")
		return
	case core.MsgSegment:
	default:
		return
	}
	at := c.clock()
	c.mu.Lock()
	c.coll.SweepDue(at)
	v, ready := c.coll.Add(msg.MID, msg.Needed, msg.Total, msg.Index, msg.Data, at)
	c.mu.Unlock()
	if v == core.Rejected {
		return
	}
	// Ack every accepted segment — the initiator's failure detector
	// keys on this.
	h.Reply(core.Msg{Kind: core.MsgAck, MID: msg.MID, Index: msg.Index}.Encode())
	if v == core.Duplicate {
		h.count("recv.dup_segments")
	} else {
		h.count("recv.segments")
	}
	if ready == nil {
		return
	}
	out, err := ready.Decode()
	c.mu.Lock()
	c.coll.Finish(msg.MID, err == nil)
	c.mu.Unlock()
	if err != nil {
		return
	}
	if h.node != nil {
		h.node.reg.Counter("recv.delivered").Inc()
		h.node.emit(obs.Event{
			Type: obs.SegmentReconstructed, At: int64(at),
			Node: int(h.node.cfg.ID), Peer: -1, ID: msg.MID,
			Seq: int64(len(ready.Segs)), Slot: -1, Hop: -1, Size: len(out),
		})
	}
	if c.delivered != nil {
		c.delivered(msg.MID, out)
	}
}

// count bumps a registry counter of the handle's node, if it has one.
func (h ReplyHandle) count(name string) {
	if h.node != nil {
		h.node.reg.Counter(name).Inc()
	}
}

// SessionOptions configures a LiveSession's resilience machinery.
type SessionOptions struct {
	// R is the replication factor; k (the number of relay lists) must be
	// a positive multiple of it, giving an m = k/r of n = k code.
	R int
	// AckTimeout is the §4.5 failure detector: a path whose segment or
	// probe goes unacknowledged this long is condemned. Zero selects 5s.
	AckTimeout time.Duration
	// Repair enables the resilience loop: liveness probing, dead-path
	// reconstruction through fresh relays, and segment retransmission
	// until m distinct acks confirm delivery.
	Repair bool
	// ProbeInterval is the per-path liveness probe cadence when Repair
	// is on. Zero selects 1s.
	ProbeInterval time.Duration
	// MaxRetransmits bounds the retransmission rounds per message after
	// the initial send. Zero selects 5 when Repair is on and none
	// otherwise; negative means none.
	MaxRetransmits int
	// MaxInflight bounds unresolved outbound messages; Send rejects new
	// work beyond it (bounded queues, not unbounded buffering). Zero
	// selects 64.
	MaxInflight int
	// CoverInterval, when positive, emits cover traffic down a random
	// live path at that cadence. Cover is the first load shed when the
	// session is degraded or the in-flight queue is half full.
	CoverInterval time.Duration
	// CoverSize is the cover payload size. Zero selects 64 bytes.
	CoverSize int
	// ConstructRetry governs path-reconstruction retries during repair
	// (jittered exponential backoff, §4.5). The zero value selects 3
	// attempts with 200ms backoff, a 2s cap and 50% jitter.
	ConstructRetry retrypolicy.Policy
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxRetransmits == 0 && o.Repair {
		o.MaxRetransmits = 5
	}
	if o.MaxRetransmits < 0 {
		o.MaxRetransmits = 0
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.CoverSize <= 0 {
		o.CoverSize = 64
	}
	if o.ConstructRetry.Attempts == 0 {
		o.ConstructRetry = retrypolicy.Policy{
			Attempts:   3,
			Backoff:    200 * time.Millisecond,
			BackoffCap: 2 * time.Second,
			Jitter:     0.5,
		}
	}
	return o
}

// liveMsg is what the driver keeps of a message for as long as the
// machine holds it (to the first ack deadline after its verdict): the
// segments a retransmit re-sends and the channel Await waits on.
type liveMsg struct {
	segs []erasure.Segment
	done chan struct{}
}

// LiveSession is an erasure-coded multipath session over live paths.
type LiveSession struct {
	node      *Node
	code      *erasure.Code
	opts      SessionOptions
	responder netsim.NodeID

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	m        *core.SessionMachine
	paths    []*Path // by slot; nil where no path was ever built
	msgs     map[uint64]*liveMsg
	resolved map[uint64]error // terminal verdicts awaiting Await
	gauged   bool             // counted in the node's live.degraded gauge
	rng      *mrand.Rand

	repairKick chan struct{}
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// errMessageLost is Await's verdict when the retransmit budget runs out.
var errMessageLost = errors.New("livenet: message lost (retransmit budget exhausted)")

// NewLiveSessionOpts constructs k node-disjoint live paths through the
// given relay lists to the responder and wires reverse-path ack
// handling. relayLists must hold k disjoint lists; k must be a positive
// multiple of opts.R.
func (n *Node) NewLiveSessionOpts(relayLists [][]netsim.NodeID, responder netsim.NodeID, opts SessionOptions) (*LiveSession, error) {
	k, r := len(relayLists), opts.R
	if k < 1 || r < 1 || k%r != 0 {
		return nil, fmt.Errorf("livenet: k=%d must be a positive multiple of r=%d", k, r)
	}
	opts = opts.withDefaults()
	code, err := erasure.New(k/r, k)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &LiveSession{
		node: n, code: code, opts: opts, responder: responder, ctx: ctx, cancel: cancel,
		m: core.NewSessionMachine(core.SessionConfig{
			Self: n.cfg.ID, Responder: responder, K: k,
			Needed: k / r, Total: k, AckTimeout: sim.FromDuration(opts.AckTimeout),
			Retransmits: opts.MaxRetransmits, MaxInflight: opts.MaxInflight,
			Relays: relayLists,
		}),
		paths:      make([]*Path, k),
		msgs:       make(map[uint64]*liveMsg),
		resolved:   make(map[uint64]error),
		rng:        mrand.New(mrand.NewSource(int64(newSID()))),
		repairKick: make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	var firstErr error
	for i, relays := range relayLists {
		p, err := n.Construct(relays, responder)
		if err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		s.install(i, p)
	}
	if alive := s.AlivePaths(); alive < k/r {
		s.Teardown()
		return nil, fmt.Errorf("livenet: only %d/%d paths constructed (need %d): %w",
			alive, k, k/r, firstErr)
	}
	if opts.Repair {
		s.wg.Add(2)
		go s.probeLoop()
		go s.repairLoop()
		if s.Degraded() {
			s.kickRepair()
		}
	}
	if opts.CoverInterval > 0 {
		s.wg.Add(1)
		go s.coverLoop()
	}
	return s, nil
}

// install stands slot up on path p and starts its ack reader; it
// returns the path p replaced.
func (s *LiveSession) install(slot int, p *Path) (old *Path) {
	s.mu.Lock()
	old, s.paths[slot] = s.paths[slot], p
	s.m.Revive(slot, p.Relays)
	s.syncDegradedLocked()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.ackLoop(p)
	return old
}

// AlivePaths returns the number of live path slots.
func (s *LiveSession) AlivePaths() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m.LiveSlots())
}

// Degraded reports whether the session is running below its full path
// width.
func (s *LiveSession) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Degraded()
}

// syncDegradedLocked keeps the node-wide degraded-session count and
// gauge in step with the machine. Callers hold s.mu.
func (s *LiveSession) syncDegradedLocked() {
	deg := s.m.Degraded()
	if deg == s.gauged {
		return
	}
	s.gauged = deg
	delta := int64(-1)
	if deg {
		delta = 1
	}
	s.addDegraded(delta)
}

func (s *LiveSession) addDegraded(delta int64) {
	s.node.reg.Gauge("live.degraded").Set(float64(s.node.degraded.Add(delta)))
}

// condemnLocked applies the machine's condemnations: each slot goes
// down, is counted and traced, and the repair worker is kicked if
// enabled. Callers hold s.mu.
func (s *LiveSession) condemnLocked(slots []int, reason obs.Reason) {
	for _, slot := range slots {
		if !s.m.Condemn(slot) {
			continue
		}
		s.syncDegradedLocked()
		s.node.reg.Counter("session.paths_dead").Inc()
		s.node.emit(obs.Event{
			Type: obs.PathBroken, At: time.Now().UnixMicro(),
			Node: int(s.node.cfg.ID), Peer: int(s.responder),
			ID: s.paths[slot].SID, Slot: slot, Hop: -1, Reason: reason,
		})
		if s.opts.Repair {
			s.kickRepair()
		}
	}
}

// kickRepair nudges the repair worker (non-blocking).
func (s *LiveSession) kickRepair() {
	select {
	case s.repairKick <- struct{}{}:
	default:
	}
}

// ackLoop files a path's reverse traffic — segment acks and probe
// echoes — with the machine; a message's m-th distinct ack resolves it
// as delivered. It returns once the path is torn down or the session
// ends; replies is never closed, since deliverReverse may still send on
// it.
func (s *LiveSession) ackLoop(p *Path) {
	defer s.wg.Done()
	for {
		var body []byte
		select {
		case body = <-p.replies:
		case <-p.down:
			return
		case <-s.quit:
			return
		}
		ack, err := core.DecodeMsg(body)
		if err != nil || ack.Kind != core.MsgAck {
			continue
		}
		s.mu.Lock()
		switch s.m.Ack(ack.MID, ack.Index) {
		case core.AckDelivered:
			s.resolveLocked(ack.MID, nil)
			fallthrough
		case core.AckFresh:
			s.node.reg.Counter("session.segments_acked").Inc()
		}
		s.mu.Unlock()
	}
}

// resolveLocked hands a message's verdict to Await. Callers hold s.mu.
func (s *LiveSession) resolveLocked(mid uint64, err error) {
	// Bound the unread-verdict map: callers that never Await must not
	// leak memory.
	if len(s.resolved) >= 4096 {
		for k := range s.resolved {
			delete(s.resolved, k)
			break
		}
	}
	s.resolved[mid] = err
	if err == nil {
		s.node.reg.Counter("session.messages_delivered").Inc()
	} else {
		s.node.reg.Counter("session.messages_lost").Inc()
	}
	close(s.msgs[mid].done)
}

// Send erasure-codes data over the live paths (one segment per path,
// §4.7's even allocation with s=1) and arms the §4.5 ack deadline. It
// returns the message id; Await blocks on the verdict.
func (s *LiveSession) Send(data []byte) (uint64, error) {
	segs, err := s.code.Split(data)
	if err != nil {
		return 0, err
	}
	mid := newSID()
	// Check the in-flight bound and record the jobs in one critical
	// section, so concurrent senders cannot overshoot MaxInflight.
	s.mu.Lock()
	if s.m.Full() {
		s.mu.Unlock()
		s.node.reg.Counter("session.send_rejected").Inc()
		return 0, errors.New("livenet: in-flight queue full")
	}
	var jobs []core.Job
	for slot, idxs := range s.m.Allocate(len(segs), nil) {
		for _, i := range idxs {
			if s.m.Alive(slot) {
				jobs = append(jobs, core.Job{Slot: slot, Index: int32(i)})
			}
		}
	}
	if len(jobs) == 0 {
		s.mu.Unlock()
		return 0, errors.New("livenet: no live paths")
	}
	s.m.Track(mid, false, jobs, now())
	s.msgs[mid] = &liveMsg{segs: segs, done: make(chan struct{})}
	paths := s.pathsLocked(jobs)
	s.mu.Unlock()
	s.node.reg.Counter("session.messages_sent").Inc()
	s.sendSegments(mid, segs, jobs, paths)
	s.arm(mid, obs.ReasonAckTimeout)
	return mid, nil
}

// pathsLocked returns the path each job leaves on. Callers hold s.mu.
func (s *LiveSession) pathsLocked(jobs []core.Job) []*Path {
	paths := make([]*Path, len(jobs))
	for i, j := range jobs {
		paths[i] = s.paths[j.Slot]
	}
	return paths
}

// sendSegments transmits one round's segment jobs.
func (s *LiveSession) sendSegments(mid uint64, segs []erasure.Segment, jobs []core.Job, paths []*Path) {
	for i, j := range jobs {
		seg := segs[j.Index]
		paths[i].Send(core.Msg{
			Kind: core.MsgSegment, MID: mid, Index: j.Index,
			Total: int32(s.code.N()), Needed: int32(s.code.M()), Data: seg.Data,
		}.Encode())
		s.node.reg.Counter("session.segments_sent").Inc()
		s.node.emit(obs.Event{
			Type: obs.SegmentSent, At: time.Now().UnixMicro(),
			Node: int(s.node.cfg.ID), Peer: int(s.responder), ID: mid,
			Seq: int64(j.Index), Slot: j.Slot, Hop: -1, Size: len(seg.Data),
		})
	}
}

// arm schedules the ack deadline of mid's current round, a message's or
// a probe round's. At the deadline the machine's condemnations are
// applied under reason, and a message is resolved as lost or its
// unacked segments go out again.
func (s *LiveSession) arm(mid uint64, reason obs.Reason) {
	time.AfterFunc(s.opts.AckTimeout, func() {
		select {
		case <-s.quit:
			return
		default:
		}
		s.mu.Lock()
		v := s.m.Expire(mid)
		if reason == obs.ReasonProbeTimeout {
			s.node.reg.Counter("live.repair.probe_timeouts").Add(uint64(v.Missed))
		}
		s.condemnLocked(v.Condemn, reason)
		if v.Lost {
			s.resolveLocked(mid, errMessageLost)
		}
		if !v.Resend {
			delete(s.msgs, mid)
			s.mu.Unlock()
			return
		}
		segs := s.msgs[mid].segs
		jobs, _ := s.m.Retransmit(mid, now())
		paths := s.pathsLocked(jobs)
		s.mu.Unlock()
		s.node.reg.Counter("session.retransmits").Inc()
		s.sendSegments(mid, segs, jobs, paths)
		s.arm(mid, reason)
	})
}

// Await blocks until the message's verdict is in: nil once m distinct
// acks confirmed delivery, errMessageLost when the retransmit budget
// ran out, or the context error.
func (s *LiveSession) Await(ctx context.Context, mid uint64) error {
	s.mu.Lock()
	lm := s.msgs[mid]
	s.mu.Unlock()
	if lm != nil {
		select {
		case <-lm.done:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.quit:
			return errors.New("livenet: session torn down")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err, ok := s.resolved[mid]
	if !ok {
		return fmt.Errorf("livenet: unknown message %d", mid)
	}
	delete(s.resolved, mid)
	return err
}

// probeLoop sends one probe round — one MID, the slot as index — down
// every live path at the probe cadence; a slot whose echo misses the
// ack deadline is condemned (§4.5's probing failure detector).
func (s *LiveSession) probeLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		mid := newSID()
		var jobs []core.Job
		s.mu.Lock()
		for _, slot := range s.m.LiveSlots() {
			jobs = append(jobs, core.Job{Slot: slot, Index: int32(slot)})
		}
		s.m.Track(mid, true, jobs, now())
		paths := s.pathsLocked(jobs)
		s.mu.Unlock()
		for i, j := range jobs {
			s.node.reg.Counter("live.repair.probes").Inc()
			paths[i].Send(core.Msg{Kind: core.MsgProbe, MID: mid, Index: j.Index}.Encode())
		}
		s.arm(mid, obs.ReasonProbeTimeout)
	}
}

// repairLoop rebuilds condemned slots through fresh relays (§4.5's path
// replacement), lowest slot first, until none is down.
func (s *LiveSession) repairLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.repairKick:
		}
		for slot := s.nextRepair(); slot >= 0; slot = s.nextRepair() {
			s.repairSlot(slot)
		}
	}
}

// nextRepair starts the repair of the lowest down slot and returns it,
// or -1 when none is down or the session is ending.
func (s *LiveSession) nextRepair() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot := range s.paths {
		if s.ctx.Err() != nil {
			break
		}
		if !s.m.Alive(slot) && s.m.Rebuild(slot) {
			return slot
		}
	}
	return -1
}

// freshRelays picks a relay list for a slot repair from the roster,
// avoiding the machine's exclusion set: relays the slot did not use
// before come first; its old relays fill the remainder when the roster
// is too small for strict freshness.
func (s *LiveSession) freshRelays(slot int) []netsim.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ex := s.m.Relays(slot), s.m.Exclude(slot)
	var fresh, fallback []netsim.NodeID
	for id := netsim.NodeID(0); int(id) < s.node.roster().Size(); id++ {
		switch {
		case slices.Contains(ex, id):
		case slices.Contains(old, id):
			fallback = append(fallback, id)
		default:
			fresh = append(fresh, id)
		}
	}
	s.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	s.rng.Shuffle(len(fallback), func(i, j int) { fallback[i], fallback[j] = fallback[j], fallback[i] })
	if pick := append(fresh, fallback...); len(pick) >= len(old) {
		return pick[:len(old)]
	}
	return nil
}

// repairSlot rebuilds one condemned slot, retrying per the construct
// policy. On success the slot goes live again and pending messages'
// next retransmit round uses it; on failure it stays down and the
// worker tries again.
func (s *LiveSession) repairSlot(slot int) {
	var built *Path
	err := s.opts.ConstructRetry.Do(s.ctx, func(ctx context.Context) error {
		relays := s.freshRelays(slot)
		if relays == nil {
			return errors.New("livenet: no candidate relays for repair")
		}
		cctx, cancel := context.WithTimeout(ctx, s.node.cfg.ConstructTimeout)
		defer cancel()
		var err error
		built, err = s.node.construct(cctx, relays, s.responder, nil)
		return err
	})
	if err != nil {
		s.mu.Lock()
		s.m.RebuildFailed(slot)
		s.mu.Unlock()
		s.node.reg.Counter("live.repair.failed").Inc()
		return
	}
	if old := s.install(slot, built); old != nil {
		old.Teardown()
	}
	s.node.notePath(obs.PathRepaired, built, int64(slot), slot)
	s.node.reg.Counter("live.repair.repaired").Inc()
}

// coverLoop emits cover traffic down a random live path — and sheds it
// first (before any real traffic suffers) when the session is degraded
// or the in-flight queue is half full.
func (s *LiveSession) coverLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.CoverInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		var p *Path
		if live := s.m.LiveSlots(); !s.m.Degraded() && s.m.Inflight() < s.opts.MaxInflight/2 && len(live) > 0 {
			p = s.paths[live[s.rng.Intn(len(live))]]
		}
		s.mu.Unlock()
		if p == nil {
			s.node.reg.Counter("live.cover_shed").Inc()
			continue
		}
		pad := make([]byte, s.opts.CoverSize)
		rand.Read(pad)
		p.Send(core.Msg{Kind: core.MsgCover, Data: pad}.Encode())
		s.node.reg.Counter("live.cover_sent").Inc()
	}
}

// Teardown stops the resilience loops and forgets all paths locally.
func (s *LiveSession) Teardown() {
	s.closeOnce.Do(func() {
		s.cancel()
		close(s.quit)
		s.wg.Wait()
		s.mu.Lock()
		if s.gauged {
			s.gauged = false
			s.addDegraded(-1)
		}
		paths := slices.Clone(s.paths)
		s.mu.Unlock()
		for _, p := range paths {
			if p != nil {
				p.Teardown()
			}
		}
	})
}
