package core

import (
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/membership"
	"resilientmix/internal/metrics"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/sim"
)

// SessionStats aggregates a session's activity.
type SessionStats struct {
	EstablishAttempts int
	MessagesSent      int
	SegmentsSent      int
	SegmentsAcked     int
	PathsDied         int
	PathsReplaced     int
	ResponsesReceived int
	// MessagesDelivered and MessagesLost are the initiator's verdicts:
	// m distinct segment acks by the ack deadline, or fewer.
	MessagesDelivered int
	MessagesLost      int
	ConstructFlow     metrics.Flow // bandwidth of all construction traffic
	DataFlow          metrics.Flow // bandwidth of all payload traffic
}

// Session is an initiator's communication session with one responder
// under one protocol configuration. It drives a SessionMachine on the
// simulation engine: it establishes the k paths through mixchoice
// relays, erasure-codes messages onto the slots the machine allocates,
// arms each ack deadline and applies the machine's condemnations, and
// replaces condemned paths (repair) or paths the liveness predictor
// flags (§4.5). With repair on, a message for a down slot rides a fresh
// construction (§4.2's combined mode).
type Session struct {
	w         *World
	self      netsim.NodeID
	responder netsim.NodeID
	params    Params
	code      *erasure.Code
	provider  membership.Provider

	m           *SessionMachine
	paths       []*onion.Path // by slot; nil until established
	established bool
	failed      bool
	establishAt sim.Time
	setDead     bool
	setDeadAt   sim.Time
	repair      bool

	// sent remembers, for at least inboundTTL, the data MIDs this
	// session sent: responses are accepted and late acks counted only
	// for them. It is swept lazily on input.
	sent      map[uint64]sim.Time
	nextSweep sim.Time
	resps     *Collector // response segments by request MID
	convs     *Collector // rendezvous-forwarded (kindInbound) segments by conversation

	stats SessionStats

	// OnEstablished fires once when establishment concludes: ok reports
	// whether at least MinPaths paths stand; attempts is the number of
	// construction rounds used.
	OnEstablished func(ok bool, attempts int)
	// OnSetDead fires once when fewer than MinPaths path slots remain
	// alive — the path set can no longer deliver (§6.1 path durability).
	OnSetDead func(at sim.Time)
	// OnResponse fires when a response message reconstructs at the
	// initiator.
	OnResponse func(mid uint64, data []byte, at sim.Time)
	// OnInbound fires when an unsolicited rendezvous-forwarded message
	// (mutual anonymity, kindInbound) reconstructs: hidden services
	// receive requests here, initiators receive service replies.
	OnInbound func(conv uint64, data []byte, at sim.Time)
}

// NewSession creates a session; Establish starts it.
func (w *World) NewSession(self, responder netsim.NodeID, params Params) (*Session, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	code, err := params.Code()
	if err != nil {
		return nil, err
	}
	if self == responder {
		return nil, fmt.Errorf("core: initiator and responder are the same node %d", self)
	}
	m, n := params.codeShape()
	s := &Session{
		w:         w,
		self:      self,
		responder: responder,
		params:    params,
		code:      code,
		provider:  w.Provider(self),
		m: NewSessionMachine(SessionConfig{
			Self: self, Responder: responder, K: params.K,
			Needed: m, Total: n, AckTimeout: params.AckTimeout,
		}),
		sent:      make(map[uint64]sim.Time),
		nextSweep: inboundTTL,
		resps:     NewCollector(inboundTTL),
		convs:     NewCollector(inboundTTL),
	}
	return s, nil
}

// Params returns the session's (defaulted) parameters.
func (s *Session) Params() Params { return s.params }

// Teardown releases the session's paths at the initiator (relay-side
// state ages out via the TTL of §4.3 — failed upstream nodes mean the
// initiator cannot reliably release remote state, which is exactly why
// the TTL exists).
func (s *Session) Teardown() {
	for i, p := range s.paths {
		s.release(p)
		s.m.Condemn(i)
	}
	s.paths = nil
}

// release drops a path's reverse routing and the initiator's record.
func (s *Session) release(p *onion.Path) {
	if p != nil {
		s.w.unbindPath(p)
		s.w.Nodes[s.self].Initiator.Forget(p)
	}
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Established reports whether the path set is currently standing.
func (s *Session) Established() bool { return s.established && !s.setDead }

// EstablishedAt returns when establishment succeeded.
func (s *Session) EstablishedAt() sim.Time { return s.establishAt }

// SetDeadAt returns when the path set died (zero if alive).
func (s *Session) SetDeadAt() sim.Time { return s.setDeadAt }

// AlivePaths returns the number of live path slots.
func (s *Session) AlivePaths() int { return len(s.m.LiveSlots()) }

// PathRelays returns the relays of slot's current (or last) path.
func (s *Session) PathRelays(slot int) []netsim.NodeID { return s.m.Relays(slot) }

// Establish runs construction attempts until MinPaths paths stand or
// MaxEstablishAttempts is exhausted, then fires OnEstablished.
func (s *Session) Establish() {
	if s.established || s.failed {
		return
	}
	s.attempt()
}

func (s *Session) attempt() {
	s.stats.EstablishAttempts++
	s.w.m.establishAttempts.Inc()
	cands := s.provider.Candidates(s.self)
	relayLists, err := mixchoice.SelectPaths(
		s.w.Eng.RNG(), s.params.Strategy, cands,
		s.params.K, s.params.L, s.self, s.responder,
	)
	if err != nil {
		s.concludeAttempt(nil)
		return
	}
	// Slots go live in the machine as their constructions are acked.
	initiator := s.w.Nodes[s.self].Initiator
	paths := make([]*onion.Path, s.params.K)
	done := 0
	for i, relays := range relayLists {
		i := i
		p, err := initiator.Construct(relays, s.responder, &s.stats.ConstructFlow, func(p *onion.Path, ok bool) {
			done++
			if ok {
				s.m.Revive(i, p.Relays)
				s.w.m.pathsBuilt.Inc()
				s.emit(obs.Event{Type: obs.PathBuilt, Peer: int(s.responder), ID: uint64(p.SID), Seq: int64(i), Slot: i})
			}
			if done == s.params.K {
				s.concludeAttempt(paths)
			}
		})
		if err != nil {
			// Immediate failure (should not happen after SelectPaths
			// validation); count the slot as resolved.
			done++
			continue
		}
		paths[i] = p
		s.w.bindPath(p, s)
	}
	if done == s.params.K {
		// All constructions failed synchronously.
		s.concludeAttempt(paths)
	}
}

func (s *Session) concludeAttempt(paths []*onion.Path) {
	if s.established || s.failed {
		return
	}
	if len(s.m.LiveSlots()) >= s.params.MinPaths() {
		s.paths = paths
		s.established = true
		s.establishAt = s.w.Eng.Now()
		for i, p := range paths {
			if !s.m.Alive(i) {
				// Slots that failed construction already count as failed paths.
				s.release(p)
			}
		}
		if s.OnEstablished != nil {
			s.OnEstablished(true, s.stats.EstablishAttempts)
		}
		return
	}
	// Failed attempt: release everything and maybe retry.
	for i, p := range paths {
		s.release(p)
		s.m.Condemn(i)
	}
	if s.stats.EstablishAttempts < s.params.MaxEstablishAttempts {
		s.w.Eng.Schedule(0, s.attempt)
		return
	}
	s.failed = true
	if s.OnEstablished != nil {
		s.OnEstablished(false, s.stats.EstablishAttempts)
	}
}

// SendMessage erasure-codes data and sends the segments over the live
// paths per the allocation policy. It returns the message ID.
func (s *Session) SendMessage(data []byte) (uint64, error) {
	return s.SendMessageTo(s.responder, data)
}

// SendMessageTo multiplexes a message to a different responder over the
// established path set (path reuse, §4.4): each terminal relay rebinds
// its cached stream to the destination named inside the payload onion,
// so no new path construction — and no asymmetric decryption at the
// relays — is needed.
func (s *Session) SendMessageTo(dest netsim.NodeID, data []byte) (uint64, error) {
	if !s.established {
		return 0, fmt.Errorf("core: session not established")
	}
	if dest == s.self {
		return 0, fmt.Errorf("core: cannot send to self")
	}
	segs, err := s.code.Split(data)
	if err != nil {
		return 0, err
	}
	now := s.w.Eng.Now()
	s.sweepSent(now)
	mid := s.w.Eng.RNG().Uint64()
	initiator := s.w.Nodes[s.self].Initiator
	m, n := s.params.codeShape()
	var jobs []Job
	for slot, segIdxs := range s.allocate(len(segs)) {
		for _, si := range segIdxs {
			msg := Msg{Kind: kindSegment, MID: mid, Index: int32(segs[si].Index), Total: int32(n), Needed: int32(m), Data: segs[si].Data}
			tag := obs.Tag{ID: mid, Seg: msg.Index, Slot: int32(slot)}
			if !s.m.Alive(slot) {
				// §4.2 + §4.5: with repair enabled, form a replacement path
				// on demand and ride the first segment on the construction
				// onion itself — no message delay waiting for a separate
				// construction round trip. Without repair, segments on dead
				// paths are lost (the Bernoulli model of §4.7).
				if !s.repair || dest != s.responder || len(segIdxs) != 1 || !s.rebuildSlot(slot, msg.Encode(), tag) {
					break
				}
			} else if err := initiator.SendDataTagged(s.paths[slot], dest, msg.Encode(), &s.stats.DataFlow, tag); err != nil {
				continue
			}
			jobs = append(jobs, Job{Slot: slot, Index: msg.Index})
			s.noteSegmentSent(dest, mid, msg.Index, len(msg.Data), slot)
		}
	}
	s.m.Track(mid, false, jobs, now)
	s.sent[mid] = now
	s.stats.MessagesSent++
	s.w.m.messagesSent.Inc()
	s.w.Eng.Schedule(s.params.AckTimeout, func() { s.expire(mid) })
	return mid, nil
}

// sweepSent forgets sent MIDs older than inboundTTL, once per TTL.
func (s *Session) sweepSent(now sim.Time) {
	if now < s.nextSweep {
		return
	}
	for mid, at := range s.sent {
		if at+inboundTTL <= now {
			delete(s.sent, mid)
		}
	}
	s.nextSweep = now + inboundTTL
}

// noteSegmentSent records one coded data segment leaving the
// initiator, in the session stats, the registry, and the trace.
func (s *Session) noteSegmentSent(dest netsim.NodeID, mid uint64, index int32, size, slot int) {
	s.stats.SegmentsSent++
	s.w.m.segmentsSent.Inc()
	s.emit(obs.Event{Type: obs.SegmentSent, Peer: int(dest), ID: mid, Seq: int64(index), Slot: slot, Size: size})
}

// emit stamps a session trace event with the time, this node and no
// hop, and traces it.
func (s *Session) emit(e obs.Event) {
	if s.w.tracer != nil {
		e.At, e.Node, e.Hop = int64(s.w.Eng.Now()), int(s.self), -1
		s.w.tracer.Emit(e)
	}
}

// allocate maps segment indices to path slots: the even split of §4.7,
// or the weighted extension of §7 when enabled.
func (s *Session) allocate(nSegs int) [][]int {
	if s.params.Weighted {
		return s.m.Allocate(nSegs, s.pathStability)
	}
	return s.m.Allocate(nSegs, nil)
}

// pathStability returns the minimum predictor q across a slot's relays.
func (s *Session) pathStability(slot int) float64 {
	qp, ok := s.provider.(membership.QProvider)
	if !ok || s.paths[slot] == nil {
		return 1
	}
	min := 1.0
	for _, relay := range s.paths[slot].Relays {
		if q := qp.Q(relay); q < min {
			min = q
		}
	}
	return min
}

// expire applies the machine's verdict at a round's ack deadline: the
// slots it condemns, in slot order, and a lost message.
func (s *Session) expire(mid uint64) {
	v := s.m.Expire(mid)
	for _, slot := range v.Condemn {
		s.condemn(slot)
	}
	if v.Lost {
		s.stats.MessagesLost++
	}
}

func (s *Session) condemn(slot int) {
	if !s.m.Condemn(slot) {
		return
	}
	s.stats.PathsDied++
	s.w.m.pathsDied.Inc()
	s.notePathBroken(slot, obs.ReasonAckTimeout)
	if s.repair {
		// Self-healing mode (§4.5 reconstruction): replace the failed
		// path instead of counting toward set death.
		s.rebuildSlot(slot, nil, obs.Tag{})
		return
	}
	if len(s.m.LiveSlots()) < s.params.MinPaths() && !s.setDead {
		s.setDead = true
		s.setDeadAt = s.w.Eng.Now()
		if s.OnSetDead != nil {
			s.OnSetDead(s.setDeadAt)
		}
	}
}

// notePathBroken traces a slot's path failing or being condemned.
func (s *Session) notePathBroken(slot int, reason obs.Reason) {
	var sid uint64
	if p := s.paths[slot]; p != nil {
		sid = uint64(p.SID)
	}
	s.emit(obs.Event{Type: obs.PathBroken, Peer: int(s.responder), ID: sid, Seq: int64(slot), Slot: slot, Reason: reason})
}

// EnableRepair turns on §4.5 failure handling for long-lived sessions:
// every probeInterval the session probes each live path end to end
// (probes also refresh the §4.3 state TTLs); a path that misses its
// probe ack is torn down and reconstructed through fresh relays. With
// repair enabled the session never declares its path set dead — it
// heals instead — so OnSetDead does not fire.
func (s *Session) EnableRepair(probeInterval sim.Time) {
	if probeInterval <= 0 {
		probeInterval = 30 * sim.Second
	}
	s.repair = true
	s.w.Eng.Every(probeInterval, probeInterval, func() {
		if !s.established {
			return
		}
		// Retry slots whose earlier replacement failed.
		for slot := range s.paths {
			if !s.m.Alive(slot) {
				s.rebuildSlot(slot, nil, obs.Tag{})
			}
		}
		s.sendProbes()
	})
}

// sendProbes sends one probe round — one MID, the slot as index — down
// every live path and arms its ack deadline.
func (s *Session) sendProbes() {
	mid := s.w.Eng.RNG().Uint64()
	initiator := s.w.Nodes[s.self].Initiator
	var jobs []Job
	for _, slot := range s.m.LiveSlots() {
		probe := Msg{Kind: kindProbe, MID: mid, Index: int32(slot)}
		if err := initiator.SendData(s.paths[slot], probe.Encode(), &s.stats.DataFlow); err != nil {
			continue
		}
		jobs = append(jobs, Job{Slot: slot, Index: probe.Index})
	}
	if len(jobs) == 0 {
		return
	}
	s.m.Track(mid, true, jobs, s.w.Eng.Now())
	s.w.Eng.Schedule(s.params.AckTimeout, func() { s.expire(mid) })
}

// handleReverse processes decrypted reverse-path payloads routed to this
// session by the world.
func (s *Session) handleReverse(plain []byte) {
	msg, err := decodeAppMsg(plain)
	if err != nil {
		return
	}
	s.sweepSent(s.w.Eng.Now())
	switch msg.kind {
	case kindSegAck:
		s.handleAck(msg.msg)
	case kindRespSeg:
		s.handleRespSeg(msg.msg)
	case kindInbound:
		s.handleInbound(msg.service)
	}
}

// handleAck files an ack with the machine. Every ack for a probe round
// or a recently sent message counts, repeats and late ones included.
func (s *Session) handleAck(ack Msg) {
	r := s.m.Ack(ack.MID, ack.Index)
	if _, sent := s.sent[ack.MID]; r == AckUnknown && !sent {
		return
	}
	s.stats.SegmentsAcked++
	s.w.m.segmentsAcked.Inc()
	if r == AckDelivered {
		s.stats.MessagesDelivered++
	}
}

func (s *Session) handleRespSeg(rs Msg) {
	if _, ok := s.sent[rs.MID]; !ok {
		return
	}
	now := s.w.Eng.Now()
	s.resps.SweepDue(now)
	_, ready, data, err := s.resps.Collect(rs.MID, rs.Needed, rs.Total, rs.Index, rs.Data, now)
	if ready == nil || err != nil {
		return
	}
	s.stats.ResponsesReceived++
	s.w.m.responsesReceived.Inc()
	if s.OnResponse != nil {
		s.OnResponse(rs.MID, data, now)
	}
}

// EnablePrediction starts the §4.5 proactive failure predictor: every
// interval the session computes each live path's minimum relay q; paths
// below threshold are replaced with freshly constructed ones.
func (s *Session) EnablePrediction(threshold float64, interval sim.Time) {
	if interval <= 0 {
		interval = 30 * sim.Second
	}
	s.w.Eng.Every(interval, interval, func() {
		if !s.established || s.setDead {
			return
		}
		for slot := range s.paths {
			if s.m.Alive(slot) && s.pathStability(slot) < threshold {
				s.notePathBroken(slot, obs.ReasonPredicted)
				s.rebuildSlot(slot, nil, obs.Tag{})
			}
		}
	})
}

// rebuildSlot constructs a replacement path for a slot through fresh
// relays, carrying plain on the construction onion when it is set
// (§4.2's combined mode, used to send on demand over a dead slot). The
// old path stays in use until the replacement stands; the slot revives
// when the construction ack arrives. It reports whether the
// construction entered the network.
func (s *Session) rebuildSlot(slot int, plain []byte, tag obs.Tag) bool {
	if !s.m.Rebuild(slot) {
		return false
	}
	cands := s.provider.Candidates(s.self)
	relayLists, err := mixchoice.SelectPaths(s.w.Eng.RNG(), s.params.Strategy, cands, 1, s.params.L, s.m.Exclude(slot)...)
	if err != nil {
		s.m.RebuildFailed(slot)
		return false
	}
	initiator := s.w.Nodes[s.self].Initiator
	done := func(p *onion.Path, ok bool) {
		if !ok || s.paths == nil { // failed, or the session was torn down
			s.release(p)
			s.m.RebuildFailed(slot)
			return
		}
		s.release(s.paths[slot])
		s.paths[slot] = p
		s.m.Revive(slot, p.Relays)
		s.stats.PathsReplaced++
		s.w.m.pathsReplaced.Inc()
		s.emit(obs.Event{Type: obs.PathRepaired, Peer: int(s.responder), ID: uint64(p.SID), Seq: int64(slot), Slot: slot})
	}
	var p *onion.Path
	if plain == nil {
		p, err = initiator.Construct(relayLists[0], s.responder, &s.stats.ConstructFlow, done)
	} else {
		p, err = initiator.ConstructWithDataTagged(relayLists[0], s.responder, plain, &s.stats.DataFlow, tag, done)
	}
	if err != nil {
		s.m.RebuildFailed(slot)
		return false
	}
	s.w.bindPath(p, s)
	return true
}
