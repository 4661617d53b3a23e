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
	ConstructFlow     metrics.Flow // bandwidth of all construction traffic
	DataFlow          metrics.Flow // bandwidth of all payload traffic
}

// Session is an initiator's communication session with one responder
// under one protocol configuration: it owns the k path slots, splits
// messages into coded segments, allocates them to paths, tracks
// end-to-end acknowledgments to detect path failures, and optionally
// replaces paths proactively when liveness prediction flags a relay
// (§4.5).
type Session struct {
	w         *World
	self      netsim.NodeID
	responder netsim.NodeID
	params    Params
	code      *erasure.Code
	provider  membership.Provider

	slots       []*pathSlot
	established bool
	failed      bool
	establishAt sim.Time
	setDead     bool
	setDeadAt   sim.Time
	repair      bool

	pending map[uint64]*outMsg
	resps   *Collector // response segments by request MID
	convs   *Collector // rendezvous-forwarded (kindInbound) segments by conversation

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

type pathSlot struct {
	index     int
	path      *onion.Path
	alive     bool
	lastAck   sim.Time
	repairing bool // a replacement construction is in flight
}

type outMsg struct {
	sentAt sim.Time
	bySlot map[int][]int32 // slot -> segment indices awaiting ack
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
	s := &Session{
		w:         w,
		self:      self,
		responder: responder,
		params:    params,
		code:      code,
		provider:  w.Provider(self),
		pending:   make(map[uint64]*outMsg),
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
	for _, sl := range s.slots {
		if sl != nil && sl.path != nil {
			s.w.unbindPath(sl.path)
			s.w.Nodes[s.self].Initiator.Forget(sl.path)
		}
	}
	s.slots = nil
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
func (s *Session) AlivePaths() int {
	n := 0
	for _, sl := range s.slots {
		if sl.alive {
			n++
		}
	}
	return n
}

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
	paths, err := mixchoice.SelectPaths(
		s.w.Eng.RNG(), s.params.Strategy, cands,
		s.params.K, s.params.L, s.self, s.responder,
	)
	if err != nil {
		s.concludeAttempt(nil, 0)
		return
	}
	initiator := s.w.Nodes[s.self].Initiator
	slots := make([]*pathSlot, s.params.K)
	done := 0
	succeeded := 0
	for i, relays := range paths {
		slot := &pathSlot{index: i}
		slots[i] = slot
		p, err := initiator.Construct(relays, s.responder, &s.stats.ConstructFlow, func(p *onion.Path, ok bool) {
			done++
			if ok {
				slot.alive = true
				slot.lastAck = s.w.Eng.Now()
				succeeded++
				s.w.m.pathsBuilt.Inc()
				if s.w.tracer != nil {
					s.w.tracer.Emit(obs.Event{
						Type: obs.PathBuilt, At: int64(s.w.Eng.Now()),
						Node: int(s.self), Peer: int(s.responder),
						ID: uint64(p.SID), Seq: int64(slot.index),
						Slot: slot.index, Hop: -1,
					})
				}
			}
			if done == s.params.K {
				s.concludeAttempt(slots, succeeded)
			}
		})
		if err != nil {
			// Immediate failure (should not happen after SelectPaths
			// validation); count the slot as resolved.
			done++
			continue
		}
		slot.path = p
		s.w.bindPath(p, s)
	}
	if done == s.params.K && succeeded == 0 {
		// All constructions failed synchronously.
		s.concludeAttempt(slots, 0)
	}
}

func (s *Session) concludeAttempt(slots []*pathSlot, succeeded int) {
	if s.established || s.failed {
		return
	}
	if succeeded >= s.params.MinPaths() {
		s.slots = slots
		s.established = true
		s.establishAt = s.w.Eng.Now()
		// Slots that failed construction already count as failed paths.
		for _, sl := range slots {
			if !sl.alive && sl.path != nil {
				s.w.unbindPath(sl.path)
				s.w.Nodes[s.self].Initiator.Forget(sl.path)
			}
		}
		if s.OnEstablished != nil {
			s.OnEstablished(true, s.stats.EstablishAttempts)
		}
		return
	}
	// Failed attempt: release everything and maybe retry.
	for _, sl := range slots {
		if sl != nil && sl.path != nil {
			s.w.unbindPath(sl.path)
			s.w.Nodes[s.self].Initiator.Forget(sl.path)
		}
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
	mid := s.w.Eng.RNG().Uint64()
	assign := s.allocate(len(segs))
	out := &outMsg{sentAt: s.w.Eng.Now(), bySlot: make(map[int][]int32)}
	initiator := s.w.Nodes[s.self].Initiator
	m, n := s.params.codeShape()
	for slotIdx, segIdxs := range assign {
		slot := s.slots[slotIdx]
		if len(segIdxs) == 0 {
			continue
		}
		if !slot.alive {
			// §4.2 + §4.5: with repair enabled, form a replacement path
			// on demand and ride the first segment on the construction
			// onion itself — no message delay waiting for a separate
			// construction round trip. Without repair, segments on dead
			// paths are lost (the Bernoulli model of §4.7).
			if s.repair && dest == s.responder && len(segIdxs) == 1 {
				si := segIdxs[0]
				msg := Msg{
					Kind:   kindSegment,
					MID:    mid,
					Index:  int32(segs[si].Index),
					Total:  int32(n),
					Needed: int32(m),
					Data:   segs[si].Data,
				}
				tag := obs.Tag{ID: mid, Seg: msg.Index, Slot: int32(slotIdx)}
				if s.rebuildSlot(slot, msg.Encode(), tag) {
					out.bySlot[slotIdx] = append(out.bySlot[slotIdx], int32(segs[si].Index))
					s.noteSegmentSent(dest, mid, msg.Index, len(msg.Data), slotIdx)
				}
			}
			continue
		}
		for _, si := range segIdxs {
			msg := Msg{
				Kind:   kindSegment,
				MID:    mid,
				Index:  int32(segs[si].Index),
				Total:  int32(n),
				Needed: int32(m),
				Data:   segs[si].Data,
			}
			tag := obs.Tag{ID: mid, Seg: msg.Index, Slot: int32(slotIdx)}
			if err := initiator.SendDataTagged(slot.path, dest, msg.Encode(), &s.stats.DataFlow, tag); err != nil {
				continue
			}
			out.bySlot[slotIdx] = append(out.bySlot[slotIdx], int32(segs[si].Index))
			s.noteSegmentSent(dest, mid, msg.Index, len(msg.Data), slotIdx)
		}
	}
	s.pending[mid] = out
	s.stats.MessagesSent++
	s.w.m.messagesSent.Inc()
	s.w.Eng.Schedule(s.params.AckTimeout, func() { s.checkAcks(mid) })
	return mid, nil
}

// noteSegmentSent records one coded data segment leaving the
// initiator, in the session stats, the registry, and the trace.
func (s *Session) noteSegmentSent(dest netsim.NodeID, mid uint64, index int32, size, slot int) {
	s.stats.SegmentsSent++
	s.w.m.segmentsSent.Inc()
	if s.w.tracer != nil {
		s.w.tracer.Emit(obs.Event{
			Type: obs.SegmentSent, At: int64(s.w.Eng.Now()),
			Node: int(s.self), Peer: int(dest), ID: mid,
			Seq: int64(index), Slot: slot, Hop: -1, Size: size,
		})
	}
}

// allocate maps segment indices to path slots: the even split of §4.7,
// or the weighted extension of §7 when enabled.
func (s *Session) allocate(nSegs int) [][]int {
	if s.params.Weighted {
		return s.allocateWeighted(nSegs)
	}
	assign := make([][]int, len(s.slots))
	per := nSegs / len(s.slots)
	idx := 0
	for i := range s.slots {
		for j := 0; j < per && idx < nSegs; j++ {
			assign[i] = append(assign[i], idx)
			idx++
		}
	}
	// Distribute any remainder round-robin (only possible when nSegs is
	// not a multiple of k, which the paper excludes but we permit).
	for i := 0; idx < nSegs; i, idx = i+1, idx+1 {
		assign[i%len(s.slots)] = append(assign[i%len(s.slots)], idx)
	}
	return assign
}

// allocateWeighted gives stable paths more segments: each live slot is
// scored by the minimum liveness predictor q over its relays, and
// segments are dealt to slots proportionally to score.
func (s *Session) allocateWeighted(nSegs int) [][]int {
	type scored struct {
		slot  int
		score float64
	}
	var live []scored
	var total float64
	for i, sl := range s.slots {
		if !sl.alive {
			continue
		}
		score := s.pathStability(sl)
		// Floor so every live path gets some share.
		if score < 0.01 {
			score = 0.01
		}
		live = append(live, scored{i, score})
		total += score
	}
	assign := make([][]int, len(s.slots))
	if len(live) == 0 {
		return assign
	}
	// Largest-remainder apportionment of nSegs by score.
	counts := make([]int, len(live))
	rem := make([]float64, len(live))
	used := 0
	for i, sc := range live {
		exact := float64(nSegs) * sc.score / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < nSegs {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		used++
	}
	idx := 0
	for i, sc := range live {
		for j := 0; j < counts[i]; j++ {
			assign[sc.slot] = append(assign[sc.slot], idx)
			idx++
		}
	}
	return assign
}

// pathStability returns the minimum predictor q across a path's relays.
func (s *Session) pathStability(sl *pathSlot) float64 {
	qp, ok := s.provider.(membership.QProvider)
	if !ok || sl.path == nil {
		return 1
	}
	min := 1.0
	for _, relay := range sl.path.Relays {
		if q := qp.Q(relay); q < min {
			min = q
		}
	}
	return min
}

// checkAcks runs at AckTimeout after a message: any live slot with
// unacknowledged segments is declared failed (§4.5 timeout detection).
func (s *Session) checkAcks(mid uint64) {
	out, ok := s.pending[mid]
	if !ok {
		return
	}
	// Iterate slots in index order, not map order: markSlotDead draws
	// from the engine RNG in repair mode, so the visit order must be
	// deterministic for same-seed runs to stay byte-identical.
	for slotIdx := range s.slots {
		if len(out.bySlot[slotIdx]) == 0 {
			continue
		}
		s.markSlotDead(s.slots[slotIdx])
	}
}

func (s *Session) markSlotDead(sl *pathSlot) {
	if !sl.alive {
		return
	}
	sl.alive = false
	s.stats.PathsDied++
	s.w.m.pathsDied.Inc()
	if s.w.tracer != nil {
		var sid uint64
		if sl.path != nil {
			sid = uint64(sl.path.SID)
		}
		s.w.tracer.Emit(obs.Event{
			Type: obs.PathBroken, At: int64(s.w.Eng.Now()),
			Node: int(s.self), Peer: int(s.responder),
			ID: sid, Seq: int64(sl.index), Slot: sl.index, Hop: -1,
			Reason: obs.ReasonAckTimeout,
		})
	}
	if s.repair {
		// Self-healing mode (§4.5 reconstruction): replace the failed
		// path instead of counting toward set death.
		s.replaceSlot(sl)
		return
	}
	if s.AlivePaths() < s.params.MinPaths() && !s.setDead {
		s.setDead = true
		s.setDeadAt = s.w.Eng.Now()
		if s.OnSetDead != nil {
			s.OnSetDead(s.setDeadAt)
		}
	}
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
		for _, sl := range s.slots {
			if sl != nil && !sl.alive {
				s.replaceSlot(sl)
			}
		}
		s.sendProbes()
	})
}

// sendProbes sends one tiny probe down every live path and arms the ack
// timeout; unacked probes mark (and, in repair mode, replace) the path.
func (s *Session) sendProbes() {
	mid := s.w.Eng.RNG().Uint64()
	out := &outMsg{sentAt: s.w.Eng.Now(), bySlot: make(map[int][]int32)}
	initiator := s.w.Nodes[s.self].Initiator
	sentAny := false
	for i, sl := range s.slots {
		if sl == nil || !sl.alive {
			continue
		}
		probe := Msg{Kind: kindProbe, MID: mid, Index: int32(i)}
		if err := initiator.SendData(sl.path, probe.Encode(), &s.stats.DataFlow); err != nil {
			continue
		}
		out.bySlot[i] = append(out.bySlot[i], int32(i))
		sentAny = true
	}
	if !sentAny {
		return
	}
	s.pending[mid] = out
	s.w.Eng.Schedule(s.params.AckTimeout, func() {
		s.checkAcks(mid)
		delete(s.pending, mid)
	})
}

// handleReverse processes decrypted reverse-path payloads routed to this
// session by the world.
func (s *Session) handleReverse(p *onion.Path, plain []byte) {
	msg, err := decodeAppMsg(plain)
	if err != nil {
		return
	}
	switch msg.kind {
	case kindSegAck:
		s.handleAck(p, msg.msg)
	case kindRespSeg:
		s.handleRespSeg(msg.msg)
	case kindInbound:
		s.handleInbound(msg.service)
	}
}

func (s *Session) handleAck(p *onion.Path, ack Msg) {
	out, ok := s.pending[ack.MID]
	if !ok {
		return
	}
	s.stats.SegmentsAcked++
	s.w.m.segmentsAcked.Inc()
	for slotIdx := range s.slots {
		waiting := out.bySlot[slotIdx]
		for i, idx := range waiting {
			if idx == ack.Index {
				out.bySlot[slotIdx] = append(waiting[:i], waiting[i+1:]...)
				if sl := s.slots[slotIdx]; sl != nil {
					sl.lastAck = s.w.Eng.Now()
				}
				return
			}
		}
	}
}

func (s *Session) handleRespSeg(rs Msg) {
	if _, ok := s.pending[rs.MID]; !ok {
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
		for _, sl := range s.slots {
			if sl.alive && s.pathStability(sl) < threshold {
				if s.w.tracer != nil {
					var sid uint64
					if sl.path != nil {
						sid = uint64(sl.path.SID)
					}
					s.w.tracer.Emit(obs.Event{
						Type: obs.PathBroken, At: int64(s.w.Eng.Now()),
						Node: int(s.self), Peer: int(s.responder),
						ID: sid, Seq: int64(sl.index), Slot: sl.index, Hop: -1,
						Reason: obs.ReasonPredicted,
					})
				}
				s.replaceSlot(sl)
			}
		}
	})
}

// notePathRepaired records a successful path replacement (§4.5
// reconstruction) in the registry and the trace.
func (s *Session) notePathRepaired(p *onion.Path, sl *pathSlot) {
	s.w.m.pathsReplaced.Inc()
	if s.w.tracer != nil {
		s.w.tracer.Emit(obs.Event{
			Type: obs.PathRepaired, At: int64(s.w.Eng.Now()),
			Node: int(s.self), Peer: int(s.responder),
			ID: uint64(p.SID), Seq: int64(sl.index),
			Slot: sl.index, Hop: -1,
		})
	}
}

// freshRelays selects one new relay list avoiding the session's live
// relays and endpoints.
func (s *Session) freshRelays(sl *pathSlot) ([]netsim.NodeID, bool) {
	cands := s.provider.Candidates(s.self)
	exclude := []netsim.NodeID{s.self, s.responder}
	for _, other := range s.slots {
		if other != sl && other.alive && other.path != nil {
			exclude = append(exclude, other.path.Relays...)
		}
	}
	paths, err := mixchoice.SelectPaths(s.w.Eng.RNG(), s.params.Strategy, cands, 1, s.params.L, exclude...)
	if err != nil {
		return nil, false
	}
	return paths[0], true
}

// replaceSlot constructs a replacement path for a slot (reconstruction
// per §4.5).
func (s *Session) replaceSlot(sl *pathSlot) { s.rebuildSlot(sl, nil, obs.Tag{}) }

// rebuildSlot constructs a replacement path for a slot through fresh
// relays, carrying plain on the construction onion when it is set
// (§4.2's combined mode, used to send on demand over a dead slot). The
// old path stays in use until the replacement stands; the slot revives
// when the construction ack arrives. It reports whether the
// construction entered the network.
func (s *Session) rebuildSlot(sl *pathSlot, plain []byte, tag obs.Tag) bool {
	if sl.repairing {
		return false
	}
	relays, ok := s.freshRelays(sl)
	if !ok {
		return false
	}
	initiator := s.w.Nodes[s.self].Initiator
	old := sl.path
	done := func(p *onion.Path, ok bool) {
		sl.repairing = false
		if !ok {
			s.w.unbindPath(p)
			initiator.Forget(p)
			return
		}
		if old != nil {
			s.w.unbindPath(old)
			initiator.Forget(old)
		}
		sl.path = p
		sl.alive = true
		sl.lastAck = s.w.Eng.Now()
		s.stats.PathsReplaced++
		s.notePathRepaired(p, sl)
	}
	sl.repairing = true
	var p *onion.Path
	var err error
	if plain == nil {
		p, err = initiator.Construct(relays, s.responder, &s.stats.ConstructFlow, done)
	} else {
		p, err = initiator.ConstructWithDataTagged(relays, s.responder, plain, &s.stats.DataFlow, tag, done)
	}
	if err != nil {
		sl.repairing = false
		return false
	}
	s.w.bindPath(p, s)
	return true
}
