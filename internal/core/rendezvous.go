package core

import (
	"fmt"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/sim"
)

// This file implements mutual anonymity via the paper's suggested
// "additional level of redirection" (§3): a rendezvous node glues two
// independently constructed path sets together. The hidden responder
// builds k onion paths to the rendezvous and registers a service tag;
// the initiator builds its own k paths to the rendezvous and sends coded
// segments for that tag; the rendezvous forwards them down the
// responder's reverse paths. Neither endpoint learns the other's
// identity, and the rendezvous sees only two anonymous path sets.

// Rendezvous is the glue service running on one node. It piggybacks on
// the node's Receiver: registration and service segments arrive through
// the same onion machinery as ordinary traffic.
type Rendezvous struct {
	w  *World
	id netsim.NodeID

	tags  map[uint64]*registration
	convs map[uint64]*conversation

	stats RendezvousStats
}

// RendezvousStats counts the service's activity.
type RendezvousStats struct {
	Registrations    int
	SegmentsInbound  int // initiator → service forwards
	SegmentsOutbound int // service → initiator reply forwards
	DroppedNoTag     int
	DroppedNoConv    int
}

type registration struct {
	handles []onion.ReplyHandle
	seen    map[handleKey]bool
	expires sim.Time
}

type conversation struct {
	handles []onion.ReplyHandle // the initiator's reverse paths
	seen    map[handleKey]bool
	tag     uint64
	expires sim.Time
}

type handleKey struct {
	relay netsim.NodeID
	sid   onion.StreamID
}

// rendezvousTTL bounds idle registrations and conversations.
const rendezvousTTL = 30 * sim.Minute

// NewRendezvous attaches the rendezvous service to a node. The node's
// Receiver keeps serving ordinary traffic.
func (w *World) NewRendezvous(id netsim.NodeID) *Rendezvous {
	r := &Rendezvous{
		w:     w,
		id:    id,
		tags:  make(map[uint64]*registration),
		convs: make(map[uint64]*conversation),
	}
	w.Receivers[id].setServiceHooks(r)
	w.Eng.Every(rendezvousTTL, rendezvousTTL, r.sweep)
	return r
}

// Stats returns a snapshot of the service counters.
func (r *Rendezvous) Stats() RendezvousStats { return r.stats }

func (r *Rendezvous) sweep() {
	now := r.w.Eng.Now()
	for tag, reg := range r.tags {
		if reg.expires <= now {
			delete(r.tags, tag)
		}
	}
	for conv, c := range r.convs {
		if c.expires <= now {
			delete(r.convs, conv)
		}
	}
}

// handleRegister implements serviceHooks.
func (r *Rendezvous) handleRegister(h onion.ReplyHandle, msg registerMsg) {
	reg := r.tags[msg.Tag]
	if reg == nil {
		reg = &registration{seen: make(map[handleKey]bool)}
		r.tags[msg.Tag] = reg
	}
	key := handleKey{h.From(), h.StreamID()}
	if !reg.seen[key] {
		reg.seen[key] = true
		reg.handles = append(reg.handles, h)
	}
	reg.expires = r.w.Eng.Now() + rendezvousTTL
	r.stats.Registrations++
}

// handleService implements serviceHooks: forward segments between the
// two path sets.
func (r *Rendezvous) handleService(h onion.ReplyHandle, msg serviceSegMsg) {
	switch msg.Kind {
	case kindToService:
		reg := r.tags[msg.Tag]
		if reg == nil || len(reg.handles) == 0 {
			r.stats.DroppedNoTag++
			return
		}
		reg.expires = r.w.Eng.Now() + rendezvousTTL
		// Remember the initiator's reverse paths for the reply leg.
		c := r.convs[msg.Conv]
		if c == nil {
			c = &conversation{seen: make(map[handleKey]bool), tag: msg.Tag}
			r.convs[msg.Conv] = c
		}
		c.expires = r.w.Eng.Now() + rendezvousTTL
		key := handleKey{h.From(), h.StreamID()}
		if !c.seen[key] {
			c.seen[key] = true
			c.handles = append(c.handles, h)
		}
		fwd := serviceSegMsg{
			Kind: kindInbound, Conv: msg.Conv,
			Index: msg.Index, Total: msg.Total, Needed: msg.Needed, Data: msg.Data,
		}
		target := reg.handles[int(msg.Index)%len(reg.handles)]
		if target.Reply(fwd.encode(), h.Flow) {
			r.stats.SegmentsInbound++
		}
	case kindServiceReply:
		c := r.convs[msg.Conv]
		if c == nil || len(c.handles) == 0 {
			r.stats.DroppedNoConv++
			return
		}
		c.expires = r.w.Eng.Now() + rendezvousTTL
		fwd := serviceSegMsg{
			Kind: kindInbound, Conv: msg.Conv,
			Index: msg.Index, Total: msg.Total, Needed: msg.Needed, Data: msg.Data,
		}
		target := c.handles[int(msg.Index)%len(c.handles)]
		if target.Reply(fwd.encode(), h.Flow) {
			r.stats.SegmentsOutbound++
		}
	}
}

// --- session-side service API -----------------------------------------

// RegisterService announces a hidden service: one registration message
// travels down every live path of the session (whose responder must be
// the rendezvous node), giving the rendezvous one reverse handle per
// path. Re-register periodically to keep the registration fresh and to
// cover repaired paths.
func (s *Session) RegisterService(tag uint64) error {
	if !s.established {
		return fmt.Errorf("core: session not established")
	}
	initiator := s.w.Nodes[s.self].Initiator
	msg := registerMsg{Tag: tag}.encode()
	sent := 0
	for _, slot := range s.m.LiveSlots() {
		if err := initiator.SendData(s.paths[slot], msg, &s.stats.DataFlow); err == nil {
			sent++
		}
	}
	if sent == 0 {
		return fmt.Errorf("core: no live paths to register over")
	}
	return nil
}

// SendServiceMessage sends a message to a hidden service by tag through
// the session's responder (which must run a Rendezvous). It returns the
// conversation ID under which the service's replies will arrive via
// OnInbound.
func (s *Session) SendServiceMessage(tag uint64, data []byte) (uint64, error) {
	conv := s.w.Eng.RNG().Uint64()
	if err := s.sendServiceSegments(kindToService, tag, conv, data); err != nil {
		return 0, err
	}
	return conv, nil
}

// SendServiceReply answers a conversation previously delivered through
// OnInbound (hidden-responder side).
func (s *Session) SendServiceReply(conv uint64, data []byte) error {
	return s.sendServiceSegments(kindServiceReply, 0, conv, data)
}

func (s *Session) sendServiceSegments(kind byte, tag, conv uint64, data []byte) error {
	if !s.established {
		return fmt.Errorf("core: session not established")
	}
	segs, err := s.code.Split(data)
	if err != nil {
		return err
	}
	assign := s.allocate(len(segs))
	initiator := s.w.Nodes[s.self].Initiator
	m, n := s.params.codeShape()
	sent := 0
	for slot, segIdxs := range assign {
		if !s.m.Alive(slot) {
			continue
		}
		for _, si := range segIdxs {
			msg := serviceSegMsg{
				Kind: kind, Tag: tag, Conv: conv,
				Index: int32(segs[si].Index), Total: int32(n), Needed: int32(m),
				Data: segs[si].Data,
			}
			if err := initiator.SendData(s.paths[slot], msg.encode(), &s.stats.DataFlow); err == nil {
				sent++
				s.stats.SegmentsSent++
			}
		}
	}
	if sent == 0 {
		return fmt.Errorf("core: no live paths")
	}
	return nil
}

// handleInbound collects kindInbound segments arriving on the reverse
// paths and reconstructs conversations.
func (s *Session) handleInbound(msg serviceSegMsg) {
	now := s.w.Eng.Now()
	s.convs.SweepDue(now)
	_, ready, data, err := s.convs.Collect(msg.Conv, msg.Needed, msg.Total, msg.Index, msg.Data, now)
	if ready == nil || err != nil {
		return
	}
	if s.OnInbound != nil {
		s.OnInbound(msg.Conv, data, now)
	}
}
