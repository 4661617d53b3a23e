// Package onion implements the paper's anonymous routing machinery on
// top of the simulated network: layered path-construction onions (§4.1),
// symmetric payload onions with the responder key sealed to the
// responder's public key (§4.2), relay path-state caches with TTL
// expiry (§4.3), last-hop destination override for path reuse (§4.4),
// construction acknowledgments and reverse-path (response) routing.
//
// The protocols of internal/core (CurMix, SimRep, SimEra) are thin
// orchestrations over this package: they decide which paths exist and
// what segments travel on them; this package makes individual paths
// work.
package onion

import (
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// StreamID identifies one hop-to-hop stream. Each relay maps the
// upstream stream ID to a freshly drawn downstream one, so observers
// cannot correlate a path's links by identifier.
type StreamID uint64

// msgHeaderSize is the serialized size of the fixed message header:
// 1 byte kind + 8 bytes stream ID.
const msgHeaderSize = 1 + 8

// ConstructMsg carries a path-construction onion toward the next relay
// (§4.1: [Path_i, sid_{i-1}]).
type ConstructMsg struct {
	SID   StreamID
	Onion []byte
	Flow  *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ConstructMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Onion) }

// ConstructDataMsg combines path construction with a payload in a single
// pass (§4.2: "We can perform path construction and message sending in
// the same time... This allows the initiator to form paths on-demand
// ... without message delays"). Each relay installs state from its onion
// layer AND strips one payload layer, forwarding both inward.
type ConstructDataMsg struct {
	SID   StreamID
	Onion []byte
	Body  []byte
	Flow  *metrics.Flow
	// Trace is the data-plane correlation tag; each relay forwards it
	// advanced one hop. Trace metadata only — never protocol input.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m ConstructDataMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Onion) + 4 + len(m.Body) }

// ConstructAck travels hop-by-hop back to the initiator once the last
// relay has installed its path state, implementing the end-to-end
// acknowledgment of §4.5 for construction.
type ConstructAck struct {
	SID  StreamID
	Flow *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ConstructAck) WireSize() int { return msgHeaderSize }

// DataMsg carries one payload onion layer downstream between relays
// (§4.2: [sid_i, PayLoad_{i+1}]).
type DataMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
	// Trace is the data-plane correlation tag; see ConstructDataMsg.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m DataMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// DeliverMsg is the final hop: the terminal relay hands the responder
// blob to the responder D.
type DeliverMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
	// Trace is the data-plane correlation tag; see ConstructDataMsg.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m DeliverMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// ReverseMsg travels from the responder back toward the initiator; each
// relay adds one symmetric layer with its cached key (§4.2 "On each
// reverse path, the payload is encrypted by the cached symmetric key at
// each hop").
type ReverseMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ReverseMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// send transmits a payload and charges its size to the flow if it was
// actually placed on the wire. tag is the data-plane correlation tag
// stamped on the wire message (zero for untagged traffic).
func send(net *netsim.Network, from, to netsim.NodeID, payload any, size int, flow *metrics.Flow, tag obs.Tag) bool {
	if net.Send(from, to, netsim.Message{Payload: payload, Size: size, Trace: tag}) {
		flow.Add(size)
		return true
	}
	return false
}

// sendFrame puts a Machine frame on the simulated wire as its typed
// message. Payload-carrying kinds are stamped with tag; construction,
// ack and reverse messages travel untagged.
func sendFrame(net *netsim.Network, from netsim.NodeID, f *Frame, flow *metrics.Flow, tag obs.Tag) {
	switch f.Kind {
	case KindConstruct:
		m := ConstructMsg{SID: f.SID, Onion: f.Onion, Flow: flow}
		send(net, from, f.To, m, m.WireSize(), flow, obs.Tag{})
	case KindConstructData:
		m := ConstructDataMsg{SID: f.SID, Onion: f.Onion, Body: f.Body, Flow: flow, Trace: tag}
		send(net, from, f.To, m, m.WireSize(), flow, tag)
	case KindAck:
		m := ConstructAck{SID: f.SID, Flow: flow}
		send(net, from, f.To, m, m.WireSize(), flow, obs.Tag{})
	case KindData:
		m := DataMsg{SID: f.SID, Body: f.Body, Flow: flow, Trace: tag}
		send(net, from, f.To, m, m.WireSize(), flow, tag)
	case KindDeliver:
		m := DeliverMsg{SID: f.SID, Body: f.Body, Flow: flow, Trace: tag}
		send(net, from, f.To, m, m.WireSize(), flow, tag)
	case KindReverse:
		m := ReverseMsg{SID: f.SID, Body: f.Body, Flow: flow}
		send(net, from, f.To, m, m.WireSize(), flow, obs.Tag{})
	}
}

// emitRelayDropped records a tagged data-plane message consumed above
// the wire — a relay or responder that could not process it. Without
// this event the message's causal chain would end at a MsgDelivered
// with no explanation. Untagged messages are not recorded: their drops
// are already aggregated in relay stats.
func emitRelayDropped(net *netsim.Network, node netsim.NodeID, tag obs.Tag, size int, reason obs.Reason) {
	if tag.ID == 0 {
		return
	}
	tr := net.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Type: obs.RelayDropped, At: int64(net.Engine().Now()),
		Node: int(node), Peer: -1, ID: tag.ID, Seq: int64(tag.Seg),
		Slot: int(tag.Slot), Hop: int(tag.Hop), Size: size, Reason: reason,
	})
}
