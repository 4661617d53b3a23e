package onion

import (
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// DataFunc receives an application payload at the responder together
// with a handle for replying along the reverse path.
type DataFunc func(h ReplyHandle, plain []byte)

// Responder is the destination-side endpoint D in the simulator: it
// drives a Machine that unseals the per-path symmetric key with its
// private key and decrypts application payloads, and it can send
// replies back along the delivering path (§4.2).
type Responder struct {
	*Machine
	id     netsim.NodeID
	net    *netsim.Network
	eng    *sim.Engine
	onData DataFunc
}

// NewResponder creates the responder endpoint for a node. The onData
// callback runs for every decrypted payload.
func NewResponder(net *netsim.Network, id netsim.NodeID, suite onioncrypt.Suite, priv onioncrypt.PrivateKey, ttl sim.Time, onData DataFunc) *Responder {
	return &Responder{
		Machine: newSimMachine(net, id, suite, priv, ttl),
		id:      id,
		net:     net,
		eng:     net.Engine(),
		onData:  onData,
	}
}

// Dropped returns the number of undecryptable deliveries.
func (r *Responder) Dropped() uint64 { return r.Stats().DroppedBad }

// handleDeliver processes a delivery from a terminal relay.
func (r *Responder) handleDeliver(from netsim.NodeID, msg DeliverMsg) {
	plain, key, drop := r.Deliver(from, msg.SID, msg.Body, r.eng.Now())
	if drop != obs.ReasonNone {
		emitRelayDropped(r.net, r.id, msg.Trace, msg.WireSize(), drop)
		return
	}
	if r.onData != nil {
		h := ReplyHandle{resp: r, relay: from, sid: msg.SID, key: key, Flow: msg.Flow}
		r.onData(h, plain)
	}
}

// ReplyHandle lets the responder application answer along the reverse
// path that delivered a payload.
type ReplyHandle struct {
	resp  *Responder
	relay netsim.NodeID
	sid   StreamID
	key   []byte
	// Flow is the bandwidth account of the delivering message; replies
	// sent through the handle default to charging it.
	Flow *metrics.Flow
}

// From returns the terminal relay the payload arrived through.
func (h ReplyHandle) From() netsim.NodeID { return h.relay }

// StreamID returns the delivering stream's identifier.
func (h ReplyHandle) StreamID() StreamID { return h.sid }

// Reply encrypts plain with the stream's symmetric key and sends it
// back up the path. It reports whether the message entered the network.
func (h ReplyHandle) Reply(plain []byte, flow *metrics.Flow) bool {
	r := h.resp
	ct, err := r.suite.SymSeal(r.rng, h.key, plain)
	if err != nil {
		return false
	}
	msg := ReverseMsg{SID: h.sid, Body: ct, Flow: flow}
	return send(r.net, r.id, h.relay, msg, msg.WireSize(), flow, obs.Tag{})
}
