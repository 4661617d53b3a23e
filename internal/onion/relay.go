package onion

import (
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// Relay is one node's mix functionality in the simulator: it drives a
// Machine from netsim messages, so it installs path state from
// construction onions and forwards payload, delivery, reverse and ack
// traffic along cached streams. All state is lost when the node fails,
// which is exactly the fragility the paper studies.
type Relay struct {
	*Machine
	id  netsim.NodeID
	net *netsim.Network
	eng *sim.Engine
}

// NewRelay creates the relay for a node, registers its churn listener
// (state is wiped when the node goes down) and starts the TTL sweeper.
func NewRelay(net *netsim.Network, id netsim.NodeID, suite onioncrypt.Suite, priv onioncrypt.PrivateKey, ttl sim.Time) *Relay {
	return &Relay{Machine: newSimMachine(net, id, suite, priv, ttl), id: id, net: net, eng: net.Engine()}
}

// newSimMachine creates a node's Machine on the engine's RNG (zero ttl
// selects DefaultStateTTL), wipes it when the node goes down and sweeps
// it every TTL.
func newSimMachine(net *netsim.Network, id netsim.NodeID, suite onioncrypt.Suite, priv onioncrypt.PrivateKey, ttl sim.Time) *Machine {
	if ttl <= 0 {
		ttl = DefaultStateTTL
	}
	eng := net.Engine()
	m := NewMachine(suite, priv, ttl, eng.RNG())
	net.AddStateListener(func(nid netsim.NodeID, up bool) {
		if nid == id && !up {
			m.Wipe()
		}
	})
	eng.Every(ttl, ttl, func() { m.Sweep(eng.Now()) })
	return m
}

// States returns the number of live path states.
func (r *Relay) States() int {
	n, _ := r.PathStates()
	return n
}

// handle runs one netsim message through the machine and sends what it
// produced. Payload-carrying outputs get the input's data-plane tag
// advanced one hop; a dropped tagged input is traced.
func (r *Relay) handle(from netsim.NodeID, payload any) {
	var (
		s    Step
		flow *metrics.Flow
		tag  obs.Tag
		size int
	)
	now := r.eng.Now()
	switch msg := payload.(type) {
	case ConstructMsg:
		s, flow = r.Construct(from, msg.SID, msg.Onion, now), msg.Flow
	case ConstructDataMsg:
		s, flow, tag, size = r.ConstructData(from, msg.SID, msg.Onion, msg.Body, now), msg.Flow, msg.Trace, msg.WireSize()
	case ConstructAck:
		s, flow = r.Ack(msg.SID, now), msg.Flow
	case DataMsg:
		s, flow, tag, size = r.Data(msg.SID, msg.Body, now), msg.Flow, msg.Trace, msg.WireSize()
	case ReverseMsg:
		s, flow = r.Reverse(msg.SID, msg.Body, now), msg.Flow
	}
	if s.Drop != obs.ReasonNone {
		emitRelayDropped(r.net, r.id, tag, size, s.Drop)
	}
	for i := 0; i < s.N; i++ {
		sendFrame(r.net, r.id, &s.Frames[i], flow, tag.Next())
	}
}
