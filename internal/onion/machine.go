package onion

import (
	"bytes"
	"io"
	"sync"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// DefaultStateTTL is how long a relay keeps an idle path state before
// reclaiming it (§4.3). Payload traffic refreshes the TTL.
const DefaultStateTTL = 10 * sim.Minute

// RelayStats counts a relay's activity.
type RelayStats struct {
	Constructed  uint64 // path states installed
	DataRelayed  uint64 // payload onion layers forwarded
	Delivered    uint64 // responder deliveries (terminal hops)
	ReverseHops  uint64 // reverse messages wrapped and forwarded
	AcksRelayed  uint64 // construction acks forwarded backward
	DroppedNoSID uint64 // messages with unknown or expired stream IDs
	DroppedBad   uint64 // messages that failed to decrypt or parse
	Expired      uint64 // path states reclaimed by the TTL sweeper
	Wiped        uint64 // path states lost to a node failure
}

// Rand supplies a Machine's randomness: stream IDs come from Uint64 and
// reverse-layer SymSeal nonces from Read. *math/rand.Rand satisfies it.
type Rand interface {
	io.Reader
	Uint64() uint64
}

// Kind names a relay-plane message. The values are livenet's frame
// kinds on the wire.
type Kind uint8

const (
	KindConstruct     Kind = iota + 1 // construction onion (§4.1)
	KindAck                           // construction ack, hop by hop back
	KindData                          // one payload onion layer (§4.2)
	KindDeliver                       // terminal relay to responder
	KindReverse                       // response, one layer added per hop
	KindConstructData                 // construction plus first payload (§4.2)
)

// Frame is one message a Machine asks its caller to send.
type Frame struct {
	Kind  Kind
	To    netsim.NodeID
	SID   StreamID
	Onion []byte // KindConstruct and KindConstructData only
	Body  []byte
}

// Step is what one input produced: up to two frames, in send order, and
// why the input was dropped (obs.ReasonNone when it was not). A step
// may both drop and have installed state: a combined construction whose
// terminal payload does not parse keeps its path state.
type Step struct {
	Frames [2]Frame
	N      int
	Drop   obs.Reason
}

func (s *Step) add(f Frame) {
	s.Frames[s.N] = f
	s.N++
}

// pathState is one relay's cached tuple for a stream:
// [P_{i-1}, sid_{i-1}, P_{i+1}, sid_i, R_i] plus a TTL (§4.3). All
// fields but expires are fixed once the state is installed, except
// that a §4.4 rebind changes next and nextSID of a terminal state under
// Machine.mu.
type pathState struct {
	prev     netsim.NodeID
	prevSID  StreamID
	next     netsim.NodeID
	nextSID  StreamID
	key      []byte
	terminal bool // next hop is the responder
	expires  sim.Time
}

// respStream is the responder's opened stream key for one inbound sid.
// A delivery reuses key only when it arrives through the same relay
// with the same sealed key; anything else is opened afresh.
type respStream struct {
	relay   netsim.NodeID
	sealed  []byte
	key     []byte
	expires sim.Time
}

// Machine is the relay and responder of §4.1–4.4 without any IO: it
// installs path state from construction onions, strips or adds one
// symmetric layer per hop, expires idle state after a TTL, rebinds a
// terminal stream to a new responder for path reuse, and caches the
// responder's opened stream keys. Each entry point takes the input and
// the current time and returns what to send; the caller owns the
// network, the clock and any tracing. Relay and Responder drive it in
// simulation, livenet.Node over sockets.
//
// Methods are safe for concurrent use when the Rand is. Crypto runs
// outside the Machine's lock, so concurrent streams do not serialise on
// it.
type Machine struct {
	suite onioncrypt.Suite
	priv  onioncrypt.PrivateKey
	ttl   sim.Time
	rng   Rand

	mu      sync.Mutex
	forward map[StreamID]*pathState // keyed by upstream (inbound) stream ID
	reverse map[StreamID]*pathState // keyed by downstream (outbound) stream ID
	streams map[StreamID]respStream // responder: keyed by the terminal relay's downstream sid
	stats   RelayStats
}

// NewMachine creates the relay/responder state of a node holding priv.
// ttl is the idle lifetime of path state and responder stream keys, in
// the same units as the now values passed to the entry points.
func NewMachine(suite onioncrypt.Suite, priv onioncrypt.PrivateKey, ttl sim.Time, rng Rand) *Machine {
	return &Machine{
		suite:   suite,
		priv:    priv,
		ttl:     ttl,
		rng:     rng,
		forward: make(map[StreamID]*pathState),
		reverse: make(map[StreamID]*pathState),
		streams: make(map[StreamID]respStream),
	}
}

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() RelayStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// PathStates returns the number of forward and reverse path-state
// entries held.
func (m *Machine) PathStates() (forward, reverse int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.forward), len(m.reverse)
}

// StreamIDs returns the stream IDs the responder holds an opened key
// for.
func (m *Machine) StreamIDs() []StreamID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]StreamID, 0, len(m.streams))
	for sid := range m.streams {
		ids = append(ids, sid)
	}
	return ids
}

// Wipe drops all state, as a node failure does.
func (m *Machine) Wipe() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Wiped += uint64(len(m.forward))
	m.forward = make(map[StreamID]*pathState)
	m.reverse = make(map[StreamID]*pathState)
	m.streams = make(map[StreamID]respStream)
}

// Sweep reclaims every entry whose TTL ran out by now (§4.3).
func (m *Machine) Sweep(now sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for sid, st := range m.forward {
		if st.expires <= now {
			delete(m.forward, sid)
			m.stats.Expired++
		}
	}
	for sid, st := range m.reverse {
		if st.expires <= now {
			delete(m.reverse, sid)
		}
	}
	for sid, rs := range m.streams {
		if rs.expires <= now {
			delete(m.streams, sid)
		}
	}
}

// lookup returns a live state from the map, dropping expired entries.
// Callers hold m.mu.
func (m *Machine) lookup(tab map[StreamID]*pathState, sid StreamID, now sim.Time) *pathState {
	st, ok := tab[sid]
	if !ok {
		m.stats.DroppedNoSID++
		return nil
	}
	if st.expires <= now {
		delete(tab, sid)
		m.stats.DroppedNoSID++
		return nil
	}
	return st
}

// bad counts and returns the step for an input that failed to decrypt
// or parse.
func (m *Machine) bad() Step {
	m.mu.Lock()
	m.stats.DroppedBad++
	m.mu.Unlock()
	return Step{Drop: obs.ReasonBadLayer}
}

// install records the path state one construction layer describes and
// returns it with its fresh downstream stream ID.
func (m *Machine) install(from netsim.NodeID, sid StreamID, layer ConstructLayer, now sim.Time) (*pathState, StreamID) {
	next := StreamID(m.rng.Uint64())
	st := &pathState{
		prev:     from,
		prevSID:  sid,
		next:     layer.Next,
		nextSID:  next,
		key:      layer.Key,
		terminal: layer.Terminal,
		expires:  now + m.ttl,
	}
	m.mu.Lock()
	m.forward[sid] = st
	m.reverse[next] = st
	m.stats.Constructed++
	m.mu.Unlock()
	return st, next
}

// deliver hands a terminal stream's responder blob to dest. A dest
// other than the cached responder means the initiator multiplexed a new
// responder onto the path (§4.4): the stream is rebound to a freshly
// drawn downstream ID and the old reverse entry retired.
func (m *Machine) deliver(st *pathState, dest netsim.NodeID, blob []byte) Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dest != st.next {
		delete(m.reverse, st.nextSID)
		st.next = dest
		st.nextSID = StreamID(m.rng.Uint64())
		m.reverse[st.nextSID] = st
	}
	m.stats.Delivered++
	return Frame{Kind: KindDeliver, To: dest, SID: st.nextSID, Body: blob}
}

// Construct installs path state from one construction onion layer that
// arrived from `from` on stream sid, then forwards the inner onion or,
// at the terminal relay, acknowledges back toward the initiator.
func (m *Machine) Construct(from netsim.NodeID, sid StreamID, onion []byte, now sim.Time) (s Step) {
	layer, err := ParseConstructLayer(m.suite, m.priv, onion)
	if err != nil {
		return m.bad()
	}
	_, next := m.install(from, sid, layer, now)
	if layer.Terminal {
		s.add(Frame{Kind: KindAck, To: from, SID: sid})
		return s
	}
	s.add(Frame{Kind: KindConstruct, To: layer.Next, SID: next, Onion: layer.Inner})
	return s
}

// ConstructData installs path state AND strips one payload layer in one
// pass (§4.2's combined construction and sending). The terminal relay
// delivers the responder blob and acks like an ordinary construction.
func (m *Machine) ConstructData(from netsim.NodeID, sid StreamID, onion, body []byte, now sim.Time) (s Step) {
	layer, err := ParseConstructLayer(m.suite, m.priv, onion)
	if err != nil {
		return m.bad()
	}
	pt, err := m.suite.SymOpen(layer.Key, body)
	if err != nil {
		return m.bad()
	}
	st, next := m.install(from, sid, layer, now)
	if !layer.Terminal {
		m.mu.Lock()
		m.stats.DataRelayed++
		m.mu.Unlock()
		s.add(Frame{Kind: KindConstructData, To: layer.Next, SID: next, Onion: layer.Inner, Body: pt})
		return s
	}
	dest, blob, err := ParseTerminalPayload(pt)
	if err != nil {
		return m.bad()
	}
	s.add(m.deliver(st, dest, blob))
	s.add(Frame{Kind: KindAck, To: from, SID: sid})
	return s
}

// Ack forwards a construction ack one hop back toward the initiator.
func (m *Machine) Ack(sid StreamID, now sim.Time) (s Step) {
	m.mu.Lock()
	st := m.lookup(m.reverse, sid, now)
	if st != nil {
		m.stats.AcksRelayed++
	}
	m.mu.Unlock()
	if st == nil {
		return Step{Drop: obs.ReasonNoState}
	}
	s.add(Frame{Kind: KindAck, To: st.prev, SID: st.prevSID})
	return s
}

// Data strips one payload layer and forwards it. At the terminal relay
// the layer names the destination and the responder blob is delivered
// to it (see deliver for the §4.4 rebind).
func (m *Machine) Data(sid StreamID, body []byte, now sim.Time) (s Step) {
	m.mu.Lock()
	st := m.lookup(m.forward, sid, now)
	m.mu.Unlock()
	if st == nil {
		return Step{Drop: obs.ReasonNoState}
	}
	pt, err := m.suite.SymOpen(st.key, body)
	if err != nil {
		return m.bad()
	}
	m.mu.Lock()
	st.expires = now + m.ttl // payload refreshes the TTL (§4.3)
	if !st.terminal {
		m.stats.DataRelayed++
	}
	m.mu.Unlock()
	if !st.terminal {
		s.add(Frame{Kind: KindData, To: st.next, SID: st.nextSID, Body: pt})
		return s
	}
	dest, blob, err := ParseTerminalPayload(pt)
	if err != nil {
		return m.bad()
	}
	s.add(m.deliver(st, dest, blob))
	return s
}

// Reverse wraps a response in this relay's symmetric layer and forwards
// it toward the initiator.
func (m *Machine) Reverse(sid StreamID, body []byte, now sim.Time) (s Step) {
	m.mu.Lock()
	st := m.lookup(m.reverse, sid, now)
	m.mu.Unlock()
	if st == nil {
		return Step{Drop: obs.ReasonNoState}
	}
	wrapped, err := m.suite.SymSeal(m.rng, st.key, body)
	if err != nil {
		return m.bad()
	}
	m.mu.Lock()
	st.expires = now + m.ttl
	m.stats.ReverseHops++
	m.mu.Unlock()
	s.add(Frame{Kind: KindReverse, To: st.prev, SID: st.prevSID, Body: wrapped})
	return s
}

// Deliver runs the responder on a blob that terminal relay `from`
// delivered on stream sid: it returns the decrypted payload and the
// stream key replies are sealed with. The sealed key is opened once per
// stream and reused while the relay and the sealed-key bytes match;
// SymOpen still authenticates every payload.
func (m *Machine) Deliver(from netsim.NodeID, sid StreamID, blob []byte, now sim.Time) (plain, key []byte, drop obs.Reason) {
	sealed, ct, err := ParseResponderBlob(blob)
	if err != nil {
		return nil, nil, m.bad().Drop
	}
	m.mu.Lock()
	rs, ok := m.streams[sid]
	m.mu.Unlock()
	if !ok || rs.relay != from || !bytes.Equal(rs.sealed, sealed) {
		k, err := m.suite.Open(m.priv, sealed)
		if err != nil || len(k) != onioncrypt.SymKeySize {
			return nil, nil, m.bad().Drop
		}
		rs = respStream{relay: from, sealed: append([]byte(nil), sealed...), key: k}
	}
	plain, err = m.suite.SymOpen(rs.key, ct)
	if err != nil {
		return nil, nil, m.bad().Drop
	}
	rs.expires = now + m.ttl
	m.mu.Lock()
	m.streams[sid] = rs
	m.mu.Unlock()
	return plain, rs.key, obs.ReasonNone
}
