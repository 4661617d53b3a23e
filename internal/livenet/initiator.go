package livenet

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
)

// Path is an established live onion path from this node to a responder.
type Path struct {
	SID       uint64
	Relays    []netsim.NodeID
	Responder netsim.NodeID

	node          *Node
	keys          [][]byte
	respKey       []byte
	sealedRespKey []byte
	replies       chan []byte
	down          chan struct{} // closed by Teardown
	downOnce      sync.Once
}

// preparePath validates the endpoints, generates the per-hop and
// responder keys, and builds the construction onion — everything a
// path needs before its first frame leaves.
func (n *Node) preparePath(relays []netsim.NodeID, responder netsim.NodeID) (*Path, []byte, error) {
	if len(relays) == 0 {
		return nil, nil, errors.New("livenet: path needs at least one relay")
	}
	roster := n.roster()
	for _, r := range relays {
		if r == n.cfg.ID || r == responder {
			return nil, nil, fmt.Errorf("livenet: relay %d collides with an endpoint", r)
		}
		if _, err := roster.Peer(r); err != nil {
			return nil, nil, err
		}
	}
	if _, err := roster.Peer(responder); err != nil {
		return nil, nil, err
	}
	keys := make([][]byte, len(relays))
	for i := range keys {
		k, err := n.cfg.Suite.NewSymKey(rand.Reader)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = k
	}
	respKey, err := n.cfg.Suite.NewSymKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	sealed, err := n.cfg.Suite.Seal(rand.Reader, roster.Public(responder), respKey)
	if err != nil {
		return nil, nil, err
	}
	onionBytes, err := onion.BuildConstructOnion(n.cfg.Suite, rand.Reader, roster, relays, responder, keys)
	if err != nil {
		return nil, nil, err
	}
	return &Path{
		SID:           newSID(),
		Relays:        append([]netsim.NodeID(nil), relays...),
		Responder:     responder,
		node:          n,
		keys:          keys,
		respKey:       respKey,
		sealedRespKey: sealed,
		replies:       make(chan []byte, 64),
		down:          make(chan struct{}),
	}, onionBytes, nil
}

// Construct builds an onion path through the given relays to the
// responder (§4.1) and blocks until the end-to-end construction ack
// arrives or the configured timeout elapses.
func (n *Node) Construct(relays []netsim.NodeID, responder netsim.NodeID) (*Path, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ConstructTimeout)
	defer cancel()
	return n.ConstructCtx(ctx, relays, responder)
}

// ConstructCtx is Construct under a caller-supplied context: both the
// outbound dial and the ack wait observe ctx, so a blackholed or
// silent first relay cannot stall the initiator past its deadline.
func (n *Node) ConstructCtx(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID) (*Path, error) {
	p, err := n.construct(ctx, relays, responder, nil)
	if err == nil {
		n.notePath(obs.PathBuilt, p, int64(len(p.Relays)), -1)
	}
	return p, err
}

// notePath records a successfully acked path construction: a PathBuilt
// event (seq = path length, no slot) for a new path, or a PathRepaired
// event (seq = slot) for a session's replacement, as the simulator
// traces it.
func (n *Node) notePath(typ obs.Type, p *Path, seq int64, slot int) {
	n.emit(obs.Event{
		Type: typ, At: time.Now().UnixMicro(),
		Node: int(n.cfg.ID), Peer: int(p.Responder),
		ID: p.SID, Seq: seq, Slot: slot, Hop: -1,
	})
	n.reg.Counter("live.paths_built").Inc()
}

// ConstructWithData builds the path with the first payload riding the
// construction onion (§4.2's combined pass): the responder receives the
// message one half-trip after launch, and the method returns once the
// construction ack arrives (or the timeout elapses).
func (n *Node) ConstructWithData(relays []netsim.NodeID, responder netsim.NodeID, data []byte) (*Path, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ConstructTimeout)
	defer cancel()
	return n.ConstructWithDataCtx(ctx, relays, responder, data)
}

// ConstructWithDataCtx is ConstructWithData under a caller-supplied
// context.
func (n *Node) ConstructWithDataCtx(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID, data []byte) (*Path, error) {
	p, err := n.construct(ctx, relays, responder, data)
	if err == nil {
		n.notePath(obs.PathBuilt, p, int64(len(p.Relays)), -1)
	}
	return p, err
}

// construct builds a path and waits for its construction ack, with
// data, when non-nil, riding the construction onion. It leaves tracing
// to its caller.
func (n *Node) construct(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID, data []byte) (*Path, error) {
	p, onionBytes, err := n.preparePath(relays, responder)
	if err != nil {
		return nil, err
	}
	f := frame{kind: kindConstruct, sid: p.SID, body: prependSender(n.cfg.ID, onionBytes)}
	if data != nil {
		payload, err := onion.BuildPayloadOnion(n.cfg.Suite, rand.Reader, p.keys, responder, p.respKey, p.sealedRespKey, data)
		if err != nil {
			return nil, err
		}
		f = frame{kind: kindConstructData, sid: p.SID, body: constructDataBody(n.cfg.ID, onionBytes, payload)}
	}
	ack := make(chan struct{})
	n.mu.Lock()
	n.acks[p.SID] = ack
	// Register the path before sending, so reverse replies racing the
	// ack are not lost.
	n.paths[p.SID] = p
	n.mu.Unlock()
	forget := func() {
		n.mu.Lock()
		delete(n.acks, p.SID)
		delete(n.paths, p.SID)
		n.mu.Unlock()
	}
	if err := n.sendCtx(ctx, relays[0], f); err != nil {
		forget()
		return nil, err
	}
	select {
	case <-ack:
		return p, nil
	case <-ctx.Done():
		forget()
		return nil, fmt.Errorf("livenet: construction ack: %w", ctx.Err())
	}
}

// Send routes an application payload down the path to its responder
// (§4.2).
func (p *Path) Send(data []byte) error {
	return p.sendTo(p.Responder, data, p.respKey, p.sealedRespKey)
}

func (p *Path) sendTo(dest netsim.NodeID, data, respKey, sealed []byte) error {
	body, err := onion.BuildPayloadOnion(p.node.cfg.Suite, rand.Reader, p.keys, dest, respKey, sealed, data)
	if err != nil {
		return err
	}
	return p.node.send(p.Relays[0], frame{kind: kindData, sid: p.SID, body: body})
}

// Replies streams decrypted reverse-path payloads (responder answers).
// The channel is buffered; when a slow consumer lets it fill, the
// newest replies are dropped, not the oldest.
func (p *Path) Replies() <-chan []byte { return p.replies }

// Teardown forgets the path locally; relay-side state ages out via TTL.
func (p *Path) Teardown() {
	p.node.mu.Lock()
	delete(p.node.paths, p.SID)
	p.node.mu.Unlock()
	p.downOnce.Do(func() { close(p.down) })
}

// deliverReverse peels all layers of a reverse message and hands the
// plaintext to the replies channel.
func (p *Path) deliverReverse(body []byte) {
	for _, k := range p.keys {
		pt, err := p.node.cfg.Suite.SymOpen(k, body)
		if err != nil {
			return
		}
		body = pt
	}
	pt, err := p.node.cfg.Suite.SymOpen(p.respKey, body)
	if err != nil {
		return
	}
	select {
	case p.replies <- pt:
	default: // slow consumer: drop
	}
}
