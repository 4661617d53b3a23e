package core

import (
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/sim"
)

// DeliveredFunc is invoked when the receiver reconstructs a message: the
// message ID, the reassembled bytes, and the virtual time of
// reconstruction.
type DeliveredFunc func(mid uint64, data []byte, at sim.Time)

// inboundTTL bounds how long partial and reconstructed messages are
// buffered. Reconstructed entries must outlive realistic reply delays
// (an anonymous mailbox answers minutes later over the cached reverse
// handles), so this is deliberately generous; memory is bounded by the
// sweep either way.
const inboundTTL = 30 * sim.Minute

// Receiver is the responder-side application: it feeds coded segments
// to a Collector by message ID, acknowledges each (feeding the
// initiator's failure detector), delivers the message once m distinct
// segments rebuilt it (§4.2), and can erasure-code a response back over
// the delivering paths.
type Receiver struct {
	id  netsim.NodeID
	eng *sim.Engine

	onDelivered DeliveredFunc
	ackSegments bool
	hooks       serviceHooks

	tracer obs.Tracer
	m      *worldMetrics

	coll      *Collector
	handles   map[uint64][]onion.ReplyHandle // per message: one per distinct delivering path
	delivered uint64
	badSegs   uint64
}

// bindObs attaches the world's tracer and metrics. Receivers built
// directly (outside NewWorld) run unobserved; every use of tracer and
// m is nil-guarded for that case.
func (r *Receiver) bindObs(t obs.Tracer, m *worldMetrics) {
	r.tracer = t
	r.m = m
}

// serviceHooks is implemented by a Rendezvous attached to this node.
type serviceHooks interface {
	handleRegister(h onion.ReplyHandle, msg registerMsg)
	handleService(h onion.ReplyHandle, msg serviceSegMsg)
}

// setServiceHooks installs the rendezvous handlers.
func (r *Receiver) setServiceHooks(h serviceHooks) { r.hooks = h }

// NewReceiver creates the responder application for a node.
func NewReceiver(id netsim.NodeID, eng *sim.Engine, onDelivered DeliveredFunc) *Receiver {
	r := &Receiver{
		id:          id,
		eng:         eng,
		onDelivered: onDelivered,
		ackSegments: true,
		coll:        NewCollector(inboundTTL),
		handles:     make(map[uint64][]onion.ReplyHandle),
	}
	eng.Every(inboundTTL, inboundTTL, r.sweep)
	return r
}

// Delivered returns the number of reconstructed messages.
func (r *Receiver) Delivered() uint64 { return r.delivered }

// SetOnDelivered replaces the delivery callback.
func (r *Receiver) SetOnDelivered(f DeliveredFunc) { r.onDelivered = f }

func (r *Receiver) sweep() {
	r.coll.Sweep(r.eng.Now())
	for mid := range r.handles {
		if !r.coll.Holds(mid) {
			delete(r.handles, mid)
		}
	}
}

// HandleData is the onion.DataFunc for this node: it decodes an
// application payload and processes segments and probes.
func (r *Receiver) HandleData(h onion.ReplyHandle, plain []byte) {
	msg, err := decodeAppMsg(plain)
	if err != nil {
		r.badSegs++
		return
	}
	switch msg.kind {
	case kindSegment:
	case kindProbe:
		// Probes are acknowledged but never delivered.
		h.Reply(Msg{Kind: kindSegAck, MID: msg.msg.MID, Index: msg.msg.Index}.Encode(), h.Flow)
		return
	case kindCover:
		return
	case kindRegister, kindToService, kindServiceReply:
		if r.hooks == nil {
			r.badSegs++ // service traffic at a node running no rendezvous
		} else if msg.kind == kindRegister {
			r.hooks.handleRegister(h, msg.register)
		} else {
			r.hooks.handleService(h, msg.service)
		}
		return
	default:
		r.badSegs++
		return
	}
	seg := msg.msg
	now := r.eng.Now()
	v, ready, data, err := r.coll.Collect(seg.MID, seg.Needed, seg.Total, seg.Index, seg.Data, now)
	if v == Rejected {
		r.badSegs++
		return
	}
	r.rememberHandle(seg.MID, h)
	if r.ackSegments {
		h.Reply(Msg{Kind: kindSegAck, MID: seg.MID, Index: seg.Index}.Encode(), h.Flow)
	}
	if ready == nil {
		return
	}
	if err != nil {
		r.badSegs++
		return
	}
	r.delivered++
	if r.m != nil {
		r.m.recvDelivered.Inc()
		r.m.reconstructMs.Observe(float64(now-ready.FirstAt) / float64(sim.Millisecond))
	}
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{
			Type: obs.SegmentReconstructed, At: int64(now),
			Node: int(r.id), Peer: -1, ID: seg.MID,
			Seq: int64(len(ready.Segs)), Slot: -1, Hop: -1, Size: len(data),
		})
	}
	if r.onDelivered != nil {
		r.onDelivered(seg.MID, data, now)
	}
}

// rememberHandle keeps one handle per distinct (terminal relay, stream):
// these are the reverse paths a response can use.
func (r *Receiver) rememberHandle(mid uint64, h onion.ReplyHandle) {
	hs := r.handles[mid]
	for _, old := range hs {
		if old.From() == h.From() && old.StreamID() == h.StreamID() {
			return
		}
	}
	r.handles[mid] = append(hs, h)
}

// Respond erasure-codes a response with the same shape as the request
// and sends the segments back over the reverse paths that delivered the
// request, distributed round-robin (§4.2: "sends the message segments
// back over the k paths"). It returns the number of segments sent.
func (r *Receiver) Respond(mid uint64, data []byte, flow *metrics.Flow) (int, error) {
	needed, total, ok := r.coll.Done(mid)
	if !ok {
		return 0, fmt.Errorf("core: no reconstructed message %d to respond to", mid)
	}
	handles := r.handles[mid]
	if len(handles) == 0 {
		return 0, fmt.Errorf("core: no reverse paths for message %d", mid)
	}
	code, err := erasure.New(int(needed), int(total))
	if err != nil {
		return 0, err
	}
	segs, err := code.Split(data)
	if err != nil {
		return 0, err
	}
	sent := 0
	for i, s := range segs {
		h := handles[i%len(handles)]
		msg := Msg{
			Kind:   kindRespSeg,
			MID:    mid,
			Index:  int32(s.Index),
			Total:  total,
			Needed: needed,
			Data:   s.Data,
		}
		if h.Reply(msg.Encode(), flow) {
			sent++
		}
	}
	return sent, nil
}
