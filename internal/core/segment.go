package core

import (
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/wire"
)

// Application-layer message kinds carried inside the onions.
const (
	kindSegment byte = 1 // initiator → responder: one coded segment
	kindSegAck  byte = 2 // responder → initiator: segment received
	kindRespSeg byte = 3 // responder → initiator: one coded response segment
	kindProbe   byte = 4 // initiator → responder: path liveness probe

	// Mutual-anonymity kinds (§3's "additional level of redirection"):
	// both endpoints hide behind their own onion paths to a rendezvous
	// node that glues the two path sets together.
	kindRegister     byte = 5 // hidden responder → rendezvous: register a service tag
	kindToService    byte = 6 // initiator → rendezvous: coded segment for a tag
	kindInbound      byte = 7 // rendezvous → either endpoint (reverse path): forwarded segment
	kindServiceReply byte = 8 // hidden responder → rendezvous: coded reply segment

	// kindCover is sheddable cover padding (§4.6) on a live session:
	// the responder counts and discards it.
	kindCover byte = 9
)

// Msg is one application message of the kinds keyed by a message ID.
// Its Kind selects the meaningful fields:
//   - kindSegment (MsgSegment): one coded message segment (§4.2): the
//     message ID that lets the responder correlate segments, the
//     segment's Index, the code shape (Total = n, Needed = m) needed to
//     rebuild the decoder, and the coded bytes in Data.
//   - kindRespSeg: one coded segment of a response, correlated to the
//     request by MID; fields as for a segment.
//   - kindSegAck (MsgAck): acknowledges segment Index of MID (§4.5's
//     end-to-end acks), or echoes a probe.
//   - kindProbe (MsgProbe): a per-path liveness probe; MID names the
//     probe round and Index the probed path slot. The responder acknowledges it
//     like a segment but never delivers anything to the application.
//     Probes double as the §4.3 path-refreshing messages ("the payload
//     messages can serve the purpose of refreshing messages").
//   - kindCover (MsgCover): cover padding in Data.
//
// The socket transport (livenet) speaks the same messages through the
// exported kinds, Encode and DecodeMsg.
type Msg struct {
	Kind                 byte
	MID                  uint64
	Index, Total, Needed int32
	Data                 []byte
}

// The kinds a Msg carries on a live session.
const (
	MsgSegment = kindSegment
	MsgAck     = kindSegAck
	MsgProbe   = kindProbe
	MsgCover   = kindCover
)

// Encode returns the message's wire form; nil for a kind Msg does not
// carry.
func (m Msg) Encode() []byte {
	w := wire.NewWriter()
	w.Byte(m.Kind)
	switch m.Kind {
	case kindSegment, kindRespSeg:
		w.Uint64(m.MID)
		w.Int32(m.Index)
		w.Int32(m.Total)
		w.Int32(m.Needed)
		w.Bytes32(m.Data)
	case kindSegAck, kindProbe:
		w.Uint64(m.MID)
		w.Int32(m.Index)
	case kindCover:
		w.Bytes32(m.Data)
	default:
		return nil
	}
	return w.Bytes()
}

// segmentWireOverhead is the encoding overhead of a segment beyond its
// data bytes.
const segmentWireOverhead = 1 + 8 + 4 + 4 + 4 + 4

// registerMsg announces a hidden service at a rendezvous node. Each
// copy arriving over a distinct path gives the rendezvous one reverse
// handle toward the (anonymous) service.
type registerMsg struct {
	Tag uint64
}

func (r registerMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(kindRegister)
	w.Uint64(r.Tag)
	return w.Bytes()
}

// serviceSegMsg is one coded segment traveling initiator → rendezvous
// (kindToService), rendezvous → endpoint (kindInbound), or hidden
// responder → rendezvous (kindServiceReply). Conv correlates the
// conversation across the two path sets; Tag routes kindToService.
type serviceSegMsg struct {
	Kind   byte
	Tag    uint64 // kindToService only
	Conv   uint64
	Index  int32
	Total  int32
	Needed int32
	Data   []byte
}

func (s serviceSegMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(s.Kind)
	w.Uint64(s.Tag)
	w.Uint64(s.Conv)
	w.Int32(s.Index)
	w.Int32(s.Total)
	w.Int32(s.Needed)
	w.Bytes32(s.Data)
	return w.Bytes()
}

// appMsg is the decoded union of the application message kinds.
type appMsg struct {
	kind     byte
	msg      Msg // segment, response segment, ack, probe or cover
	register registerMsg
	service  serviceSegMsg
}

// decodeAppMsg parses an application payload.
func decodeAppMsg(b []byte) (appMsg, error) {
	rd := wire.NewReader(b)
	kind := rd.Byte()
	var m appMsg
	m.kind = kind
	switch kind {
	case kindSegment, kindRespSeg:
		m.msg = Msg{Kind: kind, MID: rd.Uint64(), Index: rd.Int32(), Total: rd.Int32(), Needed: rd.Int32()}
		m.msg.Data = append([]byte(nil), rd.Bytes32()...)
	case kindSegAck, kindProbe:
		m.msg = Msg{Kind: kind, MID: rd.Uint64(), Index: rd.Int32()}
	case kindCover:
		m.msg = Msg{Kind: kind, Data: rd.Bytes32()}
	case kindRegister:
		m.register = registerMsg{Tag: rd.Uint64()}
	case kindToService, kindInbound, kindServiceReply:
		m.service = serviceSegMsg{
			Kind:   kind,
			Tag:    rd.Uint64(),
			Conv:   rd.Uint64(),
			Index:  rd.Int32(),
			Total:  rd.Int32(),
			Needed: rd.Int32(),
		}
		m.service.Data = append([]byte(nil), rd.Bytes32()...)
	default:
		return appMsg{}, fmt.Errorf("core: unknown application message kind %d", kind)
	}
	if err := rd.Done(); err != nil {
		return appMsg{}, fmt.Errorf("core: malformed application message: %w", err)
	}
	return m, nil
}

// validCodeShape checks advertised code dimensions before building a
// decoder from untrusted input.
func validCodeShape(needed, total int32) bool {
	return needed >= 1 && total >= needed && total <= int32(erasure.MaxSegments)
}

// DecodeMsg parses a segment, response segment, ack, probe or cover
// message; the rendezvous kinds are an error.
func DecodeMsg(b []byte) (Msg, error) {
	am, err := decodeAppMsg(b)
	if err == nil && am.msg.Kind == 0 {
		err = fmt.Errorf("core: message kind %d has no Msg form", am.kind)
	}
	return am.msg, err
}
