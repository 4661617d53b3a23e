package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeAppMsg feeds arbitrary bytes to the application-message
// decoder that both the simulator and the live transport parse with:
// hostile or corrupted onion payloads must produce an error or a
// well-formed message, never a panic, and every message it accepts must
// re-encode to exactly the bytes it consumed.
func FuzzDecodeAppMsg(f *testing.F) {
	f.Add(Msg{Kind: kindSegment, MID: 1, Index: 0, Total: 4, Needed: 2, Data: []byte("d")}.Encode())
	f.Add(Msg{Kind: kindSegAck, MID: 2, Index: 1}.Encode())
	f.Add(Msg{Kind: kindRespSeg, MID: 3, Index: 0, Total: 2, Needed: 1, Data: []byte("r")}.Encode())
	f.Add(Msg{Kind: kindProbe, MID: 4, Index: 0}.Encode())
	f.Add(registerMsg{Tag: 5}.encode())
	f.Add(serviceSegMsg{Kind: kindToService, Tag: 6, Conv: 7, Total: 2, Needed: 1, Data: []byte("s")}.encode())
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2, 3})
	f.Add(Msg{Kind: MsgCover, Data: make([]byte, 16)}.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeAppMsg(data)
		if err != nil {
			return
		}
		var again []byte
		switch msg.kind {
		case kindSegment, kindSegAck, kindRespSeg, kindProbe, kindCover:
			again = msg.msg.Encode()
		case kindRegister:
			again = msg.register.encode()
		case kindToService, kindInbound, kindServiceReply:
			again = msg.service.encode()
		default:
			t.Fatalf("decoder accepted unknown kind %d", msg.kind)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("kind %d re-encodes to %x, input was %x", msg.kind, again, data)
		}
	})
}
