package livenet

import (
	"bufio"
	"bytes"
	"testing"

	"resilientmix/internal/core"
)

// FuzzReadFrame reads an arbitrary byte stream frame after frame, as a
// persistent inbound link does. It must never panic, never hand out a
// frame larger than maxFrameSize, and every frame it accepts must
// re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	for _, fr := range []frame{
		{kind: kindConstruct, sid: 1, body: []byte{0, 0, 0, 7, 1, 2, 3}},
		{kind: kindAck, sid: 2},
		{kind: kindData, sid: 3, body: bytes.Repeat([]byte{0xab}, 300)},
		{kind: kindDeliver, sid: 4, body: []byte("deliver")},
	} {
		writeFrame(&seed, fr)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 2})
	f.Add([]byte{0, 0, 0, 9, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var again bytes.Buffer
		for {
			fr, err := readFrame(br)
			if err != nil {
				break
			}
			if 9+cap(fr.body) > maxFrameSize {
				t.Fatalf("frame of %d bytes exceeds maxFrameSize", 9+cap(fr.body))
			}
			writeFrame(&again, fr)
		}
		if !bytes.HasPrefix(stream, again.Bytes()) {
			t.Fatal("accepted frames do not re-encode to the consumed bytes")
		}
	})
}

// FuzzDecodeLive feeds arbitrary responder payloads to the decoder the
// live collector and the session's ack loop parse with: it must never
// panic, and every message it accepts must re-encode to the same bytes.
func FuzzDecodeLive(f *testing.F) {
	f.Add(core.Msg{Kind: core.MsgSegment, MID: 7, Index: 1, Total: 4, Needed: 2, Data: []byte("segment")}.Encode())
	f.Add(core.Msg{Kind: core.MsgAck, MID: 7, Index: 3}.Encode())
	f.Add(core.Msg{Kind: core.MsgProbe, MID: 42, Index: 1}.Encode())
	f.Add(core.Msg{Kind: core.MsgAck, MID: 42, Index: 1}.Encode())
	f.Add(core.Msg{Kind: core.MsgCover, Data: make([]byte, 16)}.Encode())
	f.Add([]byte{core.MsgSegment, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := core.DecodeMsg(b)
		if err != nil {
			return
		}
		if again := msg.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("kind %d re-encodes to %x, input was %x", msg.Kind, again, b)
		}
	})
}
