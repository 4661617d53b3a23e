package livenet

import (
	"bufio"
	"bytes"
	"testing"
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

// FuzzDecodeLive feeds arbitrary responder payloads to the session's
// application decoder: it must never panic, and every segment, ack or
// probe it accepts must re-encode to the same bytes.
func FuzzDecodeLive(f *testing.F) {
	f.Add(liveSegment{mid: 7, index: 1, total: 4, needed: 2, data: []byte("segment")}.encode())
	f.Add(liveAck{mid: 7, index: 3}.encode())
	f.Add(encodeProbe(liveKindProbe, 42))
	f.Add(encodeProbe(liveKindProbeAck, 42))
	f.Add(encodeCover(make([]byte, 16)))
	f.Add([]byte{liveKindSegment, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, seg, ack, nonce, err := decodeLive(b)
		if err != nil {
			return
		}
		var again []byte
		switch kind {
		case liveKindSegment:
			again = seg.encode()
		case liveKindAck:
			again = ack.encode()
		case liveKindProbe, liveKindProbeAck:
			again = encodeProbe(kind, nonce)
		case liveKindCover:
			return
		default:
			t.Fatalf("decodeLive accepted unknown kind %d", kind)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("kind %d re-encodes to %x, input was %x", kind, again, b)
		}
	})
}
