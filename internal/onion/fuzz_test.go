package onion

import (
	"math/rand"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/wire"
)

// FuzzParseConstructLayer feeds arbitrary ciphertext to the relay-side
// onion parser: garbage must fail cleanly, never panic or produce a
// layer that violates its invariants.
func FuzzParseConstructLayer(f *testing.F) {
	suite := onioncrypt.Null{}
	eng := sim.NewEngine(1)
	dir, err := NewDirectory(suite, eng.RNG(), 4)
	if err != nil {
		f.Fatal(err)
	}
	keys := [][]byte{make([]byte, onioncrypt.SymKeySize)}
	good, err := BuildConstructOnion(suite, eng.RNG(), dir, []netsim.NodeID{0}, 3, keys)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	priv := dir.Private(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, err := ParseConstructLayer(suite, priv, data)
		if err != nil {
			return
		}
		// Accepted layers must be internally consistent.
		if layer.Terminal != (len(layer.Inner) == 0) {
			t.Fatal("accepted layer violates the terminal/⊥ invariant")
		}
	})
}

// FuzzResponderBlob exercises the delivery-side parsers the responder
// runs on network input.
func FuzzResponderBlob(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sealed, ct, err := ParseResponderBlob(data); err == nil {
			if len(sealed)+len(ct) > len(data) {
				t.Fatal("parsed parts exceed input")
			}
		}
		if _, blob, err := ParseTerminalPayload(data); err == nil {
			if len(blob) > len(data) {
				t.Fatal("parsed blob exceeds input")
			}
		}
	})
}

// FuzzRelayMachine feeds arbitrary frame sequences to one relay
// machine. Each record is kind | from | sid | len | len bytes; a
// construct-data record's first byte splits its onion from its payload,
// and a sid with the top bit set names a stream ID the machine itself
// emitted, so acks, payloads and replies can reach installed state. The
// clock advances one unit per record against a TTL of ten. No sequence
// may panic, and the machine may never hold more path states than
// construction frames it accepted.
func FuzzRelayMachine(f *testing.F) {
	suite := onioncrypt.Null{}
	rng := rand.New(rand.NewSource(1))
	dir, err := NewDirectory(suite, rng, 4)
	if err != nil {
		f.Fatal(err)
	}
	priv := dir.Private(0)
	key := make([]byte, onioncrypt.SymKeySize)
	terminal, err := BuildConstructOnion(suite, rng, dir, []netsim.NodeID{0}, 3, [][]byte{key})
	if err != nil {
		f.Fatal(err)
	}
	middle, err := BuildConstructOnion(suite, rng, dir, []netsim.NodeID{0, 2}, 3, [][]byte{key, key})
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := suite.Seal(rng, dir.Public(3), key)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := BuildPayloadOnion(suite, rng, [][]byte{key}, 3, key, sealed, []byte("x"))
	if err != nil {
		f.Fatal(err)
	}
	// A responder blob for the machine's own key, as a terminal relay
	// delivers it.
	sealedToUs, err := suite.Seal(rng, dir.Public(0), key)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := suite.SymSeal(rng, key, []byte("x"))
	if err != nil {
		f.Fatal(err)
	}
	w := wire.NewWriter()
	w.Bytes32(sealedToUs)
	w.Bytes32(ct)
	blob := w.Bytes()
	record := func(kind Kind, sid byte, body ...[]byte) []byte {
		var b []byte
		for _, part := range body {
			b = append(b, part...)
		}
		return append([]byte{byte(kind), 1, sid, byte(len(b))}, b...)
	}
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	f.Add(cat(
		record(KindConstruct, 5, terminal),
		record(KindData, 5, payload),
		record(KindReverse, 0x81, []byte("reply")),
		record(KindAck, 0x81),
	))
	f.Add(cat(
		record(KindConstruct, 5, middle),
		record(KindConstructData, 6, []byte{byte(len(terminal))}, terminal, payload),
		record(KindAck, 0x81),
		record(KindDeliver, 7, blob),
		record(KindDeliver, 7, blob),
	))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMachine(suite, priv, 10, rand.New(rand.NewSource(2)))
		var emitted []StreamID
		accepted := 0
		for now := sim.Time(0); len(data) >= 4; now++ {
			kind, from, sid := Kind(data[0]%7), netsim.NodeID(data[1]%4), StreamID(data[2])
			if data[2]&0x80 != 0 && len(emitted) > 0 {
				sid = emitted[int(data[2]&0x7f)%len(emitted)]
			}
			n := int(data[3])
			data = data[4:]
			if n > len(data) {
				n = len(data)
			}
			body := data[:n]
			data = data[n:]
			var s Step
			switch kind {
			case KindConstruct:
				if _, err := ParseConstructLayer(suite, priv, body); err == nil {
					accepted++
				}
				s = m.Construct(from, sid, body, now)
			case KindConstructData:
				var onion []byte
				if len(body) > 0 {
					cut := 1 + int(body[0])
					if cut > len(body) {
						cut = len(body)
					}
					onion, body = body[1:cut], body[cut:]
				}
				if layer, err := ParseConstructLayer(suite, priv, onion); err == nil {
					if _, err := suite.SymOpen(layer.Key, body); err == nil {
						accepted++
					}
				}
				s = m.ConstructData(from, sid, onion, body, now)
			case KindAck:
				s = m.Ack(sid, now)
			case KindData:
				s = m.Data(sid, body, now)
			case KindReverse:
				s = m.Reverse(sid, body, now)
			case KindDeliver:
				m.Deliver(from, sid, body, now)
			}
			for i := 0; i < s.N; i++ {
				emitted = append(emitted, s.Frames[i].SID)
			}
			if fwd, rev := m.PathStates(); fwd > accepted || rev > accepted {
				t.Fatalf("%d forward and %d reverse states after %d accepted constructions", fwd, rev, accepted)
			}
		}
	})
}
