package onion

import (
	"math/rand"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/wire"
)

var bothSuites = []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}}

// countingSuite counts the asymmetric Open calls made through it.
type countingSuite struct {
	onioncrypt.Suite
	opens int
}

func (s *countingSuite) Open(priv onioncrypt.PrivateKey, ct []byte) ([]byte, error) {
	s.opens++
	return s.Suite.Open(priv, ct)
}

// machineFixture is one relay machine (node 1) with a key directory and
// helpers that build the onions an initiator (node 0) would send it.
type machineFixture struct {
	t     *testing.T
	suite onioncrypt.Suite
	rng   *rand.Rand
	dir   *Directory
	m     *Machine
}

const fixtureTTL = 10 * sim.Second

func newMachineFixture(t *testing.T, suite onioncrypt.Suite) *machineFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dir, err := NewDirectory(suite, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	return &machineFixture{t: t, suite: suite, rng: rng, dir: dir,
		m: NewMachine(suite, dir.Private(1), fixtureTTL, rng)}
}

// symKey draws a fresh symmetric key.
func (f *machineFixture) symKey() []byte {
	f.t.Helper()
	k, err := f.suite.NewSymKey(f.rng)
	if err != nil {
		f.t.Fatal(err)
	}
	return k
}

// construct installs a one-relay path 0 -> 1 -> responder on stream
// sid and returns its hop key.
func (f *machineFixture) construct(sid StreamID, responder netsim.NodeID, now sim.Time) []byte {
	f.t.Helper()
	key := f.symKey()
	o, err := BuildConstructOnion(f.suite, f.rng, f.dir, []netsim.NodeID{1}, responder, [][]byte{key})
	if err != nil {
		f.t.Fatal(err)
	}
	s := f.m.Construct(0, sid, o, now)
	if s.Drop != obs.ReasonNone || s.N != 1 || s.Frames[0].Kind != KindAck || s.Frames[0].To != 0 || s.Frames[0].SID != sid {
		f.t.Fatalf("terminal construct step = %+v, want one ack to 0 on %d", s, sid)
	}
	return key
}

// payload builds the payload onion for a one-relay path with hop key
// key, addressed to dest.
func (f *machineFixture) payload(key []byte, dest netsim.NodeID, plain string) []byte {
	f.t.Helper()
	respKey := f.symKey()
	sealed, err := f.suite.Seal(f.rng, f.dir.Public(dest), respKey)
	if err != nil {
		f.t.Fatal(err)
	}
	body, err := BuildPayloadOnion(f.suite, f.rng, [][]byte{key}, dest, respKey, sealed, []byte(plain))
	if err != nil {
		f.t.Fatal(err)
	}
	return body
}

// deliverTo strips the terminal layer and returns the delivery frame.
func (f *machineFixture) deliverTo(sid StreamID, key []byte, dest netsim.NodeID, now sim.Time) Frame {
	f.t.Helper()
	s := f.m.Data(sid, f.payload(key, dest, "x"), now)
	if s.Drop != obs.ReasonNone || s.N != 1 || s.Frames[0].Kind != KindDeliver || s.Frames[0].To != dest {
		f.t.Fatalf("terminal data step = %+v, want one delivery to %d", s, dest)
	}
	return s.Frames[0]
}

// TestMachineRebind checks §4.4 path reuse at the terminal relay: a new
// destination draws a fresh downstream stream ID and retires the old
// reverse entry, so replies route only on the new one.
func TestMachineRebind(t *testing.T) {
	for _, suite := range bothSuites {
		t.Run(suite.Name(), func(t *testing.T) {
			f := newMachineFixture(t, suite)
			key := f.construct(100, 7, 0)
			first := f.deliverTo(100, key, 7, 0)
			if again := f.deliverTo(100, key, 7, 0); again.SID != first.SID {
				t.Fatalf("same responder moved the stream from %d to %d", first.SID, again.SID)
			}
			moved := f.deliverTo(100, key, 9, 0)
			if moved.SID == first.SID {
				t.Fatal("rebind to a new responder kept the old downstream stream ID")
			}
			if fwd, rev := f.m.PathStates(); fwd != 1 || rev != 1 {
				t.Fatalf("after rebind: %d forward, %d reverse states, want 1, 1", fwd, rev)
			}
			if s := f.m.Reverse(first.SID, []byte("late"), 0); s.Drop != obs.ReasonNoState || s.N != 0 {
				t.Fatalf("reply on the retired stream: step %+v, want a no-state drop", s)
			}
			s := f.m.Reverse(moved.SID, []byte("reply"), 0)
			if s.Drop != obs.ReasonNone || s.N != 1 || s.Frames[0].Kind != KindReverse || s.Frames[0].To != 0 || s.Frames[0].SID != 100 {
				t.Fatalf("reply on the rebound stream: step %+v, want a reverse frame to 0 on 100", s)
			}
			if pt, err := suite.SymOpen(key, s.Frames[0].Body); err != nil || string(pt) != "reply" {
				t.Fatalf("reverse layer opens to %q, %v", pt, err)
			}
			if st := f.m.Stats(); st.Delivered != 3 || st.ReverseHops != 1 || st.DroppedNoSID != 1 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestMachineExpiredState checks that acks, payloads and replies over
// state whose TTL ran out are dropped even before a sweep reclaims it,
// and that only a successful layer operation refreshes the TTL.
func TestMachineExpiredState(t *testing.T) {
	for _, suite := range bothSuites {
		t.Run(suite.Name(), func(t *testing.T) {
			f := newMachineFixture(t, suite)
			key := f.construct(100, 7, 0)
			down := f.deliverTo(100, key, 7, 0).SID
			if s := f.m.Data(100, []byte("garbage"), fixtureTTL/2); s.Drop != obs.ReasonBadLayer {
				t.Fatalf("undecryptable payload: step %+v, want a bad-layer drop", s)
			}
			expired := fixtureTTL
			if s := f.m.Ack(down, expired); s.Drop != obs.ReasonNoState || s.N != 0 {
				t.Fatalf("ack over expired state: step %+v, want a no-state drop", s)
			}
			if s := f.m.Data(100, f.payload(key, 7, "x"), expired); s.Drop != obs.ReasonNoState {
				t.Fatalf("payload over expired state: step %+v, want a no-state drop", s)
			}
			if fwd, rev := f.m.PathStates(); fwd != 0 || rev != 0 {
				t.Fatalf("expired lookups left %d forward, %d reverse states", fwd, rev)
			}
		})
	}
}

// TestMachineSweepAndWipe checks that the TTL sweep and a node failure
// each clear the forward, reverse and responder maps.
func TestMachineSweepAndWipe(t *testing.T) {
	for _, suite := range bothSuites {
		t.Run(suite.Name(), func(t *testing.T) {
			for _, clear := range []string{"sweep", "wipe"} {
				f := newMachineFixture(t, suite)
				resp := NewMachine(suite, f.dir.Private(7), fixtureTTL, f.rng)
				for sid := StreamID(1); sid <= 3; sid++ {
					key := f.construct(sid, 7, 0)
					d := f.deliverTo(sid, key, 7, 0)
					if _, _, drop := resp.Deliver(1, d.SID, d.Body, 0); drop != obs.ReasonNone {
						t.Fatalf("responder dropped a delivery: %v", drop)
					}
				}
				if fwd, rev := f.m.PathStates(); fwd != 3 || rev != 3 || len(resp.StreamIDs()) != 3 {
					t.Fatalf("%d forward, %d reverse, %d responder streams, want 3 each", fwd, rev, len(resp.StreamIDs()))
				}
				if clear == "sweep" {
					f.m.Sweep(fixtureTTL - 1)
					if fwd, _ := f.m.PathStates(); fwd != 3 {
						t.Fatal("sweep reclaimed live state")
					}
					f.m.Sweep(fixtureTTL)
					resp.Sweep(fixtureTTL)
				} else {
					f.m.Wipe()
					resp.Wipe()
				}
				if fwd, rev := f.m.PathStates(); fwd != 0 || rev != 0 || len(resp.StreamIDs()) != 0 {
					t.Fatalf("after %s: %d forward, %d reverse, %d responder streams", clear, fwd, rev, len(resp.StreamIDs()))
				}
				st := f.m.Stats()
				if clear == "sweep" && st.Expired != 3 || clear == "wipe" && st.Wiped != 3 {
					t.Fatalf("after %s: stats %+v", clear, st)
				}
			}
		})
	}
}

// TestResponderOpensOncePerStream checks the simulator's responder key
// cache: N deliveries on one stream cost one Open, and a new sealed key
// or another terminal relay on that stream is opened afresh.
func TestResponderOpensOncePerStream(t *testing.T) {
	for _, suite := range bothSuites {
		t.Run(suite.Name(), func(t *testing.T) {
			counting := &countingSuite{Suite: suite}
			e := newEnv(t, 10, counting, 11)
			p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
			if !ok {
				t.Fatal("construction failed")
			}
			base := counting.opens
			const n = 6
			for i := 0; i < n; i++ {
				if err := e.nodes[0].Initiator.SendData(p, []byte("segment"), nil); err != nil {
					t.Fatal(err)
				}
			}
			e.eng.Run(e.eng.Now() + 10*sim.Second)
			if len(e.received) != n {
				t.Fatalf("responder received %d of %d payloads", len(e.received), n)
			}
			if got := counting.opens - base; got != 1 {
				t.Fatalf("%d deliveries on one stream cost %d Opens, want 1", n, got)
			}

			sids := e.nodes[7].Responder.StreamIDs()
			if len(sids) != 1 {
				t.Fatalf("responder holds %d streams, want 1", len(sids))
			}
			rng := e.eng.RNG()
			key, err := suite.NewSymKey(rng)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := suite.Seal(rng, e.dir.Public(7), key)
			if err != nil {
				t.Fatal(err)
			}
			deliver := func(relay netsim.NodeID, want int) {
				t.Helper()
				ct, err := suite.SymSeal(rng, key, []byte("injected"))
				if err != nil {
					t.Fatal(err)
				}
				w := wire.NewWriter()
				w.Bytes32(sealed)
				w.Bytes32(ct)
				got := len(e.received)
				e.net.Send(relay, 7, netsim.Message{Payload: DeliverMsg{SID: sids[0], Body: w.Bytes()}, Size: 64})
				e.eng.Run(e.eng.Now() + 5*sim.Second)
				if len(e.received) != got+1 {
					t.Fatal("injected delivery was not received")
				}
				if counting.opens-base != want {
					t.Fatalf("after a delivery from relay %d: %d Opens in all, want %d", relay, counting.opens-base, want)
				}
			}
			deliver(4, 2) // new sealed key on the cached stream
			deliver(4, 2) // cached again
			deliver(5, 3) // same sealed key through another relay
		})
	}
}
