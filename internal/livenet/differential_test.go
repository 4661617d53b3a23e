package livenet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/core"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// diffOutcome is what one run of the differential scenario reports.
type diffOutcome struct {
	delivered, lost int // initiator verdicts
	received        int // responder deliveries
	repairs         int
}

const (
	diffNodes     = 12 // initiator 0, responder 11, 8 relays in use, 2 spares
	diffResponder = 11
	diffMessages  = 12
)

// simDiffRun establishes a k=4, r=2, L=2 SimEra session in simulation
// with repair on, takes down the second relay of slot 0, sends the
// messages, and returns the outcome with the relay lists the session
// stood on before the fault.
func simDiffRun(t *testing.T) (diffOutcome, [][]netsim.NodeID) {
	t.Helper()
	w, err := core.NewWorld(core.WorldConfig{N: diffNodes, Seed: 7, UniformRTT: 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.NewSession(0, diffResponder, core.Params{
		Protocol: core.SimEra, K: 4, R: 2, L: 2, AckTimeout: 1500 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	s.OnEstablished = func(o bool, _ int) { ok = o }
	s.Establish()
	w.Run(w.Eng.Now() + 10*sim.Second)
	if !ok || s.AlivePaths() != 4 {
		t.Fatalf("simulated establishment: ok=%v, %d paths", ok, s.AlivePaths())
	}
	var relayLists [][]netsim.NodeID
	for i := 0; i < 4; i++ {
		relayLists = append(relayLists, s.PathRelays(i))
	}
	var out diffOutcome
	w.Receivers[diffResponder].SetOnDelivered(func(uint64, []byte, sim.Time) { out.received++ })
	s.EnableRepair(200 * sim.Millisecond)
	w.Net.SetUp(relayLists[0][1], false) // a crash
	for i := 0; i < diffMessages; i++ {
		if _, err := s.SendMessage(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		w.Run(w.Eng.Now() + sim.Second)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	st := s.Stats()
	out.delivered, out.lost, out.repairs = st.MessagesDelivered, st.MessagesLost, st.PathsReplaced
	return out, relayLists
}

// liveDiffRun runs the same scenario over loopback sockets through the
// same relay lists; the fault is a blackhole isolating the same relay
// from every other node.
func liveDiffRun(t *testing.T, relayLists [][]netsim.NodeID) diffOutcome {
	t.Helper()
	var received atomic.Int64
	collector := NewLiveCollector(func(uint64, []byte) { received.Add(1) })
	c := startCluster(t, diffNodes, map[int]DataFunc{diffResponder: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts(relayLists, diffResponder, SessionOptions{
		R: 2, AckTimeout: 1500 * time.Millisecond, Repair: true, ProbeInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	victim := relayLists[0][1]
	for i, n := range c.nodes {
		if id := netsim.NodeID(i); id != victim {
			n.BlackholePeer(victim, 0)
			c.nodes[victim].BlackholePeer(id, 0)
		}
	}
	var out diffOutcome
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < diffMessages; i++ {
		mid, err := sess.Send(make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		switch err := sess.Await(ctx, mid); {
		case err == nil:
			out.delivered++
		case errors.Is(err, errMessageLost):
			out.lost++
		default:
			t.Fatal(err)
		}
	}
	repaired := c.nodes[0].Metrics().Counter("live.repair.repaired")
	deadline := time.Now().Add(10 * time.Second)
	for (repaired.Value() == 0 || sess.AlivePaths() < 4) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	out.received = int(received.Load())
	out.repairs = int(repaired.Value())
	return out
}

// TestSessionSimLiveAgreement is the sim↔live differential test: the
// same session shape, relay lists and fault run once on the simulator
// and once over sockets, through the one initiator machine, and must
// agree on every message's fate and on the repair count.
func TestSessionSimLiveAgreement(t *testing.T) {
	simOut, relayLists := simDiffRun(t)
	liveOut := liveDiffRun(t, relayLists)
	want := diffOutcome{delivered: diffMessages, received: diffMessages, repairs: 1}
	if simOut != want {
		t.Errorf("simulation: %+v, want %+v", simOut, want)
	}
	if liveOut != simOut {
		t.Errorf("sockets: %+v, simulation: %+v", liveOut, simOut)
	}
}
