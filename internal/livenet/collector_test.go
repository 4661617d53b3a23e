package livenet

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/core"
	"resilientmix/internal/erasure"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// The tests in this file drive one scripted payload sequence through
// the responder of a simulated path (core.Receiver under onion.Responder)
// and of a live loopback path (LiveCollector under Node), then compare
// what each delivered and acknowledged.

// outcome is what a responder made of a script: delivered bytes per
// message ID, and every ack it sent, as "mid/index" in arrival order.
type outcome struct {
	delivered  map[uint64][]byte
	deliveries int
	acks       []string
}

func (o outcome) ackSet() []string {
	s := append([]string(nil), o.acks...)
	sort.Strings(s)
	return s
}

func codedSegments(t *testing.T, m, n int, msg []byte) []erasure.Segment {
	t.Helper()
	code, err := erasure.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := code.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func segPayload(mid uint64, needed, total int, s erasure.Segment) []byte {
	return core.Msg{Kind: core.MsgSegment, MID: mid, Index: int32(s.Index),
		Total: int32(total), Needed: int32(needed), Data: s.Data}.Encode()
}

// simRespond runs the script down a one-relay simulated path to a
// core.Receiver, one payload per virtual 100ms.
func simRespond(t *testing.T, script [][]byte) outcome {
	t.Helper()
	out := outcome{delivered: make(map[uint64][]byte)}
	eng := sim.NewEngine(1)
	topo, err := topology.Uniform(3, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(eng, topo)
	dir, err := onion.NewDirectory(onioncrypt.Null{}, eng.RNG(), 3)
	if err != nil {
		t.Fatal(err)
	}
	recv := core.NewReceiver(2, eng, func(mid uint64, data []byte, _ sim.Time) {
		out.delivered[mid] = data
		out.deliveries++
	})
	var nodes []*onion.Node
	for i := 0; i < 3; i++ {
		cfg := onion.NodeConfig{StateTTL: sim.Minute, ConstructTimeout: 5 * sim.Second}
		switch i {
		case 0:
			cfg.OnReverse = func(_ *onion.Path, _ netsim.NodeID, plain []byte, _ *metrics.Flow) {
				if ack, err := core.DecodeMsg(plain); err == nil && ack.Kind == core.MsgAck {
					out.acks = append(out.acks, fmt.Sprintf("%d/%d", ack.MID, ack.Index))
				}
			}
		case 2:
			cfg.OnData = recv.HandleData
		}
		mux := netsim.NewMux()
		nodes = append(nodes, onion.NewNode(net, netsim.NodeID(i), dir, mux, cfg))
		net.SetHandler(netsim.NodeID(i), mux)
	}
	var flow metrics.Flow
	var path *onion.Path
	if _, err := nodes[0].Initiator.Construct([]netsim.NodeID{1}, 2, &flow, func(p *onion.Path, ok bool) {
		if ok {
			path = p
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Second)
	if path == nil {
		t.Fatal("simulated path not built")
	}
	for _, b := range script {
		if err := nodes[0].Initiator.SendData(path, b, &flow); err != nil {
			t.Fatal(err)
		}
		eng.Run(eng.Now() + 100*sim.Millisecond)
	}
	return out
}

// liveRespond runs the script down a one-relay loopback path to a
// LiveCollector. The node handles frames concurrently, so each payload
// goes out only after the collector returned from the previous one;
// then it waits for the acks the simulated run sent (and a little
// longer, to catch extra ones).
func liveRespond(t *testing.T, script [][]byte, wantAcks int) outcome {
	t.Helper()
	out := outcome{delivered: make(map[uint64][]byte)}
	var mu sync.Mutex
	coll := NewLiveCollector(func(mid uint64, data []byte) {
		mu.Lock()
		out.delivered[mid] = data
		out.deliveries++
		mu.Unlock()
	})
	handled := make(chan struct{}, 1)
	c := startCluster(t, 3, map[int]DataFunc{2: func(h ReplyHandle, data []byte) {
		coll.Handle(h, data)
		handled <- struct{}{}
	}})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Teardown()
	for i, b := range script {
		if err := p.Send(b); err != nil {
			t.Fatal(err)
		}
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatalf("script step %d never reached the collector", i)
		}
	}
	deadline := time.After(10 * time.Second)
	grace := time.After(time.Hour)
	for {
		select {
		case body := <-p.Replies():
			if ack, err := core.DecodeMsg(body); err == nil && ack.Kind == core.MsgAck {
				out.acks = append(out.acks, fmt.Sprintf("%d/%d", ack.MID, ack.Index))
			}
			if len(out.acks) == wantAcks {
				grace = time.After(300 * time.Millisecond)
			}
			continue
		case <-deadline:
		case <-grace:
		}
		break
	}
	mu.Lock()
	defer mu.Unlock()
	return out
}

func TestCollectorSimLiveAgreement(t *testing.T) {
	inOrder := []byte("delivered in order, then repeated")
	a := codedSegments(t, 2, 4, inOrder)
	badIdx := []byte("out-of-range indexes never count")
	b := codedSegments(t, 2, 4, badIdx)
	mixed := []byte("a forged shape must not rebuild this")
	c := codedSegments(t, 2, 4, mixed)
	forged := codedSegments(t, 1, 4, []byte("forged"))
	short := codedSegments(t, 3, 6, []byte("three of six needed, two sent"))
	script := [][]byte{
		// In order, then duplicates before and after delivery.
		segPayload(1, 2, 4, a[0]),
		segPayload(1, 2, 4, a[0]),
		segPayload(1, 2, 4, a[1]),
		segPayload(1, 2, 4, a[1]),
		segPayload(1, 2, 4, a[3]),
		// Out-of-range indexes, then a valid pair.
		core.Msg{Kind: core.MsgSegment, MID: 2, Index: 4, Total: 4, Needed: 2, Data: b[0].Data}.Encode(),
		core.Msg{Kind: core.MsgSegment, MID: 2, Index: -1, Total: 4, Needed: 2, Data: b[0].Data}.Encode(),
		segPayload(2, 2, 4, b[2]),
		segPayload(2, 2, 4, b[3]),
		// Mixed (m,n) for one MID: the first segment fixes 2-of-4.
		segPayload(3, 2, 4, c[0]),
		segPayload(3, 1, 4, forged[1]),
		core.Msg{Kind: core.MsgSegment, MID: 3, Index: 2, Total: 5, Needed: 2, Data: c[2].Data}.Encode(),
		segPayload(3, 2, 4, c[2]),
		// Fewer than m segments.
		segPayload(4, 3, 6, short[0]),
		segPayload(4, 3, 6, short[5]),
		// A probe is acked, cover is not.
		core.Msg{Kind: core.MsgProbe, MID: 99, Index: 0}.Encode(),
		core.Msg{Kind: core.MsgCover, Data: make([]byte, 16)}.Encode(),
	}
	simOut := simRespond(t, script)
	// The script's expectations, checked on the simulator first.
	want := map[uint64][]byte{1: inOrder, 2: badIdx, 3: mixed}
	if simOut.deliveries != len(want) || len(simOut.delivered) != len(want) {
		t.Fatalf("simulator delivered %d messages (%d IDs), want %d", simOut.deliveries, len(simOut.delivered), len(want))
	}
	for mid, msg := range want {
		if !bytes.Equal(simOut.delivered[mid], msg) {
			t.Fatalf("simulator delivered %q for %d, want %q", simOut.delivered[mid], mid, msg)
		}
	}
	// Acked: 5 of message 1, 2 of 2, 2 of 3, 2 of 4, the probe.
	if len(simOut.acks) != 12 {
		t.Fatalf("simulator sent %d acks, want 12: %v", len(simOut.acks), simOut.acks)
	}

	liveOut := liveRespond(t, script, len(simOut.acks))
	if liveOut.deliveries != simOut.deliveries {
		t.Fatalf("live delivered %d messages, simulator %d", liveOut.deliveries, simOut.deliveries)
	}
	for mid, msg := range simOut.delivered {
		if !bytes.Equal(liveOut.delivered[mid], msg) {
			t.Fatalf("message %d: live delivered %q, simulator %q", mid, liveOut.delivered[mid], msg)
		}
	}
	if got, want := fmt.Sprint(liveOut.ackSet()), fmt.Sprint(simOut.ackSet()); got != want {
		t.Fatalf("live acks %s, simulator acks %s", got, want)
	}
}

// TestLiveCollectorRejectsForgedShape: a segment claiming needed=1 for
// a message whose first segment fixed 2-of-4 must not trigger a
// rebuild; the message is delivered intact once a real second segment
// arrives.
func TestLiveCollectorRejectsForgedShape(t *testing.T) {
	msg := []byte("the real message, two of four")
	real := codedSegments(t, 2, 4, msg)
	forged := codedSegments(t, 1, 4, []byte("forged"))
	script := [][]byte{
		segPayload(7, 2, 4, real[0]),
		segPayload(7, 1, 4, forged[1]),
		segPayload(7, 2, 4, real[2]),
	}
	out := liveRespond(t, script, 2)
	if out.deliveries != 1 || !bytes.Equal(out.delivered[7], msg) {
		t.Fatalf("delivered %d times, bytes %q; want once, %q", out.deliveries, out.delivered[7], msg)
	}
	if got := fmt.Sprint(out.ackSet()); got != "[7/0 7/2]" {
		t.Fatalf("acks %s, want [7/0 7/2]", got)
	}
}

// TestLiveCollectorForgetsAfterTTL: once wall time passes the TTL, the
// next input sweeps every partial and delivered message.
func TestLiveCollectorForgetsAfterTTL(t *testing.T) {
	c := startCluster(t, 2, nil)
	key, err := c.nodes[1].cfg.Suite.NewSymKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := ReplyHandle{node: c.nodes[1], sid: 1, relay: 0, key: key}
	clock := sim.Time(1e12)
	coll := NewLiveCollector(nil)
	coll.clock = func() sim.Time { return clock }
	msg := codedSegments(t, 2, 4, []byte("swept"))
	coll.Handle(h, segPayload(1, 2, 4, msg[0])) // partial
	coll.Handle(h, segPayload(2, 2, 4, msg[0]))
	coll.Handle(h, segPayload(2, 2, 4, msg[1])) // delivered
	if n := coll.coll.Len(); n != 2 {
		t.Fatalf("collector holds %d messages, want 2", n)
	}
	clock += collectorTTL
	// A rejected segment still runs the sweep, and needs no reply.
	coll.Handle(ReplyHandle{}, core.Msg{Kind: core.MsgSegment, MID: 3, Index: 9, Total: 4, Needed: 2}.Encode())
	if n := coll.coll.Len(); n != 0 {
		t.Fatalf("collector swept past the TTL holds %d messages", n)
	}
}

// TestLiveCollectorConcurrentHandle: segments of many messages arriving
// on several goroutines at once (as a node hands them over) deliver
// each message exactly once, intact, with decoding outside the lock.
func TestLiveCollectorConcurrentHandle(t *testing.T) {
	c := startCluster(t, 2, nil)
	key, err := c.nodes[1].cfg.Suite.NewSymKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := ReplyHandle{node: c.nodes[1], sid: 1, relay: 0, key: key}
	const msgs, feeders = 16, 4
	var mu sync.Mutex
	got := make(map[uint64][][]byte)
	coll := NewLiveCollector(func(mid uint64, data []byte) {
		mu.Lock()
		got[mid] = append(got[mid], data)
		mu.Unlock()
	})
	want := make(map[uint64][]byte)
	var payloads [][]byte
	for mid := uint64(1); mid <= msgs; mid++ {
		want[mid] = []byte(fmt.Sprintf("message %d, rebuilt from any two of four", mid))
		for _, s := range codedSegments(t, 2, 4, want[mid]) {
			payloads = append(payloads, segPayload(mid, 2, 4, s))
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			// Each feeder walks every segment, from its own offset.
			for i := range payloads {
				coll.Handle(h, payloads[(i+f*5)%len(payloads)])
			}
		}(f)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for mid, msg := range want {
		if len(got[mid]) != 1 || !bytes.Equal(got[mid][0], msg) {
			t.Fatalf("message %d delivered %d times (%q), want once", mid, len(got[mid]), got[mid])
		}
	}
}
