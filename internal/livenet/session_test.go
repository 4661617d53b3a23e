package livenet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/core"
	"resilientmix/internal/netsim"
)

// liveSessionEnv wires a cluster with a collector on the responder.
type liveSessionEnv struct {
	c         *cluster
	mu        sync.Mutex
	delivered map[uint64][]byte
	gotCh     chan uint64
}

func newLiveSessionEnv(t *testing.T, n, responder int) *liveSessionEnv {
	t.Helper()
	e := &liveSessionEnv{delivered: make(map[uint64][]byte), gotCh: make(chan uint64, 16)}
	collector := NewLiveCollector(func(mid uint64, data []byte) {
		e.mu.Lock()
		e.delivered[mid] = data
		e.mu.Unlock()
		e.gotCh <- mid
	})
	e.c = startCluster(t, n, map[int]DataFunc{responder: collector.Handle})
	return e
}

func (e *liveSessionEnv) await(t *testing.T, mid uint64) []byte {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-e.gotCh:
			if got == mid {
				e.mu.Lock()
				defer e.mu.Unlock()
				return e.delivered[mid]
			}
		case <-deadline:
			t.Fatal("delivery timeout")
		}
	}
}

func TestLiveSessionEndToEnd(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{R: 2, AckTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	if sess.AlivePaths() != 4 {
		t.Fatalf("alive paths = %d", sess.AlivePaths())
	}
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("reconstruction mismatch over live SimEra")
	}
}

func TestLiveSessionToleratesPathFailure(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{R: 2, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	// Kill two relays: two of four paths die; k/r = 2 paths still
	// suffice for reconstruction.
	e.c.nodes[2].Close()
	e.c.nodes[4].Close()

	msg := []byte("survives two path failures")
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("reconstruction failed despite tolerated failures")
	}
	// The ack timeout must mark the dead paths.
	time.Sleep(3 * time.Second)
	if alive := sess.AlivePaths(); alive != 2 {
		t.Fatalf("alive paths = %d after two failures, want 2", alive)
	}
	// And the session keeps delivering on the survivors.
	mid2, err := sess.Send([]byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid2); string(got) != "still here" {
		t.Fatalf("second message = %q", got)
	}
}

func TestLiveSessionValidation(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	if _, err := e.c.nodes[0].NewLiveSessionOpts(nil, 5, SessionOptions{R: 2}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}, {3}}, 5, SessionOptions{R: 2}); err == nil {
		t.Error("k not multiple of r accepted")
	}
}

func TestLiveSessionFailsWithoutQuorum(t *testing.T) {
	e := newLiveSessionEnv(t, 8, 7)
	// Kill both relays of both paths: construction cannot reach quorum.
	e.c.nodes[1].Close()
	e.c.nodes[3].Close()
	e.c.nodes[0].cfg.ConstructTimeout = time.Second
	if _, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 7, SessionOptions{R: 1}); err == nil {
		t.Fatal("session without constructable paths accepted")
	}
}

func TestLiveCollectorRejectsGarbage(t *testing.T) {
	c := NewLiveCollector(func(uint64, []byte) {
		panic("garbage delivered")
	})
	// Handle must not panic or deliver on nonsense. The nil-node handle
	// would only be dereferenced by Reply on a well-formed segment, so
	// every one of these inputs must bail before acking.
	for _, b := range [][]byte{nil, {0}, {99, 1, 2}, {core.MsgAck, 0, 0}, {core.MsgCover, 1}} {
		c.Handle(ReplyHandle{}, b)
	}
	// A structurally valid segment with an absurd shape must also bail
	// before the ack (ReplyHandle{} would panic on use).
	bad := core.Msg{Kind: core.MsgSegment, MID: 1, Index: 5, Total: 2, Needed: 1, Data: []byte("x")}
	c.Handle(ReplyHandle{}, bad.Encode())
}

func TestLiveConstructWithData(t *testing.T) {
	got := make(chan []byte, 2)
	onData := map[int]DataFunc{
		4: func(h ReplyHandle, data []byte) {
			got <- data
			h.Reply(append([]byte("re:"), data...))
		},
	}
	c := startCluster(t, 5, onData)
	p, err := c.nodes[0].ConstructWithData([]netsim.NodeID{1, 2, 3}, 4, []byte("first message rides the onion"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "first message rides the onion" {
			t.Fatalf("delivered %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("combined pass never delivered")
	}
	// The reply to the ridden payload comes back on the reverse path.
	select {
	case reply := <-p.Replies():
		if string(reply) != "re:first message rides the onion" {
			t.Fatalf("reply %q", reply)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
	}
	// The path is an ordinary path afterwards.
	if err := p.Send([]byte("second")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "second" {
			t.Fatalf("second delivery %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second message lost")
	}
}

func TestLiveConstructWithDataDeadRelay(t *testing.T) {
	c := startCluster(t, 5, nil)
	c.nodes[2].Close()
	c.nodes[0].cfg.ConstructTimeout = 2 * time.Second
	if _, err := c.nodes[0].ConstructWithData([]netsim.NodeID{1, 2}, 4, []byte("x")); err == nil {
		t.Fatal("combined pass through a dead relay succeeded")
	}
}

// BenchmarkLiveSessionSend measures real-socket SimEra round trips:
// split, 2 paths x 2 relays, TCP, ECIES, reconstruct, ack.
func BenchmarkLiveSessionSend(b *testing.B) {
	gotCh := make(chan uint64, 64)
	collector := NewLiveCollector(func(mid uint64, _ []byte) { gotCh <- mid })
	c := startCluster(b, 6, map[int]DataFunc{5: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 5, SessionOptions{R: 2, AckTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Teardown()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mid, err := sess.Send(msg)
		if err != nil {
			b.Fatal(err)
		}
		for {
			got := <-gotCh
			if got == mid {
				break
			}
		}
	}
}
