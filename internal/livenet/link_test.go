package livenet

import (
	"context"
	"crypto/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/wire"
)

// countingSuite counts the asymmetric Open calls made through it.
type countingSuite struct {
	onioncrypt.Suite
	opens atomic.Int64
}

func (s *countingSuite) Open(priv onioncrypt.PrivateKey, ct []byte) ([]byte, error) {
	s.opens.Add(1)
	return s.Suite.Open(priv, ct)
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendAwait sends one message on the session and waits for its ack.
func sendAwait(t *testing.T, sess *LiveSession, data []byte) uint64 {
	t.Helper()
	mid, err := sess.Send(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Await(ctx, mid); err != nil {
		t.Fatalf("message %d not acknowledged: %v", mid, err)
	}
	return mid
}

// linkOpen reports whether node from holds an open link to peer to.
func linkOpen(from *Node, to netsim.NodeID) bool {
	from.linksMu.Lock()
	defer from.linksMu.Unlock()
	l, ok := from.links[to]
	return ok && l.open()
}

// TestLinksReused checks that a session's frames ride persistent links:
// after many messages from concurrent senders every node has dialed
// each peer it talks to at most once.
func TestLinksReused(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 5, SessionOptions{R: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	const senders, perSender = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				mid, err := sess.Send([]byte("reuse the link"))
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err = sess.Await(ctx, mid)
				cancel()
				if err != nil {
					t.Errorf("message %d not acknowledged: %v", mid, err)
					return
				}
			}
		}()
	}
	for got := 0; got < senders*perSender; got++ {
		select {
		case <-e.gotCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages delivered", got, senders*perSender)
		}
	}
	wg.Wait()
	var dials, pairs uint64
	for _, n := range e.c.nodes {
		dials += n.Metrics().Counter("live.links_dialed").Value()
		pairs += uint64(len(n.Metrics().CountersWithPrefix("live.peer_out.")))
	}
	if dials == 0 || dials > pairs {
		t.Fatalf("%d links dialed for %d distinct (node, peer) pairs", dials, pairs)
	}
}

// TestStaleLinkRedial checks that a link the peer closed is redialed
// rather than written into a dead socket: with repair and retransmits
// off, the next message must still arrive.
func TestStaleLinkRedial(t *testing.T) {
	for _, tc := range []struct {
		name      string
		breakLink func(t *testing.T, c *cluster)
	}{
		{"receiver closes its side", func(t *testing.T, c *cluster) {
			// Close every inbound connection of the responder.
			n := c.nodes[2]
			n.linksMu.Lock()
			for conn := range n.conns {
				if conn.LocalAddr().String() == n.Addr() {
					conn.Close()
				}
			}
			n.linksMu.Unlock()
		}},
		{"peer restarts on the same address", func(t *testing.T, c *cluster) {
			c.restart(t, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan uint64, 4)
			collector := NewLiveCollector(func(mid uint64, _ []byte) { got <- mid })
			c := startCluster(t, 3, map[int]DataFunc{2: collector.Handle})
			sess, err := c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1}}, 2, SessionOptions{R: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Teardown()
			awaitDelivery := func(mid uint64) {
				t.Helper()
				select {
				case m := <-got:
					if m != mid {
						t.Fatalf("delivered %d, want %d", m, mid)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("message %d not delivered", mid)
				}
			}
			awaitDelivery(sendAwait(t, sess, []byte("before")))
			if !linkOpen(c.nodes[1], 2) {
				t.Fatal("relay holds no link to the responder after a delivery")
			}
			dialed := c.nodes[1].Metrics().Counter("live.links_dialed").Value()

			tc.breakLink(t, c)
			waitFor(t, 5*time.Second, "the relay to notice the closed link", func() bool {
				return !linkOpen(c.nodes[1], 2)
			})
			awaitDelivery(sendAwait(t, sess, []byte("after")))
			if got := c.nodes[1].Metrics().Counter("live.links_dialed").Value(); got != dialed+1 {
				t.Fatalf("relay dialed %d links after the break, want 1", got-dialed)
			}
		})
	}
}

// TestBlackholeOnEstablishedLink checks that the fault controller
// still refuses frames to a peer whose link is already open.
func TestBlackholeOnEstablishedLink(t *testing.T) {
	done := make(chan []byte, 4)
	c := startCluster(t, 3, map[int]DataFunc{2: func(_ ReplyHandle, data []byte) { done <- data }})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !linkOpen(c.nodes[0], 1) {
		t.Fatal("no link to the first relay after construction")
	}
	c.nodes[0].BlackholePeer(1, 0)
	refused := c.nodes[0].Metrics().Counter("live.fault.refused")
	before := refused.Value()
	dataIn := c.nodes[1].Metrics().Counter("live.frames_in.data").Value()
	if err := p.Send([]byte("refused")); err == nil || !strings.Contains(err.Error(), "blackholed") {
		t.Fatalf("send over a blackholed established link: %v", err)
	}
	if got := refused.Value(); got != before+1 {
		t.Fatalf("live.fault.refused rose by %d, want 1", got-before)
	}
	time.Sleep(50 * time.Millisecond)
	if got := c.nodes[1].Metrics().Counter("live.frames_in.data").Value(); got != dataIn {
		t.Fatal("a blackholed frame reached the relay")
	}

	c.nodes[0].HealPeer(1)
	if err := p.Send([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if string(data) != "healed" {
			t.Fatalf("delivered %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery after heal")
	}
	if got := c.nodes[0].Metrics().Counter("live.links_dialed").Value(); got != 1 {
		t.Fatalf("initiator dialed %d links, want the one link reused", got)
	}
}

// TestCloseWithIdleLinks checks that Close does not wait out the
// inbound idle timeout of open links, and leaves no goroutine behind.
func TestCloseWithIdleLinks(t *testing.T) {
	base := runtime.NumGoroutine()
	done := make(chan struct{}, 1)
	c := startCluster(t, 4, map[int]DataFunc{3: func(ReplyHandle, []byte) { done <- struct{}{} }})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("open every link")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	start := time.Now()
	for _, n := range c.nodes {
		n.Close()
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close with idle links took %v", d)
	}
	waitFor(t, 5*time.Second, "node goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestResponderKeyCache checks that the responder opens a path's sealed
// stream key once, however many segments the path carries, and opens
// it again when the sealed key or the delivering relay changes.
func TestResponderKeyCache(t *testing.T) {
	counting := &countingSuite{Suite: onioncrypt.ECIES{}}
	got := make(chan []byte, 16)
	c := startClusterWith(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			cfg.Suite = counting
			cfg.OnData = func(_ ReplyHandle, data []byte) { got <- data }
		}
	})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() []byte {
		t.Helper()
		select {
		case data := <-got:
			return data
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery")
			return nil
		}
	}
	const segments = 8
	for i := 0; i < segments; i++ {
		if err := p.Send([]byte("segment")); err != nil {
			t.Fatal(err)
		}
		recv()
	}
	if n := counting.opens.Load(); n != 1 {
		t.Fatalf("%d segments on one path cost %d Opens, want 1", segments, n)
	}

	resp := c.nodes[2]
	var sid uint64
	for _, s := range resp.relay.StreamIDs() {
		sid = uint64(s)
	}
	deliver := func(relay netsim.NodeID, sealed []byte, key []byte, data string) {
		t.Helper()
		ct, err := onioncrypt.ECIES{}.SymSeal(rand.Reader, key, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		w := wire.NewWriter()
		w.Bytes32(sealed)
		w.Bytes32(ct)
		resp.handleDeliver(frame{kind: kindDeliver, sid: sid, body: prependSender(relay, w.Bytes())})
		if d := recv(); string(d) != data {
			t.Fatalf("delivered %q, want %q", d, data)
		}
	}
	key, err := onioncrypt.ECIES{}.NewSymKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := onioncrypt.ECIES{}.Seal(rand.Reader, c.roster.Public(2), key)
	if err != nil {
		t.Fatal(err)
	}
	deliver(1, sealed, key, "new sealed key")
	if n := counting.opens.Load(); n != 2 {
		t.Fatalf("a new sealed key on a cached sid made %d Opens in all, want 2", n)
	}
	deliver(1, sealed, key, "cached again")
	deliver(0, sealed, key, "other relay")
	if n := counting.opens.Load(); n != 3 {
		t.Fatalf("a known sealed key from another relay made %d Opens in all, want 3", n)
	}
}

// TestResponderKeysExpire checks that the responder's stream-key cache
// is pruned after StateTTL like relay state, so a long-lived responder
// does not grow without bound.
func TestResponderKeysExpire(t *testing.T) {
	got := make(chan []byte, 1)
	c := startClusterWith(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			cfg.StateTTL = 100 * time.Millisecond
			cfg.OnData = func(_ ReplyHandle, data []byte) { got <- data }
		}
	})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("expire me")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	resp := c.nodes[2]
	keys := func() int { return len(resp.relay.StreamIDs()) }
	if keys() != 1 {
		t.Fatalf("responder caches %d stream keys after one delivery, want 1", keys())
	}
	waitFor(t, 5*time.Second, "the stream key to expire", func() bool { return keys() == 0 })
}
