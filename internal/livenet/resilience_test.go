package livenet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// silentServer accepts TCP connections and never answers — the shape
// of a blackholed or wedged peer that the initiator's deadlines must
// defend against.
func silentServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn) // read forever, say nothing
				conn.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestBlackholedPeerCannotStallInitiator is the deadline regression
// test: a first relay that accepts connections but never acks must not
// stall ConstructCtx past its context deadline.
func TestBlackholedPeerCannotStallInitiator(t *testing.T) {
	c := startCluster(t, 5, nil)
	silent := silentServer(t)
	// Point node 0's view of relay 1 at the silent server.
	peers := make([]Peer, 5)
	for i := range peers {
		p, err := c.roster.Peer(netsim.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	peers[1].Addr = silent.Addr().String()
	hijacked, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[0].SetRoster(hijacked)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.nodes[0].ConstructCtx(ctx, []netsim.NodeID{1, 2}, 4)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("construction through a silent relay succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("initiator stalled %v past its 2s deadline", elapsed)
	}
}

// TestBlackholeRefusesOutbound checks the fault controller's local
// verdict: a blackholed peer is refused immediately, not after a dial
// timeout.
func TestBlackholeRefusesOutbound(t *testing.T) {
	c := startCluster(t, 4, nil)
	c.nodes[0].BlackholePeer(1, 0)
	start := time.Now()
	_, err := c.nodes[0].Construct([]netsim.NodeID{1}, 3)
	if err == nil {
		t.Fatal("construction through a blackholed peer succeeded")
	}
	if !strings.Contains(err.Error(), "blackholed") {
		t.Fatalf("want blackhole refusal, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("blackhole refusal took %v, want immediate", time.Since(start))
	}
	c.nodes[0].HealPeer(1)
	if _, err := c.nodes[0].Construct([]netsim.NodeID{1}, 3); err != nil {
		t.Fatalf("construction after heal failed: %v", err)
	}
}

// TestFaultHandlerHTTP drives the /debug/fault surface end to end.
func TestFaultHandlerHTTP(t *testing.T) {
	c := startCluster(t, 3, nil)
	srv := httptest.NewServer(c.nodes[0].FaultHandler())
	defer srv.Close()

	post := func(q string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	post("op=blackhole&peer=1")
	post("op=latency&dur=50ms")
	post("op=drop&value=0.25")

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := string(body)
	for _, want := range []string{`"blackholed":[1]`, `"latency_ms":50`, `"drop":0.25`} {
		if !strings.Contains(got, want) {
			t.Errorf("fault status %s missing %s", got, want)
		}
	}
	if !c.nodes[0].flt.blackholed(1) {
		t.Error("peer 1 not blackholed after POST")
	}
	post("op=heal&peer=1")
	post("op=latency&dur=0s")
	post("op=drop&value=0")
	if c.nodes[0].flt.blackholed(1) {
		t.Error("peer 1 still blackholed after heal")
	}

	bad, err := http.Post(srv.URL+"?op=drop&value=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("drop rate 2 accepted with status %d", bad.StatusCode)
	}
}

// repairEnv builds a 12-node cluster — initiator 0, responder 11, four
// 2-relay paths, two spare relays (9, 10) for repair — with a
// repair-enabled session.
func repairEnv(t *testing.T) (*liveSessionEnv, *LiveSession) {
	t.Helper()
	e := newLiveSessionEnv(t, 12, 11)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 11, SessionOptions{
		R:             2,
		AckTimeout:    1500 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Teardown)
	return e, sess
}

// awaitRepair polls until the session is back at full path width.
func awaitRepair(t *testing.T, sess *LiveSession, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if sess.AlivePaths() >= want {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("session stuck at %d alive paths, want %d", sess.AlivePaths(), want)
}

// TestLiveSessionRepairSurvivesFaults is the chaos-oracle's live half
// in-process, table-driven over the fault kinds the live backend
// injects: a session under each fault detects the dead path via
// probe/ack liveness, rebuilds through fresh relays, and keeps
// delivering with zero message loss.
func TestLiveSessionRepairSurvivesFaults(t *testing.T) {
	cases := []struct {
		name   string
		inject func(t *testing.T, e *liveSessionEnv)
	}{
		{
			// A relay process dies outright (the live backend's SIGKILL).
			name: "crash",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[2].Close()
			},
		},
		{
			// The initiator is partitioned from a first-hop relay (the
			// live backend's blackhole).
			name: "partition",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[0].BlackholePeer(3, 0)
				e.c.nodes[3].BlackholePeer(0, 0)
			},
		},
		{
			// A mid-path relay turns pathologically slow — beyond the
			// ack timeout, indistinguishable from dead to §4.5.
			name: "slow-link",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[5].SetFaultLatency(4 * time.Second)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, sess := repairEnv(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// Healthy baseline.
			mid, err := sess.Send([]byte("before the fault"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid); err != nil {
				t.Fatalf("baseline message lost: %v", err)
			}

			tc.inject(t, e)

			// Mid-stream traffic while the detector and repair work.
			mid2, err := sess.Send([]byte("mid-stream through the fault"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid2); err != nil {
				t.Fatalf("mid-fault message lost: %v", err)
			}

			// The probe detector must condemn the path (paths_dead > 0),
			// and repair must then restore full width through the spare
			// relays (repaired > 0).
			reg := e.c.nodes[0].Metrics()
			deadline := time.Now().Add(20 * time.Second)
			for reg.Counter("session.paths_dead").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("detector never condemned the faulted path")
				}
				time.Sleep(100 * time.Millisecond)
			}
			for reg.Counter("live.repair.repaired").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("repair never completed (failed=%d)",
						reg.Counter("live.repair.failed").Value())
				}
				time.Sleep(100 * time.Millisecond)
			}
			awaitRepair(t, sess, 4)

			// Post-repair traffic at full width.
			mid3, err := sess.Send([]byte("after repair"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid3); err != nil {
				t.Fatalf("post-repair message lost: %v", err)
			}
			e.await(t, mid3)
		})
	}
}

// TestLiveSessionRetransmitDeliversWithoutRepair pins the zero-loss
// guarantee of the retransmission layer alone: a message whose first
// round loses a segment to a dead path is completed by retransmitting
// the missing segment over the survivors.
func TestLiveSessionRetransmitDeliversWithoutRepair(t *testing.T) {
	e := newLiveSessionEnv(t, 8, 7)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4},
	}, 7, SessionOptions{
		R:          1, // m = 2 of 2: every segment must arrive
		AckTimeout: time.Second,
		Repair:     true,
		// Long probe interval: this test exercises retransmission, not
		// probing; spare relays 5, 6 exist but repair is incidental.
		ProbeInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Kill a mid-path relay: slot 0's segment will vanish in flight.
	e.c.nodes[2].Close()

	mid, err := sess.Send([]byte("needs every segment"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sess.Await(ctx, mid); err != nil {
		t.Fatalf("message lost despite retransmit budget: %v", err)
	}
	if got := e.await(t, mid); string(got) != "needs every segment" {
		t.Fatalf("delivered %q", got)
	}
	if v := e.c.nodes[0].Metrics().Counter("session.retransmits").Value(); v == 0 {
		t.Error("delivery needed no retransmit — test lost its teeth")
	}
}

// TestDegradedSheddingAndReadyz checks graceful degradation: a session
// below full width marks the node degraded, sheds cover traffic first,
// and /readyz stays 200 while saying so.
func TestDegradedSheddingAndReadyz(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{
		R:             2,
		AckTimeout:    time.Second,
		CoverInterval: 100 * time.Millisecond,
		CoverSize:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Cover flows while healthy.
	deadline := time.Now().Add(10 * time.Second)
	node := e.c.nodes[0]
	for node.Metrics().Counter("live.cover_sent").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cover traffic emitted")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Kill both relays of one path and force the detector's hand.
	e.c.nodes[1].Close()
	e.c.nodes[2].Close()
	mid, _ := sess.Send([]byte("trigger the detector"))
	_ = mid
	for sess.AlivePaths() == 4 {
		if time.Now().After(deadline) {
			t.Fatal("detector never condemned the dead path")
		}
		time.Sleep(100 * time.Millisecond)
	}

	if !sess.Degraded() {
		t.Fatal("session below full width not degraded")
	}
	if h := node.Health(); h.DegradedSessions != 1 {
		t.Fatalf("health degraded_sessions = %d, want 1", h.DegradedSessions)
	}
	if g := node.Metrics().Gauge("live.degraded").Value(); g != 1 {
		t.Fatalf("live.degraded = %v, want 1", g)
	}

	// Cover is shed while degraded.
	shedBefore := node.Metrics().Counter("live.cover_shed").Value()
	deadline = time.Now().Add(10 * time.Second)
	for node.Metrics().Counter("live.cover_shed").Value() == shedBefore {
		if time.Now().After(deadline) {
			t.Fatal("degraded session never shed cover traffic")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /readyz: still 200, but the body says degraded.
	readyCacheTTLSaved := readyCacheTTL
	readyCacheTTL = 0
	defer func() { readyCacheTTL = readyCacheTTLSaved }()
	srv := httptest.NewServer(node.ReadyzHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded node not ready: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz body %q does not surface degradation", body)
	}
}

// TestSendBoundedInflight pins the bounded-queue contract: Send rejects
// work past MaxInflight instead of buffering without limit.
func TestSendBoundedInflight(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2},
	}, 5, SessionOptions{
		R:           1,
		AckTimeout:  30 * time.Second, // nothing resolves during the test
		MaxInflight: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	// Stop acks from resolving messages: blackhole the first relay after
	// construction so sends vanish locally and stay pending.
	e.c.nodes[0].BlackholePeer(1, 0)
	for i := 0; i < 3; i++ {
		if _, err := sess.Send([]byte("fill")); err != nil {
			t.Fatalf("send %d rejected below the bound: %v", i, err)
		}
	}
	if _, err := sess.Send([]byte("overflow")); err == nil {
		t.Fatal("send beyond MaxInflight accepted")
	}
	if v := e.c.nodes[0].Metrics().Counter("session.send_rejected").Value(); v != 1 {
		t.Fatalf("session.send_rejected = %d, want 1", v)
	}
}

// TestSendInflightBoundUnderConcurrency: concurrent senders cannot
// overshoot MaxInflight between the bound check and the insert.
func TestSendInflightBoundUnderConcurrency(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	const bound, senders = 4, 32
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}}, 5, SessionOptions{
		R:           1,
		AckTimeout:  30 * time.Second, // nothing resolves during the test
		MaxInflight: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	e.c.nodes[0].BlackholePeer(1, 0)
	var accepted atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := sess.Send([]byte("race")); err == nil {
				accepted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := accepted.Load(); got != bound {
		t.Fatalf("%d concurrent sends accepted, want exactly MaxInflight=%d", got, bound)
	}
	if v := e.c.nodes[0].Metrics().Counter("session.send_rejected").Value(); v != senders-bound {
		t.Fatalf("session.send_rejected = %d, want %d", v, senders-bound)
	}
}

// settleGoroutines waits up to 5s for the goroutine count to drop to
// at most want (or, for want < 0, to hold still for 200ms), and returns
// the last count seen.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	last, still := -1, 0
	for {
		n := runtime.NumGoroutine()
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
		if (want >= 0 && n <= want) || (want < 0 && still == 10) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// forceRepair condemns a slot and waits for the repair worker to
// rebuild it.
func forceRepair(t *testing.T, s *LiveSession, slot int) {
	t.Helper()
	repaired := s.node.reg.Counter("live.repair.repaired")
	before := repaired.Value()
	s.mu.Lock()
	s.condemnLocked([]int{slot}, obs.ReasonProbeTimeout)
	s.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for repaired.Value() == before {
		if time.Now().After(deadline) {
			t.Fatalf("slot %d never repaired", slot)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionLeavesNoGoroutines: every path's ack reader ends when the
// path is replaced by a repair or the session is torn down.
func TestSessionLeavesNoGoroutines(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	// Build and drop one path over every relay first, so every link the
	// session can use (and its goroutines) exists before the baseline.
	for r := netsim.NodeID(1); r <= 4; r++ {
		p, err := e.c.nodes[0].Construct([]netsim.NodeID{r}, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.Teardown()
	}
	base := settleGoroutines(-1)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}}, 5, SessionOptions{
		R:             1,
		Repair:        true,
		ProbeInterval: time.Hour, // repairs happen only when forced
		AckTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	running := settleGoroutines(-1)
	const repairs = 8
	for i := 0; i < repairs; i++ {
		forceRepair(t, sess, i%2)
	}
	if n := settleGoroutines(running); n-running >= repairs/2 {
		t.Fatalf("goroutines grew from %d to %d over %d repairs", running, n, repairs)
	}
	sess.Teardown()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Teardown, %d before the session", n, base)
	}
}

// TestLiveRepairTracesOnePathRepaired: each repair is one
// path_repaired event carrying the slot, as in simulation — not a
// path_built labelled as a predicted failure.
func TestLiveRepairTracesOnePathRepaired(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}}, 5, SessionOptions{
		R:             1,
		Repair:        true,
		ProbeInterval: time.Hour, // repairs happen only when forced
		AckTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	ring := obs.NewRing(1024)
	defer e.c.nodes[0].AttachTracer(ring)()
	const repairs = 4
	for i := 0; i < repairs; i++ {
		forceRepair(t, sess, i%2)
	}
	counts := map[obs.Type]int{}
	for _, ev := range ring.Events() {
		counts[ev.Type]++
		if ev.Reason == obs.ReasonPredicted {
			t.Errorf("event %v carries the predicted reason", ev.Type)
		}
		if ev.Type == obs.PathRepaired && (ev.Slot < 0 || ev.Slot > 1) {
			t.Errorf("path_repaired for slot %d", ev.Slot)
		}
	}
	if counts[obs.PathRepaired] != repairs || counts[obs.PathBuilt] != 0 {
		t.Fatalf("%d repairs traced %d path_repaired and %d path_built events",
			repairs, counts[obs.PathRepaired], counts[obs.PathBuilt])
	}
}
