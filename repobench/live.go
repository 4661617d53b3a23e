package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientmix/internal/erasure"
	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// The live chain every live workload runs: one initiator (node 0), one
// responder (node 1) and liveRelays relays, all in this process on the
// loopback interface. The session has livePaths node-disjoint paths of
// liveHops relays each, drawn from the relays by the seed, and a
// (livePaths/liveR)-of-livePaths code; the relays left over are the
// spares repair rebuilds paths through.
const (
	liveRelays = 18
	livePaths  = 4
	liveHops   = 3
	liveR      = 2
	// liveSetups is how many times a run builds the whole chain, half
	// before the measured window (the last of those carries the traffic)
	// and half after it; setup_s is their median. Building at both ends
	// samples the host twice, 20 s apart, where its speed may differ.
	liveSetups = 40
	// liveBatch is the unit wall_s times: this many confirmed messages.
	liveBatch = 256
	// payloadPool payloads are drawn from the seed up front; each message
	// copies one and stamps its sequence number into the first 8 bytes.
	payloadPool = 16
	// awaitTimeout bounds one message's wait for its verdict.
	awaitTimeout = 10 * time.Second
	// deliverGrace is how long after the last verdict an acked message
	// may still reach the responder before it counts as never delivered.
	deliverGrace = 2 * time.Second
)

// Churn schedule: one fault per churnPeriod, starting churnLead into
// the measured window, each onset delayed by up to churnJitter and
// isolating the chosen relay for churnDown. activeLookback is the
// window in which a relay must have forwarded data to count as on a
// live path.
const (
	churnLead      = time.Second
	churnPeriod    = 2 * time.Second
	churnJitter    = 400 * time.Millisecond
	churnDown      = 1200 * time.Millisecond
	activeLookback = 400 * time.Millisecond
)

// liveSpec is what differs between the live workloads.
type liveSpec struct {
	payload int
	churn   bool
}

// sessionOptions are the session settings: repair with a short ack
// timeout and probe interval under churn, the plain erasure-coded
// session otherwise.
func (s liveSpec) sessionOptions() livenet.SessionOptions {
	if !s.churn {
		return livenet.SessionOptions{R: liveR}
	}
	return livenet.SessionOptions{
		R:             liveR,
		Repair:        true,
		AckTimeout:    250 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
	}
}

// chain is one built live chain.
type chain struct {
	nodes []*livenet.Node
	sess  *livenet.LiveSession
}

func (c *chain) close() {
	if c.sess != nil {
		c.sess.Teardown()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

// buildChain generates keys, starts every node and constructs the
// session: the work setup_s times.
func buildChain(suite onioncrypt.Suite, relayLists [][]netsim.NodeID, opts livenet.SessionOptions, onData livenet.DataFunc) (*chain, error) {
	n := 2 + liveRelays
	keys := make([]onioncrypt.KeyPair, n)
	peers := make([]livenet.Peer, n)
	for i := range keys {
		kp, err := suite.GenerateKeyPair(rand.Reader)
		if err != nil {
			return nil, err
		}
		keys[i] = kp
		peers[i] = livenet.Peer{ID: netsim.NodeID(i), Addr: "pending", Public: kp.Public}
	}
	// Listeners bind ephemeral ports first; the final roster carries the
	// real addresses.
	prov, err := livenet.NewRoster(peers)
	if err != nil {
		return nil, err
	}
	c := &chain{}
	for i := range keys {
		cfg := livenet.Config{
			ID: netsim.NodeID(i), Roster: prov, Private: keys[i].Private, Suite: suite,
			DialTimeout: 2 * time.Second, ConstructTimeout: 2 * time.Second,
		}
		if i == 1 {
			cfg.OnData = onData
		}
		node, err := livenet.Start("127.0.0.1:0", cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		peers[i].Addr = node.Addr()
	}
	final, err := livenet.NewRoster(peers)
	if err != nil {
		c.close()
		return nil, err
	}
	for _, node := range c.nodes {
		node.SetRoster(final)
	}
	c.sess, err = c.nodes[0].NewLiveSessionOpts(relayLists, 1, opts)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// drawRelays picks livePaths node-disjoint relay lists from the relays.
func drawRelays(rng *mrand.Rand) [][]netsim.NodeID {
	ids := make([]netsim.NodeID, liveRelays)
	for i := range ids {
		ids[i] = netsim.NodeID(2 + i)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	lists := make([][]netsim.NodeID, livePaths)
	for p := range lists {
		lists[p] = ids[p*liveHops : (p+1)*liveHops]
	}
	return lists
}

// fault is one scheduled relay isolation. rank picks the victim among
// the relays active at onset (sorted by id), so every fault hits a
// live path whatever paths repair has built by then.
type fault struct {
	At   time.Duration
	Rank int
	Down time.Duration
}

func (f fault) String() string {
	return fmt.Sprintf("at %dms isolate active relay #%d for %dms", f.At.Milliseconds(), f.Rank, f.Down.Milliseconds())
}

// churnSchedule draws the fault schedule for a window of the given
// length; a fault may heal after the window ends.
func churnSchedule(rng *mrand.Rand, window time.Duration) []fault {
	var fs []fault
	for at := churnLead; at < window; at += churnPeriod {
		fs = append(fs, fault{
			At:   at + time.Duration(rng.Int63n(int64(churnJitter))),
			Rank: rng.Intn(1 << 16),
			Down: churnDown,
		})
	}
	return fs
}

// msgRec is one message's journey, kept until both its verdict and its
// delivery (or its loss) are known.
type msgRec struct {
	payload   []byte
	sent      time.Time
	verdict   bool // Await returned
	acked     bool // ... with m distinct acks
	delivered bool
}

// checker matches responder deliveries with sent payloads, byte for
// byte, and counts every kind of failure.
type checker struct {
	tr      *tracer
	corrupt atomic.Bool

	mu         sync.Mutex
	recs       map[uint64]*msgRec
	deliverUS  []float64
	corrupted  int
	unexpected int
}

func newChecker(tr *tracer, corrupt bool) *checker {
	c := &checker{tr: tr, recs: map[uint64]*msgRec{}}
	c.corrupt.Store(corrupt)
	return c
}

func (c *checker) register(seq uint64, payload []byte, sent time.Time) {
	c.mu.Lock()
	c.recs[seq] = &msgRec{payload: payload, sent: sent}
	c.mu.Unlock()
}

// settleLocked forgets a record once it has both its verdict and its
// delivery. Records of lost messages stay, so a late delivery of one is
// not mistaken for an unexpected message.
func (c *checker) settleLocked(seq uint64, r *msgRec) {
	if r.verdict && r.delivered {
		delete(c.recs, seq)
	}
}

// pendingLocked counts acked messages still waiting for delivery.
func (c *checker) pendingLocked() int {
	n := 0
	for _, r := range c.recs {
		if r.acked && !r.delivered {
			n++
		}
	}
	return n
}

func (c *checker) verdict(seq uint64, acked bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recs[seq]
	if r == nil {
		return
	}
	r.verdict, r.acked = true, acked
	c.settleLocked(seq, r)
}

// delivered is the responder's reconstruct callback.
func (c *checker) delivered(_ uint64, data []byte) {
	now := time.Now()
	if len(data) > 0 && c.corrupt.CompareAndSwap(true, false) {
		data = append([]byte(nil), data...)
		data[len(data)-1] ^= 0xff
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(data) < 8 {
		c.unexpected++
		return
	}
	seq := binary.BigEndian.Uint64(data)
	r := c.recs[seq]
	if r == nil || r.delivered {
		c.unexpected++
		return
	}
	r.delivered = true
	if !bytes.Equal(r.payload, data) {
		c.corrupted++
	}
	c.deliverUS = append(c.deliverUS, float64(now.Sub(r.sent))/1e3)
	c.tr.add(seq, "send", "deliver", r.sent, now)
	c.settleLocked(seq, r)
}

// finish waits up to deliverGrace for acked messages still in flight
// to the responder and returns how many never arrived.
func (c *checker) finish() (undelivered int) {
	deadline := time.Now().Add(deliverGrace)
	for {
		c.mu.Lock()
		n := c.pendingLocked()
		c.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// registrySum sums every node's counters.
func registrySum(nodes []*livenet.Node) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range nodes {
		for k, v := range n.Metrics().Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// runLive builds the chain liveSetups/2 times, drives the last build
// with a closed loop of nproc senders for the measured window, then
// times the remaining builds.
func runLive(cfg runConfig, spec liveSpec) (*report, error) {
	rep := newReport()
	rng := mrand.New(mrand.NewSource(cfg.seed))
	relayLists := drawRelays(rng)
	pool := make([][]byte, payloadPool)
	for i := range pool {
		pool[i] = make([]byte, spec.payload)
		rng.Read(pool[i])
	}
	var schedule []fault
	if spec.churn {
		schedule = churnSchedule(rng, cfg.seconds)
	}
	inflight := runtime.NumCPU()
	fmt.Printf("chain: %d relays, k=%d paths x L=%d, r=%d, payload %d B, %d in flight, repair %v\n",
		liveRelays, livePaths, liveHops, liveR, spec.payload, inflight, spec.churn)
	fmt.Printf("relay lists: %v\n", relayLists)
	var faults []string
	for i, f := range schedule {
		fmt.Printf("fault %d: %s\n", i+1, f)
		faults = append(faults, f.String())
	}
	rep.inputs["relay_lists"] = relayLists
	rep.inputs["payload_bytes"] = spec.payload
	rep.inputs["inflight"] = inflight
	rep.inputs["faults"] = faults

	tr := newTracer(cfg.trace)
	chk := newChecker(tr, cfg.corrupt)
	var suite onioncrypt.Suite = onioncrypt.ECIES{}
	var timed *timedSuite
	if cfg.trace {
		timed = newTimedSuite(suite, tr)
		suite = timed
	}
	collector := livenet.NewLiveCollector(chk.delivered)
	build := func() (*chain, error) {
		return buildChain(suite, relayLists, spec.sessionOptions(), collector.Handle)
	}
	c, setups, err := timeBuilds(liveSetups/2, build)
	if err != nil {
		return nil, err
	}
	lr := &liveRun{cfg: cfg, spec: spec, rep: rep, tr: tr, chk: chk, timed: timed,
		pool: pool, schedule: schedule, inflight: inflight}
	err = lr.drive(c)
	c.close()
	if err != nil {
		return nil, err
	}
	c, after, err := timeBuilds(liveSetups-liveSetups/2, build)
	if err != nil {
		return nil, err
	}
	c.close()
	rep.e2e["setup_s"] = median(append(setups, after...))
	return rep, nil
}

// timeBuilds builds the chain n times, closing all but the last build,
// and returns that chain with the seconds each build took.
func timeBuilds(n int, build func() (*chain, error)) (*chain, []float64, error) {
	var (
		c      *chain
		setups []float64
	)
	for i := 0; i < n; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = build(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return c, setups, nil
}

// liveRun is one live workload run: its seeded inputs, its output
// checks and its instrumentation.
type liveRun struct {
	cfg      runConfig
	spec     liveSpec
	rep      *report
	tr       *tracer
	chk      *checker
	timed    *timedSuite
	pool     [][]byte
	schedule []fault
	inflight int
}

// drive runs the closed loop of inflight senders over the chain for the
// measured window and fills the report.
func (lr *liveRun) drive(c *chain) error {
	cfg, spec, rep, tr, chk, timed := lr.cfg, lr.spec, lr.rep, lr.tr, lr.chk, lr.timed
	pool, schedule, inflight := lr.pool, lr.schedule, lr.inflight
	var (
		cpu                 *cpuProfile
		sampler             *peakSampler
		memBefore, memAfter runtime.MemStats
		cryptoBefore        map[string][2]int64
	)
	regBefore := registrySum(c.nodes)
	if cfg.trace {
		var err error
		if cpu, err = startCPUProfile(); err != nil {
			return err
		}
		sampler = startPeakSampler()
		runtime.ReadMemStats(&memBefore)
		cryptoBefore = timed.snapshot()
	}

	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(cfg.seconds)
	stopFaults := make(chan struct{})
	var (
		faultsDone sync.WaitGroup
		skipped    int
	)
	if spec.churn {
		faultsDone.Add(1)
		go func() {
			defer faultsDone.Done()
			skipped = injectFaults(c.nodes, start, schedule, stopFaults)
		}()
	}

	type sample struct {
		done                 time.Time
		opMS, sendUS, waitUS float64
	}
	var (
		seq      atomic.Uint64
		mu       sync.Mutex
		samples  []sample
		rejected int
		lost     int
		wg       sync.WaitGroup
	)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := seq.Add(1)
				payload := append([]byte(nil), pool[s%payloadPool]...)
				binary.BigEndian.PutUint64(payload, s)
				t0 := time.Now()
				chk.register(s, payload, t0)
				mid, err := c.sess.Send(payload)
				t1 := time.Now()
				tr.add(s, "", "send", t0, t1)
				if err != nil {
					chk.verdict(s, false)
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), awaitTimeout)
				err = c.sess.Await(ctx, mid)
				cancel()
				t2 := time.Now()
				tr.add(s, "send", "ack_wait", t1, t2)
				chk.verdict(s, err == nil)
				mu.Lock()
				if err != nil {
					lost++
				} else {
					samples = append(samples, sample{t2, float64(t2.Sub(t0)) / 1e6, float64(t1.Sub(t0)) / 1e3, float64(t2.Sub(t1)) / 1e3})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end, cpu1 := time.Now(), cpuSeconds()
	close(stopFaults)
	faultsDone.Wait()
	var fds, gor int
	if cfg.trace {
		runtime.ReadMemStats(&memAfter)
		fds, gor = sampler.stop()
		if err := cpu.stop(rep); err != nil {
			return err
		}
	}
	undelivered := chk.finish()
	regAfter := registrySum(c.nodes)
	delta := func(name string) float64 { return float64(regAfter[name] - regBefore[name]) }
	repaired := delta("live.repair.repaired")
	// Under churn every fault must land on a relay carrying data and the
	// session must repair: a fault that found no active relay, or a run
	// without a single repair, is a failure of the workload itself.
	faultFailures := 0
	if spec.churn {
		faultFailures = skipped
		if repaired == 0 {
			faultFailures++
		}
		fmt.Printf("faults: %d scheduled, %d skipped, %d paths repaired\n", len(schedule), skipped, int(repaired))
	}

	attempted := int(seq.Load())
	confirmed := len(samples)
	chk.mu.Lock()
	corrupted, unexpected := chk.corrupted, chk.unexpected
	deliverUS := append([]float64(nil), chk.deliverUS...)
	chk.mu.Unlock()
	rep.attempted = attempted
	rep.failed = rejected + lost + undelivered + corrupted + unexpected + faultFailures
	fmt.Printf("messages: %d attempted, %d confirmed, %d rejected, %d lost, %d acked but undelivered, %d corrupted, %d unexpected deliveries\n",
		attempted, confirmed, rejected, lost, undelivered, corrupted, unexpected)
	if confirmed == 0 {
		return errors.New("no message was confirmed")
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].done.Before(samples[j].done) })
	measured := end.Sub(start).Seconds()
	opMS := make([]float64, confirmed)
	sendUS := make([]float64, confirmed)
	waitUS := make([]float64, confirmed)
	for i, s := range samples {
		opMS[i], sendUS[i], waitUS[i] = s.opMS, s.sendUS, s.waitUS
	}
	var batches []float64
	prev := start
	for i := liveBatch - 1; i < confirmed; i += liveBatch {
		batches = append(batches, samples[i].done.Sub(prev).Seconds())
		prev = samples[i].done
	}
	if len(batches) == 0 {
		// Fewer than liveBatch confirmations: scale the one partial batch.
		batches = append(batches, measured*liveBatch/float64(confirmed))
	}
	rep.e2e["wall_s"] = median(batches)
	rep.e2e["msgs_per_s"] = float64(confirmed) / measured
	rep.e2e["goodput_mbps"] = float64(confirmed) * float64(spec.payload) / measured / 1e6
	rep.e2e["op_p50_ms"] = quantile(opMS, 0.50)
	rep.e2e["op_p99_ms"] = quantile(opMS, 0.99)
	rep.layer["runtime.cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(attempted)
	rep.layer["runtime.max_rss_mb"] = maxRSSMB()

	if !cfg.trace {
		return nil
	}
	cryptoLayer(rep, cryptoBefore, timed.snapshot(), confirmed)
	memDelta(rep, &memBefore, &memAfter, attempted)
	perMsg := func(name string) float64 { return delta(name) / float64(confirmed) }
	rep.layer["livenet.send_us"] = median(sendUS)
	rep.layer["livenet.ack_wait_us"] = median(waitUS)
	rep.layer["livenet.deliver_us"] = median(deliverUS)
	rep.layer["livenet.frames_per_msg"] = perMsg("live.frames_out")
	rep.layer["livenet.fds_peak"] = float64(fds)
	rep.layer["livenet.goroutines_peak"] = float64(gor)
	repairFailed := delta("live.repair.failed")
	rep.layer["livenet.repairs"] = repaired
	rep.layer["livenet.repair_failed"] = repairFailed
	if repaired+repairFailed > 0 {
		rep.layer["livenet.repair_useful_ratio"] = repaired / (repaired + repairFailed)
	}
	rep.layer["livenet.probe_timeouts"] = delta("live.repair.probe_timeouts")
	rep.layer["livenet.retransmits_per_msg"] = perMsg("session.retransmits")
	rep.layer["livenet.dup_segments_per_msg"] = perMsg("recv.dup_segments")
	rep.layer["livenet.send_rejected"] = delta("session.send_rejected")
	split, recon, err := erasureTimes(pool[0])
	if err != nil {
		return err
	}
	rep.layer["erasure.split_us"] = split
	rep.layer["erasure.reconstruct_us"] = recon
	copyTraced(rep)
	if err := tr.write(cfg.out, cfg.name); err != nil {
		return err
	}
	return nil
}

// injectFaults plays the churn schedule against the chain: at each
// onset it finds the relays that forwarded data in the last
// activeLookback, picks one by the fault's rank, and blackholes it in
// both directions for the fault's downtime (the blackholes expire on
// their own). It returns how many faults found no active relay.
func injectFaults(nodes []*livenet.Node, start time.Time, schedule []fault, stop <-chan struct{}) (skipped int) {
	wait := func(at time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(time.Until(start.Add(at))):
			return true
		}
	}
	dataIn := func() []uint64 {
		out := make([]uint64, len(nodes))
		for i, n := range nodes {
			out[i] = n.Metrics().Counter("live.frames_in.data").Value()
		}
		return out
	}
	for i, f := range schedule {
		if !wait(f.At - activeLookback) {
			return skipped
		}
		before := dataIn()
		if !wait(f.At) {
			return skipped
		}
		after := dataIn()
		var active []int
		for id := 2; id < len(nodes); id++ {
			if after[id] > before[id] {
				active = append(active, id)
			}
		}
		if len(active) == 0 {
			fmt.Printf("fault %d: no active relay at %dms, skipped\n", i+1, f.At.Milliseconds())
			skipped++
			continue
		}
		victim := active[f.Rank%len(active)]
		for id, n := range nodes {
			if id != victim {
				n.BlackholePeer(netsim.NodeID(victim), f.Down)
				nodes[victim].BlackholePeer(netsim.NodeID(id), f.Down)
			}
		}
		fmt.Printf("fault %d: at %dms isolated relay %d (active %v) for %dms\n",
			i+1, time.Since(start).Milliseconds(), victim, active, f.Down.Milliseconds())
	}
	return skipped
}

// erasureTimes runs the workload's payload through a (2,4) code and
// returns the median microseconds of Split and of a parity-only
// Reconstruct.
func erasureTimes(payload []byte) (split, recon float64, err error) {
	code, err := erasure.New(2, 4)
	if err != nil {
		return 0, 0, err
	}
	const reps = 200
	var ss, rs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		segs, err := code.Split(payload)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		msg, err := code.Reconstruct(segs[2:])
		t2 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(msg, payload) {
			return 0, 0, errors.New("erasure round trip changed the payload")
		}
		ss = append(ss, float64(t1.Sub(t0))/1e3)
		rs = append(rs, float64(t2.Sub(t1))/1e3)
	}
	return median(ss), median(rs), nil
}
