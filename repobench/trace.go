package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"resilientmix/internal/obs/prof"
	"resilientmix/internal/onioncrypt"
)

// This file is the traced run's instrumentation. Everything is
// recorded from the benchmark's side of a public boundary: spans around
// the calls the benchmark makes, a counting wrapper installed as the
// nodes' crypto suite, and a CPU profile split by module.

// span is one timed interval at a layer boundary. Spans of one request
// (a message's sequence number, or a sim-paper pass) share ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) add(id uint64, parent, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines in dir/<workload>-spans.jsonl.
func (t *tracer) write(dir, workload string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+"-spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStat counts one suite operation and its total time.
type callStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *callStat) since(start time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(start)))
}

// timedSuite wraps a crypto suite, counting and timing the four calls
// the data path makes. Installed as livenet.Config.Suite in traced runs.
type timedSuite struct {
	onioncrypt.Suite
	tr    *tracer
	stats map[string]*callStat // keyed by cryptoOps; fixed after construction
}

func newTimedSuite(inner onioncrypt.Suite, tr *tracer) *timedSuite {
	s := &timedSuite{Suite: inner, tr: tr, stats: map[string]*callStat{}}
	for _, op := range cryptoOps {
		s.stats[op] = &callStat{}
	}
	return s
}

func (s *timedSuite) done(op string, start time.Time) {
	s.stats[op].since(start)
	s.tr.add(0, "", "onioncrypt."+op, start, time.Now())
}

func (s *timedSuite) Seal(r io.Reader, pub onioncrypt.PublicKey, pt []byte) ([]byte, error) {
	t := time.Now()
	defer s.done("seal", t)
	return s.Suite.Seal(r, pub, pt)
}

func (s *timedSuite) Open(priv onioncrypt.PrivateKey, ct []byte) ([]byte, error) {
	t := time.Now()
	defer s.done("open", t)
	return s.Suite.Open(priv, ct)
}

func (s *timedSuite) SymSeal(r io.Reader, key, pt []byte) ([]byte, error) {
	t := time.Now()
	defer s.done("symseal", t)
	return s.Suite.SymSeal(r, key, pt)
}

func (s *timedSuite) SymOpen(key, ct []byte) ([]byte, error) {
	t := time.Now()
	defer s.done("symopen", t)
	return s.Suite.SymOpen(key, ct)
}

// snapshot returns each operation's (calls, ns) so far.
func (s *timedSuite) snapshot() map[string][2]int64 {
	out := map[string][2]int64{}
	for op, st := range s.stats {
		out[op] = [2]int64{st.calls.Load(), st.ns.Load()}
	}
	return out
}

// cryptoLayer fills the onioncrypt per-layer metrics from the suite's
// counts between two snapshots, per confirmed message.
func cryptoLayer(rep *report, before, after map[string][2]int64, msgs int) {
	for _, op := range cryptoOps {
		calls := after[op][0] - before[op][0]
		ns := after[op][1] - before[op][1]
		if msgs > 0 {
			rep.layer["onioncrypt."+op+".calls_per_msg"] = float64(calls) / float64(msgs)
		}
		if calls > 0 {
			rep.layer["onioncrypt."+op+".us"] = float64(ns) / float64(calls) / 1e3
		}
	}
}

// layerBuckets is the per-module attribution: one bucket per internal
// package (prof.DefaultBuckets lumps sim/netsim/core and lacks several
// simulator modules), plus Go's network and syscall leaves.
func layerBuckets() []prof.Bucket {
	var bs []prof.Bucket
	for _, l := range cpuLayers {
		switch l {
		case "net_syscall":
			bs = append(bs, prof.Bucket{Name: l, Prefixes: []string{"net.", "syscall.", "internal/poll."}})
		case "obs":
			bs = append(bs, prof.Bucket{Name: l, Prefixes: []string{"resilientmix/internal/obs.", "resilientmix/internal/obs/"}})
		case prof.RuntimeBucket, prof.OtherBucket:
			// Assigned by prof.Attribute to stacks no prefix claims.
		default:
			bs = append(bs, prof.Bucket{Name: l, Prefixes: []string{"resilientmix/internal/" + l + "."}})
		}
	}
	return bs
}

// cpuProfile samples CPU for the traced window.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and writes each layer's self CPU share.
func (p *cpuProfile) stop(rep *report) error {
	pprof.StopCPUProfile()
	pr, err := prof.ParseBytes(p.buf.Bytes())
	if err != nil {
		return err
	}
	idx := pr.SampleIndex("cpu")
	if idx < 0 {
		idx = len(pr.SampleTypes) - 1
	}
	shares := prof.Attribute(pr, idx, layerBuckets()).Shares()
	for _, l := range cpuLayers {
		rep.layer[l+".cpu_share"] = shares[l]
	}
	return nil
}

// peakSampler tracks the peak open file descriptors and goroutines.
type peakSampler struct {
	fds, goroutines int
	stopc           chan struct{}
	done            chan struct{}
}

func startPeakSampler() *peakSampler {
	s := &peakSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if ents, err := os.ReadDir("/proc/self/fd"); err == nil && len(ents) > s.fds {
				s.fds = len(ents)
			}
			if g := runtime.NumGoroutine(); g > s.goroutines {
				s.goroutines = g
			}
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peaks.
func (s *peakSampler) stop() (fds, goroutines int) {
	close(s.stopc)
	<-s.done
	return s.fds, s.goroutines
}

// memDelta fills the runtime allocation metrics per operation.
func memDelta(rep *report, before, after *runtime.MemStats, ops int) {
	if ops == 0 {
		return
	}
	rep.layer["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)
	rep.layer["runtime.gc_per_op"] = float64(after.NumGC-before.NumGC) / float64(ops)
}

// copyTraced repeats the run's end-to-end figures under traced.* so the
// per-layer line carries the traced run's own numbers.
func copyTraced(rep *report) {
	for _, d := range tracedMetrics {
		rep.layer["traced."+d.name] = rep.e2e[d.name]
	}
}
