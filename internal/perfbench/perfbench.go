// Package perfbench runs the repository's headline performance
// benchmarks from a regular binary (via testing.Benchmark) and reads,
// writes, and compares the machine-readable reports that
// cmd/anonbench's -bench-json mode produces.
//
// The committed baseline lives at BENCH_PR9.json in the repository
// root; CI regenerates a report on every push and fails when any gated
// metric regresses by more than the tolerance. Gating direction is
// encoded in the metric name suffix: ".mbps", ".events_per_sec",
// ".speedup" and ".parallel_efficiency" are higher-is-better,
// ".allocs_per_op" is lower-is-better. The "sim.shard." scaling
// metrics are additionally compared only between reports from hosts
// with equal num_cpu, and the absolute >=3x K=8 speedup requirement
// (ScalingGate) applies only on 8+-CPU hosts. Entries under Info
// (wall-clock times and machine facts) are recorded but never gated —
// they vary with host load in ways throughput-per-op does not.
package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"resilientmix/internal/churn"
	"resilientmix/internal/erasure"
	"resilientmix/internal/shardworld"
	"resilientmix/internal/sim"
)

// SchemaVersion identifies the report layout; bump on incompatible
// changes so stale baselines fail loudly instead of gating nonsense.
const SchemaVersion = 1

// Report is the machine-readable benchmark summary.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoOS          string `json:"goos"`
	GoArch        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`

	// Metrics are gated by Compare. Keys end in ".mbps",
	// ".events_per_sec" (higher-better) or ".allocs_per_op"
	// (lower-better).
	Metrics map[string]float64 `json:"metrics"`

	// Info holds ungated context: wall-clock seconds for quick-mode
	// experiment runs and anything else useful for a human reading the
	// file, but too host-dependent to gate.
	Info map[string]float64 `json:"info,omitempty"`
}

// benchShapes mirrors internal/erasure's bench_test.go: the same
// (m, n) codes and message size, so `go test -bench` and the JSON
// report measure the same workload.
var benchShapes = []struct{ m, n int }{
	{4, 8},
	{5, 20},
	{16, 32},
}

const benchMsgLen = 4 * 1024

func benchMsg() []byte {
	msg := make([]byte, benchMsgLen)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	return msg
}

// Run executes the headline micro-benchmarks — erasure encode/decode
// throughput per (m, n) shape, the simulation engine's event loop, and
// the sharded engine's scaling curve at K = 1, 2, 4, 8 (capped at
// maxShards; 0 means the full curve) — and returns a fresh report. It
// takes on the order of tens of seconds.
func Run(maxShards int) *Report {
	r := &Report{
		SchemaVersion: SchemaVersion,
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Metrics:       make(map[string]float64),
		Info:          make(map[string]float64),
	}
	msg := benchMsg()

	for _, s := range benchShapes {
		code, err := erasure.New(s.m, s.n)
		if err != nil {
			panic(err) // shapes are compile-time constants
		}
		shape := fmt.Sprintf("m%d_n%d", s.m, s.n)

		enc := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(benchMsgLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := code.Split(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.Metrics["erasure.encode."+shape+".mbps"] = mbps(enc)
		r.Metrics["erasure.encode."+shape+".allocs_per_op"] = float64(enc.AllocsPerOp())

		segs, err := code.Split(msg)
		if err != nil {
			panic(err)
		}
		parity := segs[s.n-s.m:]
		dec := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(benchMsgLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := code.Reconstruct(parity); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.Metrics["erasure.decode_nonsys."+shape+".mbps"] = mbps(dec)
		r.Metrics["erasure.decode_nonsys."+shape+".allocs_per_op"] = float64(dec.AllocsPerOp())
	}

	// Systematic fast path, one representative shape.
	{
		code, err := erasure.New(5, 20)
		if err != nil {
			panic(err)
		}
		segs, err := code.Split(msg)
		if err != nil {
			panic(err)
		}
		sys := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(benchMsgLen)
			for i := 0; i < b.N; i++ {
				if _, err := code.Reconstruct(segs[:5]); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.Metrics["erasure.decode_sys.m5_n20.mbps"] = mbps(sys)
	}

	// Engine event loop: schedule + run in batches, the netsim
	// steady-state pattern. ops/sec counts scheduled events executed.
	eng := testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Schedule(sim.Time(i%1000)*sim.Millisecond, fn)
			if i%1024 == 1023 {
				e.RunAll()
			}
		}
		e.RunAll()
	})
	r.Metrics["sim.engine.events_per_sec"] = float64(eng.N) / eng.T.Seconds()
	r.Metrics["sim.engine.schedule.allocs_per_op"] = float64(eng.AllocsPerOp())

	// Sharded engine scaling: the same churned message-plane world at
	// K = 1, 2, 4, 8 shards. The sim.shard.* metrics only mean
	// anything relative to a baseline from a machine with the same CPU
	// count (the report records num_cpu; Compare skips them on a
	// mismatch), and the absolute >=3x speedup gate applies only on
	// hosts with at least 8 CPUs — see ScalingGate.
	if maxShards <= 0 {
		maxShards = ShardCounts[len(ShardCounts)-1]
	}
	var k1 float64
	for _, k := range ShardCounts {
		if k > maxShards && k != 1 {
			continue
		}
		eps := shardEventsPerSec(k)
		r.Metrics[fmt.Sprintf("sim.shard.k%d.events_per_sec", k)] = eps
		if k == 1 {
			k1 = eps
		}
	}
	if k8, ok := r.Metrics["sim.shard.k8.events_per_sec"]; ok && k1 > 0 {
		r.Metrics["sim.shard.k8.speedup"] = k8 / k1
		r.Metrics["sim.shard.k8.parallel_efficiency"] = k8 / k1 / 8
	}
	r.Info["info.shard.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	r.Info["info.shard.bench_nodes"] = shardBenchNodes

	return r
}

// ShardCounts are the shard-scaling benchmark points.
var ShardCounts = []int{1, 2, 4, 8}

const (
	shardBenchNodes    = 512
	shardBenchHorizon  = 4 * sim.Minute
	shardBenchInterval = 500 * sim.Millisecond
	shardBenchReps     = 3
)

// shardEventsPerSec runs the canonical sharded scenario (churn plus
// random-peer traffic, no tracer) at the given shard count and returns
// the best executed-events-per-wall-second over a few repetitions —
// max, not mean, because the quantity being measured is engine
// capacity, and interference only ever subtracts from it.
func shardEventsPerSec(k int) float64 {
	best := 0.0
	for rep := 0; rep < shardBenchReps; rep++ {
		w, err := shardworld.New(shardworld.Config{
			Nodes:           shardBenchNodes,
			Shards:          k,
			Seed:            99,
			Lifetime:        churn.DefaultLifetime(),
			TrafficInterval: shardBenchInterval,
		})
		if err != nil {
			panic(err) // config is compile-time constant
		}
		start := time.Now()
		w.Run(shardBenchHorizon)
		if el := time.Since(start).Seconds(); el > 0 {
			if v := float64(w.Cluster.Executed()) / el; v > best {
				best = v
			}
		}
	}
	return best
}

// MinSpeedupK8 is the absolute multi-core scaling requirement: on a
// host with at least 8 CPUs, the K=8 sharded engine must run the
// scenario at least this many times faster than K=1.
const MinSpeedupK8 = 3.0

// ScalingGate enforces MinSpeedupK8 on reports produced by hosts that
// can actually demonstrate 8-way parallelism. On hosts with fewer than
// 8 CPUs the speedup is recorded but not gated — a 1-CPU laptop cannot
// fail a parallel-scaling requirement it cannot exercise.
func ScalingGate(r *Report) error {
	if r.NumCPU < 8 {
		return nil
	}
	s, ok := r.Metrics["sim.shard.k8.speedup"]
	if !ok {
		return fmt.Errorf("perfbench: host has %d CPUs but the report carries no sim.shard.k8.speedup metric", r.NumCPU)
	}
	if s < MinSpeedupK8 {
		return fmt.Errorf("perfbench: K=8 speedup %.2fx below the required %.1fx on a %d-CPU host", s, MinSpeedupK8, r.NumCPU)
	}
	return nil
}

func mbps(res testing.BenchmarkResult) float64 {
	if res.T <= 0 {
		return 0
	}
	return float64(res.Bytes) * float64(res.N) / res.T.Seconds() / 1e6
}

// WriteFile writes the report as indented JSON (keys sorted by
// encoding/json's map ordering) with a trailing newline.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: parsing %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perfbench: %s has schema %d, this binary expects %d — regenerate the baseline", path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Regression describes one gated metric that moved past tolerance in
// the losing direction.
type Regression struct {
	Metric   string
	Baseline float64
	Current  float64
}

func (g Regression) String() string {
	return fmt.Sprintf("%s: baseline %.3f, current %.3f", g.Metric, g.Baseline, g.Current)
}

// lowerBetter reports the gating direction for a metric name.
func lowerBetter(name string) bool { return strings.HasSuffix(name, ".allocs_per_op") }

// Compare gates current against baseline. A higher-better metric fails
// when current < baseline*(1-tolerance); a lower-better metric fails
// when current > baseline*(1+tolerance) — which for a zero-alloc
// baseline means any allocation at all. A metric present in the
// baseline but missing from current also fails (a silently dropped
// benchmark must not pass the gate). Metrics new in current are
// ignored until the baseline is refreshed.
//
// The "sim.shard." parallel-scaling metrics are compared only when the
// two reports come from hosts with the same CPU count: a speedup
// measured on 8 cores and one measured on 1 core are different
// quantities, and gating one against the other would be noise. The
// reports' num_cpu field exists precisely so this check is possible.
func Compare(baseline, current *Report, tolerance float64) []Regression {
	var regs []Regression
	keys := make([]string, 0, len(baseline.Metrics))
	for k := range baseline.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sameCPU := baseline.NumCPU == current.NumCPU
	for _, k := range keys {
		if strings.HasPrefix(k, "sim.shard.") && !sameCPU {
			continue
		}
		base := baseline.Metrics[k]
		cur, ok := current.Metrics[k]
		if !ok {
			regs = append(regs, Regression{Metric: k + " (missing from current run)", Baseline: base, Current: 0})
			continue
		}
		if lowerBetter(k) {
			if cur > base*(1+tolerance) && cur > base {
				regs = append(regs, Regression{Metric: k, Baseline: base, Current: cur})
			}
		} else {
			if cur < base*(1-tolerance) {
				regs = append(regs, Regression{Metric: k, Baseline: base, Current: cur})
			}
		}
	}
	return regs
}
