package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"resilientmix/internal/experiments"
	"resilientmix/internal/obs"
)

// simPasses is the minimum number of full passes per run: the second
// pass is checked against the first, byte for byte.
const simPasses = 2

// startupProbes is how many fresh processes time sim-paper's set-up,
// half before the passes and half after them, so the figure samples the
// host at both ends of the run.
const startupProbes = 40

// probeEnv, set in a child's environment to "<seed>:<exec start in Unix
// ns>", makes the child report the time from its exec to the start-up
// probe and exit instead of running a workload.
const probeEnv = "REPOBENCH_STARTUP_PROBE"

// simCounters are the Options.Metrics counters the run reads per pass.
var simCounters = []string{"net.sent", "net.bytes", "session.establish_attempts", "session.paths_built"}

// simOptions is the one place sim-paper's experiment options are made,
// shared by the run and by the start-up probe.
func simOptions(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Quick: true, Metrics: obs.NewRegistry()}
}

// startupProbe is a fresh process's path from start to the point where
// sim-paper would call its first experiments.Run. A probe prints the
// nanoseconds since its parent's exec call and reports true; the
// process then exits.
func startupProbe() bool {
	v := os.Getenv(probeEnv)
	if v == "" {
		return false
	}
	seedStr, startStr, _ := strings.Cut(v, ":")
	seed, err1 := strconv.ParseInt(seedStr, 10, 64)
	start, err2 := strconv.ParseInt(startStr, 10, 64)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "repobench: bad %s=%q\n", probeEnv, v)
		os.Exit(2)
	}
	opts := simOptions(seed)
	if len(experiments.IDs()) == 0 || opts.Metrics == nil {
		os.Exit(1)
	}
	fmt.Println(time.Now().UnixNano() - start)
	return true
}

// simSetup starts n fresh processes of this binary and returns the
// seconds each took from exec to the start-up probe. The child stamps
// the end itself, so its exit and reaping stay out of the figure.
func simSetup(seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d:%d", probeEnv, seed, time.Now().UnixNano()))
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("start-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("start-up probe printed %q", out)
		}
		ts = append(ts, float64(ns)/1e9)
	}
	return ts, nil
}

// runSimPaper regenerates all experiments at quick scale in registry
// order, pass after pass, while another pass fits in the measured time
// (and at least simPasses passes). Every pass's rendered tables must hash the same as
// the first pass's.
func runSimPaper(cfg runConfig) (*report, error) {
	rep := newReport()
	setups, err := simSetup(cfg.seed, startupProbes/2)
	if err != nil {
		return nil, err
	}

	tr := newTracer(cfg.trace)
	opts := simOptions(cfg.seed)
	ids := experiments.IDs()
	ref := map[string][32]byte{}
	perExp := map[string][]float64{}
	var (
		passWalls           []float64
		sent, bytesSent     uint64
		perPass             map[string]uint64
		cpu                 *cpuProfile
		memBefore, memAfter runtime.MemStats
	)
	if cfg.trace {
		if cpu, err = startCPUProfile(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&memBefore)
	}
	start, cpu0 := time.Now(), cpuSeconds()
	// Past the minimum, start a pass only if it should end in time.
	for pass := 0; pass < simPasses || time.Since(start)+lastPass(passWalls) <= cfg.seconds; pass++ {
		before := counters(opts.Metrics)
		h := sha256.New()
		passStart := time.Now()
		for _, id := range ids {
			rep.attempted++
			t0 := time.Now()
			res, err := experiments.Run(id, opts)
			t1 := time.Now()
			if err != nil {
				rep.failed++
				fmt.Printf("pass %d %s: error: %v\n", pass+1, id, err)
				continue
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				rep.failed++
				fmt.Printf("pass %d %s: render: %v\n", pass+1, id, err)
				continue
			}
			sum := sha256.Sum256(buf.Bytes())
			h.Write(sum[:])
			if first, ok := ref[id]; !ok {
				ref[id] = sum
			} else if first != sum {
				rep.failed++
				fmt.Printf("pass %d %s: rendered output differs from pass 1\n", pass+1, id)
			}
			perExp[id] = append(perExp[id], t1.Sub(t0).Seconds())
			tr.add(uint64(pass+1), "pass", "experiments."+id, t0, t1)
		}
		passEnd := time.Now()
		tr.add(uint64(pass+1), "", "pass", passStart, passEnd)
		passWalls = append(passWalls, passEnd.Sub(passStart).Seconds())
		after := counters(opts.Metrics)
		delta := map[string]uint64{}
		for _, c := range simCounters {
			delta[c] = after[c] - before[c]
		}
		if perPass == nil {
			perPass = delta
		}
		sent += delta["net.sent"]
		bytesSent += delta["net.bytes"]
		fmt.Printf("pass %d: %.3fs, %d simulated msgs, tables sha256=%s\n",
			pass+1, passWalls[len(passWalls)-1], delta["net.sent"], hex.EncodeToString(h.Sum(nil)))
	}
	measured := 0.0
	for _, w := range passWalls {
		measured += w
	}

	rep.e2e["wall_s"] = median(passWalls)
	rep.e2e["msgs_per_s"] = float64(sent) / measured
	rep.e2e["goodput_mbps"] = float64(bytesSent) / measured / 1e6
	// A researcher's operation is a whole regeneration, so op_p50_ms is
	// wall_s in ms. The median experiments.Run call is the time of one
	// or two small experiments and spreads too much between runs to gate.
	rep.e2e["op_p50_ms"] = quantile(passWalls, 0.50) * 1e3
	rep.e2e["op_p99_ms"] = quantile(passWalls, 0.99) * 1e3
	rep.layer["runtime.cpu_ms_per_op"] = (cpuSeconds() - cpu0) * 1e3 / float64(rep.attempted)
	rep.layer["runtime.max_rss_mb"] = maxRSSMB()
	rep.inputs["experiment_seed"] = cfg.seed
	rep.inputs["passes"] = len(passWalls)

	if cfg.trace {
		runtime.ReadMemStats(&memAfter)
		if err := cpu.stop(rep); err != nil {
			return nil, err
		}
		memDelta(rep, &memBefore, &memAfter, rep.attempted)
		for id, ws := range perExp {
			rep.layer["experiments."+id+".wall_s"] = median(ws)
		}
		rep.layer["netsim.msgs"] = float64(perPass["net.sent"])
		rep.layer["core.establish_attempts"] = float64(perPass["session.establish_attempts"])
		rep.layer["core.paths_built"] = float64(perPass["session.paths_built"])
		if perPass["net.sent"] > 0 {
			rep.layer["netsim.host_us_per_msg"] = rep.e2e["wall_s"] * 1e6 / float64(perPass["net.sent"])
		}
		copyTraced(rep)
		if err := tr.write(cfg.out, cfg.name); err != nil {
			return nil, err
		}
	}
	after, err := simSetup(cfg.seed, startupProbes-startupProbes/2)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(append(setups, after...))
	return rep, nil
}

// lastPass is the duration of the latest pass.
func lastPass(walls []float64) time.Duration {
	return time.Duration(walls[len(walls)-1] * float64(time.Second))
}

// counters reads the simulator counters sim-paper tracks.
func counters(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range simCounters {
		out[c] = reg.Counter(c).Value()
	}
	return out
}
