package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the sim-paper start-up probe re-exec the test binary.
func TestMain(m *testing.M) {
	if startupProbe() {
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics())
}

// runBrief runs one workload traced for a short window; a traced run
// fills both the end-to-end and the per-layer metrics.
func runBrief(t *testing.T, name string, corrupt bool) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rep, err := w.run(runConfig{name: name, seed: 7, seconds: 3 * time.Second, trace: true, corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestWorkloadsBrief runs every workload briefly and checks that every
// named metric is present and finite, that end-to-end metrics are
// never zero, and that each workload exercises the layers it is there
// for.
func TestWorkloadsBrief(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runBrief(t, w.name, false)
			for _, d := range e2eMetrics {
				v := rep.e2e[d.name]
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v, want finite and > 0", d.name, v)
				}
			}
			for name, m := range rep.emitted(true) {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %v, want finite", name, m.Value)
				}
			}
			if !(rep.layer["runtime.cpu_ms_per_op"] > 0) {
				t.Errorf("per-layer runtime.cpu_ms_per_op = %v, want > 0", rep.layer["runtime.cpu_ms_per_op"])
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%d of %d operations failed, want 0 of > 0", rep.failed, rep.attempted)
			}
			positive := func(names ...string) {
				for _, n := range names {
					if !(rep.layer[n] > 0) {
						t.Errorf("per-layer %s = %v, want > 0", n, rep.layer[n])
					}
				}
			}
			if w.name == "sim-paper" {
				positive("netsim.msgs", "core.paths_built", "membership.cpu_share", "sim.cpu_share")
				for name := range rep.emitted(true) {
					if strings.HasPrefix(name, "experiments.") {
						positive(name)
					}
				}
				return
			}
			positive("livenet.send_us", "livenet.deliver_us", "livenet.frames_per_msg",
				"onioncrypt.open.calls_per_msg", "onioncrypt.symopen.calls_per_msg",
				"erasure.split_us", "erasure.reconstruct_us", "net_syscall.cpu_share")
			if w.name == "live-churn" {
				positive("livenet.repairs", "onioncrypt.seal.calls_per_msg")
			}
		})
	}
}

// TestCorruptedPayloadCounted proves the output check: one delivered
// payload with a flipped byte must count as a failed operation.
func TestCorruptedPayloadCounted(t *testing.T) {
	rep := runBrief(t, "live-small", true)
	if rep.failed != 1 {
		t.Fatalf("corrupted delivery: %d failures, want 1", rep.failed)
	}
}
