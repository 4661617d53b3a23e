package perfbench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(metrics map[string]float64) *Report {
	return &Report{SchemaVersion: SchemaVersion, Metrics: metrics}
}

func TestCompareDirections(t *testing.T) {
	base := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":          1000,
		"sim.engine.events_per_sec":          1e7,
		"sim.engine.schedule.allocs_per_op":  0,
		"erasure.encode.m4_n8.allocs_per_op": 2,
	})

	// Everything within tolerance: throughput down 10%, allocs equal.
	ok := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":          900,
		"sim.engine.events_per_sec":          1e7,
		"sim.engine.schedule.allocs_per_op":  0,
		"erasure.encode.m4_n8.allocs_per_op": 2,
	})
	if regs := Compare(base, ok, 0.20); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}

	// Throughput down 30% must fail; a zero-alloc baseline must fail on
	// any allocation at all.
	bad := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":          700,
		"sim.engine.events_per_sec":          1e7,
		"sim.engine.schedule.allocs_per_op":  1,
		"erasure.encode.m4_n8.allocs_per_op": 2,
	})
	regs := Compare(base, bad, 0.20)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions %v, want 2 (mbps drop + new alloc)", len(regs), regs)
	}

	// Higher throughput and fewer allocs than baseline are improvements,
	// never regressions.
	better := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":          2000,
		"sim.engine.events_per_sec":          2e7,
		"sim.engine.schedule.allocs_per_op":  0,
		"erasure.encode.m4_n8.allocs_per_op": 0,
	})
	if regs := Compare(base, better, 0.20); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	base := report(map[string]float64{"erasure.encode.m4_n8.mbps": 1000})
	cur := report(map[string]float64{})
	regs := Compare(base, cur, 0.20)
	if len(regs) != 1 || !strings.Contains(regs[0].Metric, "missing") {
		t.Fatalf("dropped benchmark not flagged: %v", regs)
	}
	// New metrics in current are fine until the baseline is refreshed.
	cur2 := report(map[string]float64{
		"erasure.encode.m4_n8.mbps": 1000,
		"brand.new.metric.mbps":     5,
	})
	if regs := Compare(base, cur2, 0.20); len(regs) != 0 {
		t.Fatalf("new metric flagged: %v", regs)
	}
}

func TestCompareSkipsShardMetricsAcrossCPUCounts(t *testing.T) {
	base := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":   1000,
		"sim.shard.k8.events_per_sec": 8e6,
		"sim.shard.k8.speedup":        4,
		"sim.shard.k1.events_per_sec": 2e6,
		"sim.engine.events_per_sec":   1e7,
	})
	base.NumCPU = 8
	// A 1-CPU host reruns the suite: its scaling numbers are a
	// different quantity and must not gate against the 8-CPU baseline,
	// but the machine-independent metrics still do.
	cur := report(map[string]float64{
		"erasure.encode.m4_n8.mbps":   950,
		"sim.shard.k8.events_per_sec": 1e6, // would fail on the same CPU count
		"sim.shard.k8.speedup":        0.9,
		"sim.shard.k1.events_per_sec": 1.5e6,
		"sim.engine.events_per_sec":   1e7,
	})
	cur.NumCPU = 1
	if regs := Compare(base, cur, 0.20); len(regs) != 0 {
		t.Fatalf("shard metrics gated across differing CPU counts: %v", regs)
	}
	// Same CPU count: the scaling regression must be caught.
	cur.NumCPU = 8
	regs := Compare(base, cur, 0.20)
	if len(regs) != 3 {
		t.Fatalf("got %v, want the three sim.shard regressions", regs)
	}
	for _, g := range regs {
		if !strings.HasPrefix(g.Metric, "sim.shard.") {
			t.Fatalf("unexpected regression %v", g)
		}
	}
}

func TestScalingGate(t *testing.T) {
	// Fewer than 8 CPUs: recorded, never gated.
	small := report(map[string]float64{"sim.shard.k8.speedup": 0.8})
	small.NumCPU = 4
	if err := ScalingGate(small); err != nil {
		t.Fatalf("gated a %d-CPU host: %v", small.NumCPU, err)
	}
	// 8 CPUs with a healthy speedup passes.
	good := report(map[string]float64{"sim.shard.k8.speedup": 3.4})
	good.NumCPU = 8
	if err := ScalingGate(good); err != nil {
		t.Fatalf("healthy speedup gated: %v", err)
	}
	// 8 CPUs below the bar fails.
	slow := report(map[string]float64{"sim.shard.k8.speedup": 2.1})
	slow.NumCPU = 8
	if err := ScalingGate(slow); err == nil {
		t.Fatal("2.1x speedup on an 8-CPU host passed the 3x gate")
	}
	// 8 CPUs with the metric silently missing must not pass.
	missing := report(map[string]float64{})
	missing.NumCPU = 16
	if err := ScalingGate(missing); err == nil {
		t.Fatal("missing speedup metric passed the gate")
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	r := report(map[string]float64{"erasure.encode.m4_n8.mbps": 1234.5})
	r.GoOS, r.GoArch, r.NumCPU = "linux", "amd64", 8
	r.Info = map[string]float64{"info.quick_all.wall_seconds": 0}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics["erasure.encode.m4_n8.mbps"] != 1234.5 {
		t.Fatalf("metric lost in round trip: %v", got.Metrics)
	}
	if _, ok := got.Info["info.quick_all.wall_seconds"]; !ok {
		t.Fatalf("info key lost in round trip: %v", got.Info)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "metrics": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}
