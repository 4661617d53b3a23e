// Command repobench is the repository's end-to-end benchmark. It runs
// one workload per process — the quick paper suite through
// experiments.Run, or a live SimEra session over loopback sockets —
// checks the outputs, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also profiles CPU, wraps the crypto suite in a counting timer and
// records spans, and the metrics are the per-layer ones. README.md
// describes every workload and metric; run.py builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"resilientmix/internal/experiments"
)

// workload is one set of inputs the benchmark runs, with the reason it
// is in the benchmark.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*report, error)
}

// workloads is the benchmark's workload table; BENCHMARK.json repeats
// the names and reasons.
var workloads = []workload{
	{"sim-paper",
		"all 18 experiments at quick scale: the simulator, membership, onion and mix-choice code a researcher waits for; no sockets or real crypto",
		runSimPaper},
	{"live-small",
		"1 KiB SimEra messages over 4x3 loopback relays, nproc in flight: per-message cost (dials, ECIES Open, framing) dominates",
		func(cfg runConfig) (*report, error) { return runLive(cfg, liveSpec{payload: 1 << 10}) }},
	{"live-bulk",
		"64 KiB messages on the same chain: per-byte layers (erasure, AES-GCM, wire copies) do real work only here",
		func(cfg runConfig) (*report, error) { return runLive(cfg, liveSpec{payload: 64 << 10}) }},
	{"live-churn",
		"live-small traffic with repair on while a seeded schedule isolates one active relay at a time: probing, path rebuild, retransmits",
		func(cfg runConfig) (*report, error) { return runLive(cfg, liveSpec{payload: 1 << 10, churn: true}) }},
}

// runConfig is what one benchmark process was asked to do.
type runConfig struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	// out, when set, receives the full result record and the span file.
	out string
	// corrupt flips one byte of the first delivered live payload before
	// the output check sees it; the self-test uses it to prove that the
	// check counts a corrupted payload as a failure.
	corrupt bool
}

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0. README.md gives each one's meaning per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"msgs_per_s", "1/s"},
	{"goodput_mbps", "MB/s"},
	{"op_p50_ms", "ms"},
}

type metricDef struct{ name, unit string }

// cpuLayers are the attribution buckets of the traced CPU profile: one
// per module, plus Go's network/syscall leaves and the runtime.
var cpuLayers = []string{
	"gf256", "erasure", "onioncrypt", "onion", "wire", "livenet", "core",
	"sim", "netsim", "churn", "membership", "mixchoice", "predictor",
	"topology", "obs", "net_syscall", "runtime", "other",
}

// cryptoOps are the suite calls the timing wrapper counts.
var cryptoOps = []string{"open", "seal", "symopen", "symseal"}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"livenet.send_us", "us"},
		metricDef{"livenet.ack_wait_us", "us"},
		metricDef{"livenet.deliver_us", "us"},
		metricDef{"livenet.frames_per_msg", "1/msg"},
		metricDef{"livenet.fds_peak", "count"},
		metricDef{"livenet.goroutines_peak", "count"},
		metricDef{"livenet.repairs", "count"},
		metricDef{"livenet.repair_failed", "count"},
		metricDef{"livenet.repair_useful_ratio", "ratio"},
		metricDef{"livenet.probe_timeouts", "count"},
		metricDef{"livenet.retransmits_per_msg", "1/msg"},
		metricDef{"livenet.dup_segments_per_msg", "1/msg"},
		metricDef{"livenet.send_rejected", "count"},
	)
	for _, op := range cryptoOps {
		defs = append(defs,
			metricDef{"onioncrypt." + op + ".calls_per_msg", "1/msg"},
			metricDef{"onioncrypt." + op + ".us", "us"})
	}
	defs = append(defs,
		metricDef{"erasure.split_us", "us"},
		metricDef{"erasure.reconstruct_us", "us"},
	)
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + ".wall_s", "s"})
	}
	defs = append(defs,
		metricDef{"netsim.msgs", "count"},
		metricDef{"core.establish_attempts", "count"},
		metricDef{"core.paths_built", "count"},
		metricDef{"netsim.host_us_per_msg", "us/msg"},
		metricDef{"runtime.alloc_kb_per_op", "KB/op"},
		metricDef{"runtime.gc_per_op", "1/op"},
		metricDef{"runtime.cpu_ms_per_op", "ms/op"},
		metricDef{"runtime.max_rss_mb", "MB"},
	)
	for _, d := range tracedMetrics {
		defs = append(defs, metricDef{"traced." + d.name, d.unit})
	}
	return defs
}

// tracedMetrics are the end-to-end figures a traced run repeats as
// traced.<name>, to show what tracing costs.
var tracedMetrics = []metricDef{
	{"wall_s", "s"},
	{"msgs_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
}

// report is what a workload measured: end-to-end values, per-layer
// values (traced runs only), operation counts, and the inputs drawn
// from the seed and the run's conditions, so a run can be replayed and
// judged.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	inputs    map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, inputs: map[string]any{}}
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emitted selects the metrics this run reports: every end-to-end
// metric untraced, every per-layer metric traced. A metric a workload
// does not exercise reads 0 (only per-layer metrics may).
func (r *report) emitted(trace bool) map[string]metric {
	out := map[string]metric{}
	if !trace {
		for _, d := range e2eMetrics {
			out[d.name] = metric{r.e2e[d.name], d.unit}
		}
		return out
	}
	for _, d := range layerMetrics() {
		out[d.name] = metric{r.layer[d.name], d.unit}
	}
	return out
}

// hostInfo is the fingerprint every result records: figures are only
// comparable between runs on the same host.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuTicks returns the host's stolen and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// maxRSSMB is the process's peak resident set size. It is a per-layer
// metric: where the garbage collector happens to run moves it too much
// between runs to gate on.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 20, "measured duration")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", "", "directory for the result record and spans (optional)")
	)
	if startupProbe() {
		return
	}
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "repobench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "repobench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		name:    w.name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     *out,
	}
	if err := run(w, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// run executes one workload and prints its metrics, ending with the
// JSON result line.
func run(w workload, cfg runConfig) error {
	host := fingerprint()
	hostJSON, _ := json.Marshal(host) // a struct of plain fields always marshals
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Printf("why: %s\n", w.why)
	steal0, total0 := cpuTicks()
	rep, err := w.run(cfg)
	if err != nil {
		return err
	}
	steal1, total1 := cpuTicks()
	if total1 > total0 {
		// Time the hypervisor gave this host's CPUs to other guests, a
		// cause of run-to-run spread on shared hosts.
		share := float64(steal1-steal0) / float64(total1-total0)
		rep.inputs["host_steal_share"] = share
		fmt.Printf("host cpu steal during the run: %.2f%%\n", share*100)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.emitted(cfg.trace),
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	printTable("end-to-end", e2eMetrics, rep.e2e)
	// The tail is reported but not gated: host load episodes move it far
	// more than the median (traced.op_p99_ms is its per-layer copy).
	fmt.Printf("  %-36s %14.6g ms (not gated)\n", "op_p99_ms", rep.e2e["op_p99_ms"])
	if cfg.trace {
		printTable("per-layer", layerMetrics(), rep.layer)
		printOverhead(cfg, w.name, rep)
	}
	fmt.Printf("failed_ratio = %.6f (%d of %d attempted)\n", ratio(rep.failed, rep.attempted), rep.failed, rep.attempted)
	if cfg.out != "" {
		if err := writeRecord(cfg, w.name, host, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("-- %s --\n", title)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// record is the full result written beside the JSON line: host, seed,
// the inputs drawn from it, and every metric measured.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Inputs    map[string]any     `json:"inputs"`
}

func recordPath(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-trace%d.json", workload, t))
}

func writeRecord(cfg runConfig, name string, host hostInfo, rep *report) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rec := record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Host: host, Attempted: rep.attempted, Failed: rep.failed,
		EndToEnd: rep.e2e, Inputs: rep.inputs,
	}
	if cfg.trace {
		rec.PerLayer = rep.layer
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(cfg.out, name, cfg.trace), append(blob, '\n'), 0o644)
}

// printOverhead compares the traced run's end-to-end figures with the
// last untraced run of the same workload in the same output directory:
// the difference is what tracing costs.
func printOverhead(cfg runConfig, name string, rep *report) {
	if cfg.out == "" {
		return
	}
	blob, err := os.ReadFile(recordPath(cfg.out, name, false))
	if err != nil {
		fmt.Println("tracing overhead: no untraced run recorded yet")
		return
	}
	var base record
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Printf("tracing overhead: unreadable untraced record: %v\n", err)
		return
	}
	fmt.Printf("tracing overhead vs untraced run (seed %d):\n", base.Seed)
	for _, d := range tracedMetrics {
		b, t := base.EndToEnd[d.name], rep.e2e[d.name]
		if b != 0 {
			fmt.Printf("  %-12s untraced %.6g traced %.6g (%+.1f%%)\n", d.name, b, t, (t/b-1)*100)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
