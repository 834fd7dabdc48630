// Command perfbench is the repository benchmark: it measures the
// spec-to-report path in-process (engine-rollback, engine-stream),
// through coemud's HTTP API (service-mix) and across processes over TCP
// (remote-tcp), and checks every report it receives against an
// in-process oracle. BENCHMARK.json lists the two in-process workloads;
// RATIONALE.md says why and where the daemon layers are measured. Run
// it through run.sh, which builds it and coemud:
//
//	bash perfbench/run.sh --workload engine-rollback --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separate traced run of an in-process workload prints the per-layer
// metrics, the tracing overhead and the probe-attributed host-time
// split. The engine-stream traced run also drives coemud over HTTP and
// over TCP, so it measures the service, store, tcpchan and remote
// layers; service-mix and remote-tcp run untraced only. The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. RATIONALE.md records why each workload and
// metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cyc_per_s", "cyc/s"},
	{"modeled_cyc_per_s", "cyc/s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by module. The
// service, store, tcpchan and remote metrics are measured by the
// engine-stream traced run; the engine-rollback traced run reports 0
// for them.
var perLayer = []metricDef{
	{"spec.parse_us", "us"},
	{"spec.hash_us", "us"},
	{"spec.compile_us", "us"},
	{"core.new_engine_us", "us"},
	{"core.run_ns_per_cyc", "ns/cyc"},
	{"core.allocs_per_kcyc", "1/kcyc"},
	{"core.alloc_bytes_per_kcyc", "B/kcyc"},
	{"core.transitions_per_kcyc", "1/kcyc"},
	{"core.rollforth_ratio", "ratio"},
	{"core.batched_ratio", "ratio"},
	{"core.conservative_ratio", "ratio"},
	{"core.lob_peak_words", "words"},
	{"core.unattributed_share", "ratio"},
	{"bus.ref_ns_per_cyc", "ns/cyc"},
	{"bus.evaluate_ns", "ns"},
	{"bus.commit_ns", "ns"},
	{"predict.predict_ns", "ns"},
	{"predict.accuracy", "ratio"},
	{"predict.declines_per_kcyc", "1/kcyc"},
	{"rollback.snapshot_ns", "ns"},
	{"rollback.restore_ns", "ns"},
	{"rollback.stores_per_kcyc", "1/kcyc"},
	{"rollback.restores_per_kcyc", "1/kcyc"},
	{"channel.accesses_per_kcyc", "1/kcyc"},
	{"channel.words_per_access", "words"},
	{"vclock.channel_share", "ratio"},
	{"vclock.store_share", "ratio"},
	{"vclock.restore_share", "ratio"},
	{"service.fresh_p50_ms", "ms"},
	{"service.cache_hit_p50_ms", "ms"},
	{"service.store_hit_p50_ms", "ms"},
	{"service.sweep_point_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.job_p50_ms", "ms"},
	{"service.engine_runs", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"store.read_p50_ms", "ms"},
	{"store.write_p50_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.entries", "count"},
	{"tcpchan.frames_per_kcyc", "1/kcyc"},
	{"tcpchan.rtt_mean_us", "us"},
	{"tcpchan.rtt_p99_us", "us"},
	{"tcpchan.retransmits", "count"},
	{"tcpchan.resyncs", "count"},
	{"remote.us_per_access", "us"},
	{"remote.session_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"probe.evaluate_share", "ratio"},
	{"probe.commit_share", "ratio"},
	{"probe.snapshot_share", "ratio"},
	{"probe.predict_share", "ratio"},
}

// opTimeout bounds one operation against a daemon, so a wedged session
// or request fails the run instead of hanging it.
const opTimeout = 30 * time.Second

// minOps is the fewest operations an untraced run times: one latency
// block.
const minOps = latencyBlock

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	duration time.Duration
	traced   bool
	coemud   string
	dir      string // this run's output directory
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string // extra human-readable lines
	spans             []span
	split             []splitRow
	lat               []float64 // seconds per timed operation, untraced runs
}

// add folds a sub-run's operations, failures, problems, notes and
// metrics into o.
func (o *outcome) add(sub *outcome) {
	o.attempted += sub.attempted
	o.failed += sub.failed
	o.problems = append(o.problems, sub.problems...)
	o.notes = append(o.notes, sub.notes...)
	for k, v := range sub.metrics {
		o.metrics[k] = v
	}
}

// correct is the result line's verdict: no operation failed and no
// check reported a problem.
func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "engine-rollback, engine-stream, service-mix or remote-tcp")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	coemud := flag.String("coemud", "", "coemud binary (service-mix and remote-tcp)")
	out := flag.String("out", ".bench_out", "directory for per-run inputs, results and spans")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag, *coemud, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, traceFlag int, coemud, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	in, err := inputsFor(workload, seed)
	if err != nil {
		return err
	}
	inProcess := workload == "engine-rollback" || workload == "engine-stream"
	if traceFlag == 1 && !inProcess {
		return fmt.Errorf("--trace 1: %s has no traced run; the engine-stream traced run measures its layers", workload)
	}
	rc := &runConfig{
		workload: workload, seed: seed, duration: time.Duration(seconds) * time.Second,
		traced: traceFlag == 1, coemud: coemud,
		dir: filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traceFlag)),
	}
	if err := os.RemoveAll(rc.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return err
	}
	if inProcess {
		// These workloads run one engine goroutine. One P keeps the
		// collector's work on that goroutine's CPU, in the measured
		// operations, instead of in stop-the-world handshakes with a
		// second vCPU whose cost depends on how a shared host schedules
		// it: on a 2-vCPU VM that made the p99 spread several times
		// wider than the p50's.
		runtime.GOMAXPROCS(1)
	}
	mach := fingerprint()
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s\n", mach.CPU, mach.NProc, mach.GOMAXPROCS, mach.Go, mach.Kernel)

	var o *outcome
	switch workload {
	case "engine-rollback", "engine-stream":
		o, err = runEngineWorkload(rc, in)
	case "service-mix":
		o, err = runServiceWorkload(rc, in)
	case "remote-tcp":
		o, err = runRemoteWorkload(rc, in)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	// The service-mix generator appended the rounds it ran (the
	// engine-stream traced run's HTTP phase has its own inputs); the
	// inputs are written after the run so the file holds exactly what
	// was sent.
	if err := writeJSON(filepath.Join(rc.dir, "inputs.json"), in); err != nil {
		return err
	}
	if rc.traced {
		if err := writeSpans(filepath.Join(rc.dir, "spans.jsonl"), o.spans); err != nil {
			return err
		}
	} else if err := writeJSON(filepath.Join(rc.dir, "latencies.json"), o.lat); err != nil {
		return err
	}

	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	res := resultLine{
		Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: o.metrics[d.Name], Unit: d.Unit}
	}
	report(rc, o, res, defs)
	if err := writeJSON(filepath.Join(rc.dir, "result.json"), map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traceFlag,
		"machine": mach, "result": res, "problems": o.problems, "notes": o.notes,
	}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// report prints the human-readable summary that precedes the JSON line.
func report(rc *runConfig, o *outcome, res resultLine, defs []metricDef) {
	fmt.Printf("workload: %s seed=%d traced=%v attempted=%d failed=%d error_rate=%g\n",
		rc.workload, rc.seed, rc.traced, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range defs {
		fmt.Printf("  %-28s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if len(o.split) > 0 {
		fmt.Println("probe-attributed share of Engine.Run host time (beside the pprof split recorded in ROADMAP.md):")
		for _, r := range o.split {
			fmt.Printf("  %-36s %6.1f%%   pprof %s\n", r.Layer, 100*r.Share, r.Pprof)
		}
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Println("PROBLEM:", p)
	}
}

// machine is the fingerprint every result file carries, so numbers
// from different machines are never compared silently.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
