package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"coemu"
	"coemu/internal/core"
	"coemu/internal/service"
	"coemu/internal/spec"
)

// allocs accumulates runtime.MemStats deltas around Engine.Run, with
// the cycles of the runs they cover.
type allocs struct {
	mallocs, bytes uint64
	cycles         int64
}

// specToReport is one operation of the in-process path: spec JSON in,
// canonical report bytes out, through the public call of each layer.
// It also returns the operation's set-up time: parse, hash, compile
// and engine construction, everything before Engine.Run. Each call gets
// a span when rec is tracing; mem, when non-nil, also takes MemStats
// deltas around Engine.Run (outside the span, since reading them stops
// the world).
func specToReport(doc []byte, rec *spans, parent int, mem *allocs) ([]byte, *core.Report, time.Duration, error) {
	t0 := time.Now()
	s := rec.begin("spec.parse", parent)
	sp, err := spec.Parse(doc)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = rec.begin("spec.hash", parent)
	_, err = sp.CanonicalHash()
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = rec.begin("spec.compile", parent)
	d, cfg, err := sp.Compile()
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = rec.begin("core.new_engine", parent)
	eng, err := core.NewEngine(d, cfg)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	setup := time.Since(t0)
	var before runtime.MemStats
	if mem != nil {
		runtime.ReadMemStats(&before)
	}
	s = rec.begin("core.run", parent)
	rep, err := eng.Run(sp.Run.Cycles)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	rec.setCycles(s, rep.Cycles)
	if mem != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		mem.mallocs += after.Mallocs - before.Mallocs
		mem.bytes += after.TotalAlloc - before.TotalAlloc
		mem.cycles += rep.Cycles
	}
	s = rec.begin("service.encode", parent)
	view, err := service.EncodeReport(rep)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	return view, rep, setup, nil
}

// expected is the correctness oracle's verdict on one spec: the
// canonical report bytes every timed operation must reproduce, and the
// report they encode.
type expected struct {
	View   []byte
	Report *core.Report
	Err    error
}

// oracleRun runs doc once in-process with the MSABS trace kept and the
// protocol checker armed, and checks the paper's cycle-exactness
// property: the co-emulated trace equals the unsplit reference model's.
func oracleRun(doc []byte) expected {
	sp, err := spec.Parse(doc)
	if err != nil {
		return expected{Err: err}
	}
	d, cfg, err := sp.Compile()
	if err != nil {
		return expected{Err: err}
	}
	cfg.KeepTrace = true
	cfg.CheckProtocol = true
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return expected{Err: err}
	}
	rep, err := eng.Run(sp.Run.Cycles)
	if err != nil {
		return expected{Err: err}
	}
	ref, err := coemu.RunReference(d, sp.Run.Cycles)
	if err != nil {
		return expected{Err: err}
	}
	if len(ref) != len(rep.Trace) {
		return expected{Err: fmt.Errorf("co-emulated trace has %d cycles, reference %d", len(rep.Trace), len(ref))}
	}
	for i := range ref {
		if ref[i] != rep.Trace[i] {
			return expected{Err: fmt.Errorf("co-emulated trace differs from the reference at cycle %d", i)}
		}
	}
	rep.Trace = nil
	view, err := service.EncodeReport(rep)
	if err != nil {
		return expected{Err: err}
	}
	return expected{View: view, Report: rep}
}

// oracleAll runs oracleRun over docs on runtime.NumCPU goroutines.
func oracleAll(docs [][]byte) []expected {
	out := make([]expected, len(docs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(docs) {
					return
				}
				out[k] = oracleRun(docs[k])
			}
		}()
	}
	wg.Wait()
	return out
}

// poolRun is the timed loop of a pool workload: whole rounds over
// Inputs.Order, repeated until the run has lasted long enough and timed
// enough operations.
type poolRun struct {
	lat       []float64 // seconds per operation
	setup     []float64 // seconds of in-process set-up, per round
	cycRate   []float64 // committed cycles per second, per round
	opRate    []float64 // operations per second, per round
	first     [][]byte  // each spec's first report bytes
	ops       []int     // operations per spec
	bad       []int     // failed operations per spec
	attempted int
	failed    int
	problems  []string
	wall      time.Duration
}

// opResult is what one pool operation returns: the report bytes, the
// committed cycles, and the in-process set-up time (0 for remote
// sessions).
type opResult struct {
	view   []byte
	cycles int64
	setup  time.Duration
}

// poolOp runs spec i once.
type poolOp func(i int, rec *spans) (opResult, error)

// runPool runs whole rounds of op over in.Order until dur has passed
// and at least minOps operations have run.
func runPool(in *Inputs, dur time.Duration, minOps int, rec *spans, op poolOp) *poolRun {
	specs := len(in.Specs)
	pr := &poolRun{first: make([][]byte, specs), ops: make([]int, specs), bad: make([]int, specs)}
	start := time.Now()
	for time.Since(start) < dur || pr.attempted < minOps {
		roundStart := time.Now()
		var cyc int64
		var setup time.Duration
		for _, i := range in.Order {
			t0 := time.Now()
			res, err := op(i, rec)
			pr.lat = append(pr.lat, time.Since(t0).Seconds())
			pr.attempted++
			pr.ops[i]++
			cyc += res.cycles
			setup += res.setup
			switch {
			case err != nil:
				pr.fail(i, fmt.Sprintf("spec %d: %v", i, err))
			case pr.first[i] == nil:
				pr.first[i] = res.view
			case !bytes.Equal(res.view, pr.first[i]):
				pr.fail(i, fmt.Sprintf("spec %d: report bytes differ between repeats", i))
			}
		}
		wall := time.Since(roundStart)
		pr.wall += wall
		pr.setup = append(pr.setup, setup.Seconds())
		pr.cycRate = append(pr.cycRate, float64(cyc)/wall.Seconds())
		pr.opRate = append(pr.opRate, float64(len(in.Order))/wall.Seconds())
	}
	return pr
}

func (pr *poolRun) fail(i int, msg string) {
	pr.failed++
	pr.bad[i]++
	if len(pr.problems) < 20 {
		pr.problems = append(pr.problems, msg)
	}
}

// verify checks each spec's first report against the oracle; every
// operation of a spec whose bytes differ counts as failed.
func (pr *poolRun) verify(want []expected) {
	for i, got := range pr.first {
		switch {
		case got == nil:
			continue
		case want[i].Err != nil:
			pr.problems = append(pr.problems, fmt.Sprintf("spec %d: oracle: %v", i, want[i].Err))
		case !bytes.Equal(got, want[i].View):
			pr.problems = append(pr.problems, fmt.Sprintf("spec %d: report bytes differ from the in-process oracle", i))
		default:
			continue
		}
		pr.failed += pr.ops[i] - pr.bad[i]
		pr.bad[i] = pr.ops[i]
	}
}

// e2e derives the end-to-end metrics of a pool run. setup_s is the
// median over rounds of the set-up the round's operations did: one
// round sets up each spec of the pool once, and the rounds sample the
// set-up across the whole run, not in one moment of the host's load
// (see RATIONALE.md). modeled comes
// from the oracle's reports: one round runs each spec once, so the
// pool's totals are the round's.
func (pr *poolRun) e2e(want []expected, rssMB float64) (map[string]float64, error) {
	p50, err := blockPercentile(pr.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := blockPercentile(pr.lat, 0.95)
	if err != nil {
		return nil, err
	}
	var c counts
	for _, w := range want {
		if w.Report != nil {
			c.add(w.Report)
		}
	}
	return map[string]float64{
		"setup_s":           median(pr.setup),
		"cyc_per_s":         median(pr.cycRate),
		"modeled_cyc_per_s": c.modeledCycPerSec(),
		"req_per_s":         median(pr.opRate),
		"latency_p50_ms":    p50 * 1e3,
		"latency_p95_ms":    p95 * 1e3,
		"rss_peak_mb":       rssMB,
	}, nil
}

func docsOf(in *Inputs) [][]byte {
	out := make([][]byte, len(in.Specs))
	for i, s := range in.Specs {
		out[i] = s
	}
	return out
}

// engineOp is the pool operation of the engine workloads.
func engineOp(in *Inputs) poolOp {
	return func(i int, rec *spans) (opResult, error) {
		root := rec.begin("op", -1)
		view, rep, setup, err := specToReport(in.Specs[i], rec, root, nil)
		rec.end(root)
		if err != nil {
			return opResult{}, err
		}
		return opResult{view, rep.Cycles, setup}, nil
	}
}

// runEngineWorkload runs engine-rollback or engine-stream.
func runEngineWorkload(rc *runConfig, in *Inputs) (*outcome, error) {
	if !rc.traced {
		return runUntraced(rc, in, engineOp(in), func() (float64, error) { return peakRSSMB("self") })
	}
	return runEngineTraced(rc, in)
}

// runUntraced times a pool workload (engine-* or remote-tcp) and
// reports its end-to-end metrics. rssMB reads the peak RSS of the
// processes that ran the engine.
func runUntraced(rc *runConfig, in *Inputs, op poolOp, rssMB func() (float64, error)) (*outcome, error) {
	pr := runPool(in, rc.duration, minOps, nil, op)
	rss, err := rssMB()
	if err != nil {
		return nil, err
	}
	want := oracleAll(docsOf(in))
	pr.verify(want)
	m, err := pr.e2e(want, rss)
	if err != nil {
		return nil, err
	}
	return &outcome{attempted: pr.attempted, failed: pr.failed, problems: pr.problems, metrics: m, lat: pr.lat,
		notes: []string{p99Note(pr.lat)}}, nil
}

// runEngineTraced is the traced run of an engine workload: half its
// time untraced and half traced, then the layer pass. The engine-stream
// run then also measures the daemon layers (see RATIONALE.md).
func runEngineTraced(rc *runConfig, in *Inputs) (*outcome, error) {
	op := engineOp(in)
	plain := runPool(in, rc.duration/2, 0, nil, op)
	rec := newSpans(time.Now(), 0)
	traced := runPool(in, rc.duration/2, 0, rec, op)
	want := oracleAll(docsOf(in))
	plain.verify(want)
	traced.verify(want)
	lp, err := layerPass(docsOf(in), rec)
	if err != nil {
		return nil, err
	}
	o := tracedOutcome(plain, traced, lp, rec.list)
	if rc.workload == "engine-stream" {
		d, err := daemonLayers(rc, rec)
		if err != nil {
			return nil, err
		}
		o.add(d)
	}
	o.spans = rec.list
	return o, nil
}

// tracedOutcome combines the two halves of a traced pool run and its
// layer pass, with the spans they recorded. A domain probe that failed
// is a problem: its metrics would otherwise read as an unexercised
// module's 0.
func tracedOutcome(plain, traced *poolRun, lp *layerPassResult, all []span) *outcome {
	o := &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		problems:  append(append(append([]string(nil), plain.problems...), traced.problems...), lp.probeErrs...),
		metrics:   lp.metrics(all),
		split:     lp.split,
	}
	o.metrics["trace.overhead_share"] = overhead(plain, traced)
	return o
}

// overhead is the traced run's time per operation over the untraced
// run's, minus one.
func overhead(plain, traced *poolRun) float64 {
	a := plain.wall.Seconds() / float64(plain.attempted)
	b := traced.wall.Seconds() / float64(traced.attempted)
	return b/a - 1
}
