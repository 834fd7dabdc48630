package coemu_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"coemu"
	"coemu/internal/service"
	"coemu/internal/trace"
)

// Differential tests for the predicted-quiescence cycle batching and
// the channel loopback fast path. The contract under test: every
// modeled metric — the virtual-time ledger with its per-category
// charge counts, all behavioral counters (rollbacks included), channel
// statistics, LOB peak, histograms — is bit-identical whatever the
// batch cap, and whether packets really cross the wire codec or take
// the in-process loopback. The comparison serializes reports through
// the service's deterministic JSON view and requires byte equality.

// batchSweep is the batch-cap grid: 1 (batching disabled — the
// single-step reference), a boundary value, a prime that misaligns
// with every workload gap, and the default.
var batchSweep = []int{1, 2, 7, 64}

// exampleSpecs loads every examples/*/spec.json.
func exampleSpecs(t *testing.T) map[string]*coemu.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("examples", "*", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found")
	}
	specs := make(map[string]*coemu.Spec, len(paths))
	for _, p := range paths {
		sp, err := coemu.LoadSpec(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs[filepath.Base(filepath.Dir(p))] = sp
	}
	return specs
}

// runSpec executes a compiled spec with the given config overrides and
// returns the deterministic JSON projection of its report plus the raw
// report for targeted assertions.
func runSpec(t *testing.T, sp *coemu.Spec, mutate func(*coemu.Config)) ([]byte, *coemu.Report) {
	t.Helper()
	d, cfg, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := coemu.Run(d, cfg, sp.Run.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(service.NewReportView(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b, rep
}

// batchCase is one row of the batch-cap sweep: a spec plus config
// overrides applied to the reference and to every swept run alike.
type batchCase struct {
	sp     *coemu.Spec
	mutate func(*coemu.Config)
}

// batchCases is every example spec as written, plus multimaster on the
// engine paths no example selects: lockstep conservative mode,
// paper-strict transitions and an attached protocol tracer.
func batchCases(t *testing.T) map[string]batchCase {
	t.Helper()
	specs := exampleSpecs(t)
	cases := make(map[string]batchCase, len(specs)+3)
	for name, sp := range specs {
		cases[name] = batchCase{sp: sp}
	}
	mm := specs["multimaster"]
	cases["multimaster/conservative"] = batchCase{mm, func(c *coemu.Config) { c.Mode = coemu.Conservative }}
	cases["multimaster/paper-strict"] = batchCase{mm, func(c *coemu.Config) { c.PaperStrictTransitions = true }}
	cases["multimaster/traced"] = batchCase{mm, func(c *coemu.Config) { c.Tracer = trace.NewRecorder(1 << 16) }}
	return cases
}

// TestBatchSweepBitIdentical sweeps the batch cap over every batch
// case and asserts bit-identical reports — and, explicitly, identical
// rollback counts — against the single-step reference (CycleBatch=1).
func TestBatchSweepBitIdentical(t *testing.T) {
	for name, bc := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			run := func(k int) ([]byte, *coemu.Report) {
				return runSpec(t, bc.sp, func(c *coemu.Config) {
					if bc.mutate != nil {
						bc.mutate(c)
					}
					c.CycleBatch = k
				})
			}
			want, wantRep := run(1)
			for _, k := range batchSweep[1:] {
				got, gotRep := run(k)
				if gotRep.Stats.Rollbacks != wantRep.Stats.Rollbacks {
					t.Errorf("K=%d: %d rollbacks, single-step has %d",
						k, gotRep.Stats.Rollbacks, wantRep.Stats.Rollbacks)
				}
				if string(got) != string(want) {
					t.Errorf("K=%d report differs from single-step:\nK=%d: %s\nK=1:  %s", k, k, got, want)
				}
			}
		})
	}
}

// runDesign executes a closure-built design and returns the
// deterministic JSON projection of its report plus the raw report.
func runDesign(t *testing.T, d coemu.Design, cfg coemu.Config, cycles int64) ([]byte, *coemu.Report) {
	t.Helper()
	rep, err := coemu.Run(d, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(service.NewReportView(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b, rep
}

// TestBatchSweepBitIdenticalIdleHeavy is the non-vacuous half of the
// differential suite: the example specs are busy workloads on which
// the fast path rarely fires, so this sweep runs an idle-heavy gapped
// stream (the BenchmarkCycleBatching design) where most cycles batch,
// asserts the fast path really fired, and still requires bit-identical
// reports against the single-step reference.
func TestBatchSweepBitIdenticalIdleHeavy(t *testing.T) {
	const cycles = 20000
	for _, mode := range []coemu.Mode{coemu.ALS, coemu.SLA, coemu.Auto, coemu.Conservative} {
		t.Run(mode.String(), func(t *testing.T) {
			want, _ := runDesign(t, gappedStreamDesign(48),
				coemu.Config{Mode: mode, CycleBatch: 1}, cycles)
			for _, k := range batchSweep[1:] {
				got, rep := runDesign(t, gappedStreamDesign(48),
					coemu.Config{Mode: mode, CycleBatch: k}, cycles)
				if rep.Stats.BatchedCycles == 0 {
					t.Errorf("K=%d: fast path never fired on the idle-heavy design; the differential is vacuous", k)
				}
				if string(got) != string(want) {
					t.Errorf("K=%d report differs from single-step:\nK=%d: %s\nK=1:  %s", k, k, got, want)
				}
			}
		})
	}
}

// TestBatchSweepBitIdenticalUnderInjectedFaults repeats the sweep with
// the fault injector active (accuracy pinned below 1), the regime
// where follow-up batching must disable itself so the injector draws
// its per-check randomness cycle by cycle.
func TestBatchSweepBitIdenticalUnderInjectedFaults(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	inject := func(c *coemu.Config) { c.Accuracy = 0.9; c.FaultSeed = 41 }
	want, wantRep := runSpec(t, sp, func(c *coemu.Config) { inject(c); c.CycleBatch = 1 })
	if wantRep.Stats.Rollbacks == 0 {
		t.Fatal("injector produced no rollbacks; the sweep would prove nothing")
	}
	for _, k := range batchSweep[1:] {
		got, _ := runSpec(t, sp, func(c *coemu.Config) { inject(c); c.CycleBatch = k })
		if string(got) != string(want) {
			t.Errorf("K=%d report differs from single-step under injected faults", k)
		}
	}
}

// TestBatchSweepBitIdenticalUnderAdaptiveGovernor pins the governor
// interaction: on the cycle where the misprediction EWMA decays across
// the adaptive threshold, the seed's leader choice was made under
// back-off (predictors never consulted) while the next single-step
// choice would consult them — a stretch must never batch across that
// edge. The scenario forces frequent governor flips (injected faults)
// on an idle-heavy stream where conservative stretches batch hard.
func TestBatchSweepBitIdenticalUnderAdaptiveGovernor(t *testing.T) {
	const cycles = 50000
	cfgFor := func(k int) coemu.Config {
		return coemu.Config{Mode: coemu.ALS, PredictIdle: true, Adaptive: true,
			Accuracy: 0.5, FaultSeed: 9, CycleBatch: k}
	}
	want, wantRep := runDesign(t, gappedStreamDesign(48), cfgFor(1), cycles)
	if wantRep.Stats.Rollbacks == 0 || wantRep.Stats.ConservativeCycles == 0 {
		t.Fatal("scenario exercises neither the governor nor rollbacks; it would prove nothing")
	}
	for _, k := range batchSweep[1:] {
		got, rep := runDesign(t, gappedStreamDesign(48), cfgFor(k), cycles)
		if rep.Stats.BatchedCycles == 0 {
			t.Errorf("K=%d: fast path never fired", k)
		}
		if string(got) != string(want) {
			t.Errorf("K=%d report differs from single-step under the adaptive governor", k)
		}
	}
}

// TestWireCodecDifferential pins the loopback fast path against the
// real wire codec: forcing every packet through pack/unpack must yield
// byte-identical reports on every example, for both the single-step
// and the batched engine.
func TestWireCodecDifferential(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 64} {
				loop, _ := runSpec(t, sp, func(c *coemu.Config) { c.CycleBatch = k })
				wire, _ := runSpec(t, sp, func(c *coemu.Config) { c.CycleBatch = k; c.WirePackets = true })
				if string(loop) != string(wire) {
					t.Errorf("K=%d: loopback report differs from wire-codec report:\nloopback: %s\nwire:     %s", k, loop, wire)
				}
			}
		})
	}
}

// TestBatchedTraceEquivalence runs the most idle-heavy example with
// tracing and the protocol checker on, at batched and single-step
// caps, and requires cycle-identical traces — the batched path must
// reproduce not just the metrics but the committed MSABS stream.
func TestBatchedTraceEquivalence(t *testing.T) {
	sp := exampleSpecs(t)["multimaster"]
	d, cfg, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.KeepTrace = true
	cfg.CheckProtocol = true
	cycles := int64(5000)

	cfg.CycleBatch = 1
	single, err := coemu.Run(d, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.CycleBatch = 64
	batched, err := coemu.Run(d2, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Trace) != len(batched.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(single.Trace), len(batched.Trace))
	}
	for i := range single.Trace {
		if !single.Trace[i].Equal(batched.Trace[i]) {
			t.Fatalf("trace diverged at cycle %d", i)
		}
	}
}
