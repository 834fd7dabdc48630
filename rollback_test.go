package coemu_test

import (
	"testing"

	"coemu"
)

// Differential tests for the rollback store. The contract under test:
// every restore returns the leader — memory pages, PRNGs, masters,
// predictor and clock — to exactly its stored state, so the committed
// trace equals the unsplit reference bus cycle for cycle and every
// modeled metric is bit-identical whatever the host-side batch cap.
// The Delta names date from the dirty-delta snapshot ring these checks
// were first written against; the shadow store that replaced it stores
// every component at every transition, the ring's cadence-1 reference
// path, and each test now holds that single store to the reference.

// TestDeltaSweepBitIdentical runs every example spec as written, with
// its organic rollbacks, and requires the committed trace to equal the
// reference. A second row crosses it with single-step batching, so
// every host fast path is off at once, and requires a byte-identical
// report with the same store and restore counts.
func TestDeltaSweepBitIdentical(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			sweepStore(t, sp, nil, []int{0, 1})
		})
	}
}

// TestDeltaSweepUnderInjectedFaultStorm repeats the check under a
// pinned-accuracy rollback storm on every example spec: with every
// other prediction check injected wrong, each transition's store is
// restored almost as often as it is taken. The storm must roll back
// and must change nothing across the batch-cap grid.
func TestDeltaSweepUnderInjectedFaultStorm(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			inject := func(c *coemu.Config) { c.Accuracy = 0.5; c.FaultSeed = 3 }
			rep := sweepStore(t, sp, inject, batchSweep)
			if sp.Run.Mode != "conservative" && rep.Stats.Rollbacks == 0 {
				t.Fatal("fault storm produced no rollbacks; the sweep would prove nothing")
			}
		})
	}
}

// sweepStore runs sp with mutate applied and the committed trace kept
// under the protocol checker, once per batch cap in caps (0 keeps the
// spec's own cap). The first run must commit exactly the unsplit
// reference bus's trace; every later run must reproduce its report
// byte for byte with the same store, restore and rollback counts. It
// returns the first run's report.
func sweepStore(t *testing.T, sp *coemu.Spec, mutate func(*coemu.Config), caps []int) *coemu.Report {
	t.Helper()
	run := func(k int) ([]byte, *coemu.Report) {
		return runSpec(t, sp, func(c *coemu.Config) {
			if mutate != nil {
				mutate(c)
			}
			c.KeepTrace, c.CheckProtocol = true, true
			if k != 0 {
				c.CycleBatch = k
			}
		})
	}
	want, wantRep := run(caps[0])
	d, _, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coemu.RunReference(d, sp.Run.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, ref, wantRep.Trace)
	for _, k := range caps[1:] {
		got, gotRep := run(k)
		if gotRep.Stats.Stores != wantRep.Stats.Stores ||
			gotRep.Stats.Restores != wantRep.Stats.Restores ||
			gotRep.Stats.Rollbacks != wantRep.Stats.Rollbacks {
			t.Errorf("K=%d: %d stores/%d restores/%d rollbacks, K=%d has %d/%d/%d",
				k, gotRep.Stats.Stores, gotRep.Stats.Restores, gotRep.Stats.Rollbacks,
				caps[0], wantRep.Stats.Stores, wantRep.Stats.Restores, wantRep.Stats.Rollbacks)
		}
		if string(got) != string(want) {
			t.Errorf("K=%d report differs from K=%d:\nK=%d: %s\nK=%d: %s", k, caps[0], k, got, caps[0], want)
		}
	}
	return wantRep
}

// leaderStream is a write stream mastered from the accelerator side.
func leaderStream(gap int) coemu.MasterSpec {
	return coemu.MasterSpec{
		Name:   "dma",
		Domain: coemu.AccDomain,
		NewGen: func() coemu.Generator {
			return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
				coemu.BurstIncr8, coemu.Size32, 0, gap, 0)
		},
	}
}

// TestDeltaSweepOrganicStorm runs a jittery slave the wait model
// cannot track: the leader rolls back organically, by distances that
// vary with the jitter PRNG.
func TestDeltaSweepOrganicStorm(t *testing.T) {
	checkRollbackTrace(t, coemu.Design{
		Masters: []coemu.MasterSpec{leaderStream(0)},
		Slaves: []coemu.SlaveSpec{{
			Name:      "flaky",
			Domain:    coemu.SimDomain,
			Region:    coemu.Region{Lo: 0, Hi: 0x80000},
			New:       func() coemu.Slave { return coemu.NewJitterMemory("flaky", 1, 2, 7) },
			WaitFirst: 1, WaitNext: 1,
		}},
	}, coemu.Config{Mode: coemu.ALS}, 20000)
}

// TestDeltaSweepMemoryInLeader puts the writer and the written memory
// both in the leader, so every injected rollback rewinds the memory's
// copy-on-write page stash.
func TestDeltaSweepMemoryInLeader(t *testing.T) {
	checkRollbackTrace(t, coemu.Design{
		Masters: []coemu.MasterSpec{leaderStream(0)},
		Slaves: []coemu.SlaveSpec{{
			Name:   "mem",
			Domain: coemu.AccDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}, coemu.Config{Mode: coemu.ALS, Accuracy: 0.5, FaultSeed: 3}, 10000)
}

// TestDeltaTraceEquivalence runs a gapped stream under injected
// faults, so restores also land inside batched idle stretches.
func TestDeltaTraceEquivalence(t *testing.T) {
	checkRollbackTrace(t, gappedStreamDesign(0),
		coemu.Config{Mode: coemu.ALS, Accuracy: 0.6, FaultSeed: 17}, 10000)
}

// checkRollbackTrace runs d under cfg with the committed trace kept
// under the protocol checker, requires rollbacks, and requires the
// trace to equal the unsplit reference bus cycle for cycle.
func checkRollbackTrace(t *testing.T, d coemu.Design, cfg coemu.Config, cycles int64) {
	t.Helper()
	ref, err := coemu.RunReference(d, cycles)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KeepTrace, cfg.CheckProtocol = true, true
	rep, err := coemu.Run(d, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("no rollbacks; the comparison would prove nothing")
	}
	checkTrace(t, ref, rep.Trace)
}

// checkTrace requires got to be cycle-identical to the reference ref.
func checkTrace(t *testing.T, ref, got []coemu.CycleState) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%d trace records, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		if !got[i].Equal(ref[i]) {
			t.Fatalf("trace diverges from the reference at cycle %d:\nref: %s\ngot: %s", i, ref[i], got[i])
		}
	}
}
