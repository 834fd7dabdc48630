package coemu_test

import (
	"testing"

	"coemu"
)

// Differential tests for the dirty-delta incremental snapshots. The
// contract under test: every modeled metric — the virtual-time ledger
// with its per-category charge counts (Store and Restore included),
// all behavioral counters, channel statistics, histograms and traces —
// is bit-identical whatever the delta cadence, and cadence 1
// reproduces the pre-delta full-save path exactly. Comparison is byte
// equality of the service's deterministic JSON report view, exactly as
// in the cycle-batching differential suite.

// deltaSweep is the cadence grid the acceptance criteria name: 1
// (every save full — the pre-delta reference), a short ring, and the
// default.
var deltaSweep = []int{1, 4, 16}

// TestDeltaSweepBitIdentical sweeps the snapshot cadence over every
// example spec and asserts bit-identical reports — and, explicitly,
// identical store/restore charge counts — against the full-save
// reference (DeltaCadence=1). A last row crosses the full-save
// reference with single-step batching, so every host fast path is off
// at once.
func TestDeltaSweepBitIdentical(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			want, wantRep := runSpec(t, sp, func(c *coemu.Config) { c.DeltaCadence = 1 })
			for _, k := range deltaSweep[1:] {
				got, gotRep := runSpec(t, sp, func(c *coemu.Config) { c.DeltaCadence = k })
				if gotRep.Stats.Stores != wantRep.Stats.Stores ||
					gotRep.Stats.Restores != wantRep.Stats.Restores {
					t.Errorf("cadence=%d: %d stores/%d restores, full-save has %d/%d",
						k, gotRep.Stats.Stores, gotRep.Stats.Restores,
						wantRep.Stats.Stores, wantRep.Stats.Restores)
				}
				if string(got) != string(want) {
					t.Errorf("cadence=%d report differs from full-save:\ncadence=%d: %s\ncadence=1: %s", k, k, got, want)
				}
			}
			slow, _ := runSpec(t, sp, func(c *coemu.Config) { c.DeltaCadence = 1; c.CycleBatch = 1 })
			if string(slow) != string(want) {
				t.Errorf("cadence=1 batch=1 report differs from cadence=1 batch=default:\nbatch=1: %s\ndefault: %s", slow, want)
			}
		})
	}
}

// TestDeltaSweepUnderInjectedFaultStorm repeats the sweep under a
// pinned-accuracy rollback storm on every example spec: with every
// other check injected wrong, each transition's snapshot is restored
// almost as often as it is taken, so the delta ring's save, clean-skip
// and restore paths all run hot. The storm must change nothing.
func TestDeltaSweepUnderInjectedFaultStorm(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			inject := func(c *coemu.Config) { c.Accuracy = 0.5; c.FaultSeed = 3 }
			want, wantRep := runSpec(t, sp, func(c *coemu.Config) { inject(c); c.DeltaCadence = 1 })
			if sp.Run.Mode != "conservative" && wantRep.Stats.Rollbacks == 0 {
				t.Fatal("fault storm produced no rollbacks; the sweep would prove nothing")
			}
			for _, k := range deltaSweep[1:] {
				got, gotRep := runSpec(t, sp, func(c *coemu.Config) { inject(c); c.DeltaCadence = k })
				if gotRep.Stats.Rollbacks != wantRep.Stats.Rollbacks {
					t.Errorf("cadence=%d: %d rollbacks, full-save has %d",
						k, gotRep.Stats.Rollbacks, wantRep.Stats.Rollbacks)
				}
				if string(got) != string(want) {
					t.Errorf("cadence=%d report differs from full-save under the fault storm", k)
				}
			}
		})
	}
}

// TestDeltaSweepOrganicStorm pins the cadence sweep on the
// rollback-storm workload: a jittery slave the wait model cannot
// track, so the leader rolls back organically and rollback distances
// vary with the jitter PRNG.
func TestDeltaSweepOrganicStorm(t *testing.T) {
	const cycles = 20000
	jitter := func() coemu.Design {
		return coemu.Design{
			Masters: []coemu.MasterSpec{{
				Name:   "dma",
				Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name:      "flaky",
				Domain:    coemu.SimDomain,
				Region:    coemu.Region{Lo: 0, Hi: 0x80000},
				New:       func() coemu.Slave { return coemu.NewJitterMemory("flaky", 1, 2, 7) },
				WaitFirst: 1, WaitNext: 1,
			}},
		}
	}
	cfg := coemu.Config{Mode: coemu.ALS, KeepTrace: true, CheckProtocol: true, DeltaCadence: 1}
	want, wantRep := runDesign(t, jitter(), cfg, cycles)
	if wantRep.Stats.Rollbacks == 0 {
		t.Fatal("jitter produced no rollbacks; the sweep would prove nothing")
	}
	for _, k := range deltaSweep[1:] {
		cfg.DeltaCadence = k
		got, _ := runDesign(t, jitter(), cfg, cycles)
		if string(got) != string(want) {
			t.Errorf("cadence=%d report differs from full-save on the organic storm", k)
		}
	}
}

// TestDeltaSweepMemoryInLeader puts the written memory inside the
// leader domain — writer master and memory both local to the
// accelerator, the simulator side empty — so every run-ahead cycle
// lands write data in the leader's memory and every injected rollback
// rewinds it through the page-granular copy-on-write undo. The
// write-beat ground truth (the master's completed-beat log) and every
// modeled metric must come out bit-identical at every cadence.
func TestDeltaSweepMemoryInLeader(t *testing.T) {
	const cycles = 10000
	design := func() coemu.Design {
		return coemu.Design{
			Masters: []coemu.MasterSpec{{
				Name:   "dma",
				Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name:   "mem",
				Domain: coemu.AccDomain,
				Region: coemu.Region{Lo: 0, Hi: 0x80000},
				New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
			}},
		}
	}
	cfg := coemu.Config{Mode: coemu.ALS, Accuracy: 0.5, FaultSeed: 3,
		KeepTrace: true, CheckProtocol: true, DeltaCadence: 1}
	want, wantRep := runDesign(t, design(), cfg, cycles)
	if wantRep.Stats.Rollbacks == 0 {
		t.Fatal("injector produced no rollbacks; the sweep would prove nothing")
	}
	for _, k := range deltaSweep[1:] {
		cfg.DeltaCadence = k
		got, _ := runDesign(t, design(), cfg, cycles)
		if string(got) != string(want) {
			t.Errorf("cadence=%d report differs from full-save with the memory in the leader", k)
		}
	}
}

// TestDeltaTraceEquivalence runs a rollback-heavy configuration with
// tracing and the protocol checker on across the cadence grid and
// requires cycle-identical traces — the delta restore must reproduce
// not just the metrics but the committed MSABS stream.
func TestDeltaTraceEquivalence(t *testing.T) {
	const cycles = 10000
	run := func(k int) *coemu.Report {
		rep, err := coemu.Run(gappedStreamDesign(0), coemu.Config{
			Mode: coemu.ALS, Accuracy: 0.6, FaultSeed: 17,
			KeepTrace: true, CheckProtocol: true, DeltaCadence: k,
		}, cycles)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(1)
	if want.Stats.Rollbacks == 0 {
		t.Fatal("no rollbacks; trace equivalence would prove nothing")
	}
	for _, k := range deltaSweep[1:] {
		got := run(k)
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("cadence=%d: %d trace records, full-save has %d", k, len(got.Trace), len(want.Trace))
		}
		for i := range want.Trace {
			if !got.Trace[i].Equal(want.Trace[i]) {
				t.Fatalf("cadence=%d trace diverges at cycle %d:\nfull:  %s\ndelta: %s",
					k, i, want.Trace[i], got.Trace[i])
			}
		}
	}
}
