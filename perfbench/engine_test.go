package main

import (
	"math"
	"testing"
	"time"
)

// cleanPool is a pool run half with no failures.
func cleanPool() *poolRun {
	return &poolRun{attempted: 1000, wall: time.Second}
}

func TestTracedOutcomeCountsDaemonPhaseFailures(t *testing.T) {
	o := tracedOutcome(cleanPool(), cleanPool(), &layerPassResult{}, nil)
	if !o.correct() || o.attempted != 2000 {
		t.Fatalf("clean traced run: correct=%v attempted=%d", o.correct(), o.attempted)
	}
	o.add(&outcome{
		attempted: 1040, failed: 3,
		problems: []string{"fresh request (doc 140): report bytes differ from the in-process oracle"},
		metrics:  map[string]float64{"service.engine_runs": 1050},
	})
	if o.correct() {
		t.Errorf("a daemon phase with failed operations left the traced run correct")
	}
	if o.attempted != 3040 || o.failed != 3 || len(o.problems) != 1 {
		t.Errorf("attempted=%d failed=%d problems=%v, want 3040, 3 and one problem", o.attempted, o.failed, o.problems)
	}
	if o.metrics["service.engine_runs"] != 1050 || o.metrics["trace.overhead_share"] != 0 {
		t.Errorf("metrics not merged: %v", o.metrics)
	}

	// An accounting mismatch is a problem without a failed operation.
	o = tracedOutcome(cleanPool(), cleanPool(), &layerPassResult{}, nil)
	o.add(&outcome{attempted: 1000, problems: []string{"service accounting: engine_runs delta 1049, benchmark sent 1050"}})
	if o.correct() {
		t.Errorf("an accounting problem in the daemon phase left the traced run correct")
	}
}

func TestTracedOutcomeReportsProbeFailures(t *testing.T) {
	lp := &layerPassResult{probeErrs: []string{"layer pass spec 0, domain 0: domain probe: boom"}}
	o := tracedOutcome(cleanPool(), cleanPool(), lp, nil)
	if o.correct() || len(o.problems) != 1 {
		t.Errorf("a failed domain probe gave correct=%v problems=%v", o.correct(), o.problems)
	}
}

// TestEngineKindsKeepExampleProfile checks that cutting each engine
// kind down from its example's run length keeps the Report-derived
// profile the workloads are chosen for: transition, rollback, batching
// and channel rates, prediction accuracy and the modeled rate.
func TestEngineKindsKeepExampleProfile(t *testing.T) {
	for _, k := range append(append([]poolKind(nil), engineRollbackKinds...), engineStreamKinds...) {
		var short, full counts
		for seed := uint64(1); seed <= 4; seed++ {
			for _, v := range []struct {
				cycles int64
				c      *counts
			}{{k.cycles, &short}, {k.exampleCycles, &full}} {
				doc := mustJSON(k.gen(newSpecGen(seed, 1), v.cycles))
				_, rep, _, err := specToReport(doc, nil, -1, nil)
				if err != nil {
					t.Fatalf("%s at %d cycles: %v", k.name, v.cycles, err)
				}
				v.c.add(rep)
			}
		}
		s, f := short.layerRatios(), full.layerRatios()
		s["modeled_cyc_per_s"], f["modeled_cyc_per_s"] = short.modeledCycPerSec(), full.modeledCycPerSec()
		for name, want := range f {
			if name == "core.lob_peak_words" {
				continue // a peak, not a rate
			}
			if got := s[name]; math.Abs(got-want) > 0.05*math.Abs(want)+0.02 {
				t.Errorf("%s: %s = %.4g at %d cycles, %.4g at the example's %d", k.name, name, got, k.cycles, want, k.exampleCycles)
			}
		}
	}
}
