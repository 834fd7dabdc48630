package core

import (
	"fmt"
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
)

// waitStreamDesign is the canonical ALS stream (accelerator-side write
// master, simulator-side memory) with a (first, next) wait profile.
func waitStreamDesign(first, next int) Design {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewMemory("mem", first, next) }
	d.Slaves[0].WaitFirst, d.Slaves[0].WaitNext = first, next
	return d
}

// TestWaitedMemoryStreamPredictsExactly pins the §3 wait model's
// accuracy end to end: against a deterministic wait-state memory every
// HREADY prediction the leader makes must hold, whatever the profile,
// however often the engine probes the predictor per cycle.
func TestWaitedMemoryStreamPredictsExactly(t *testing.T) {
	for _, mode := range []Mode{ALS, Auto} {
		for first := 0; first <= 3; first++ {
			for next := 0; next <= 3; next++ {
				t.Run(fmt.Sprintf("%v/first=%d/next=%d", mode, first, next), func(t *testing.T) {
					rep := runBoth(t, waitStreamDesign(first, next), Config{Mode: mode}, 2000)
					if rep.Stats.ChecksTotal == 0 {
						t.Fatal("no prediction was checked; the test would prove nothing")
					}
					if rep.Stats.Mispredicts != 0 {
						t.Fatalf("%d of %d checks mispredicted (%d rollbacks)",
							rep.Stats.Mispredicts, rep.Stats.ChecksTotal, rep.Stats.Rollbacks)
					}
				})
			}
		}
	}
}

// TestPredictLeavesPredictorClean checks that predicting leaves the
// predictor untouched: before every step of a waited-memory stream,
// each domain's predictor state (shadows included) must be identical
// before and after a PredictInto.
func TestPredictLeavesPredictorClean(t *testing.T) {
	const cycles = 2000
	e, err := NewEngine(waitStreamDesign(2, 1), Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	for e.stats.Committed < cycles {
		for _, d := range e.domains {
			before := d.pred.capture()
			var ps amba.PartialState
			if d.pred.PredictInto(&ps) == DeclineNone && ps.HasReply {
				replies++
			}
			if !reflect.DeepEqual(before, d.pred.capture()) {
				t.Fatalf("cycle %d: domain %v predictor moved by PredictInto", e.stats.Committed, d.ID())
			}
		}
		if err := e.step(cycles); err != nil {
			t.Fatal(err)
		}
	}
	if replies == 0 {
		t.Fatal("no wait-model reply was ever predicted; the test would prove nothing")
	}
}
