package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/core"
	"coemu/internal/spec"
)

// exampleEngine compiles examples/<name>/spec.json into an engine
// running in mode.
func exampleEngine(t *testing.T, name string, mode core.Mode) *core.Engine {
	t.Helper()
	s, err := spec.Load(filepath.Join("..", "..", "examples", name, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mode
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// prediction is one PredictInto outcome.
type prediction struct {
	ps     amba.PartialState
	reason core.DeclineReason
}

// predictN calls d.PredictInto n times and returns the last outcome,
// failing the test if any call disagrees with the first.
func predictN(t *testing.T, d *core.Domain, n int) prediction {
	t.Helper()
	var first prediction
	for i := 0; i < n; i++ {
		var p prediction
		p.reason = d.PredictInto(&p.ps)
		if i == 0 {
			first = p
		} else if p != first {
			t.Fatalf("domain %v: PredictInto call %d = %+v, first call %+v", d.ID(), i+1, p, first)
		}
	}
	return first
}

// TestPredictIntoIsPure runs each multi-component example twice in
// lockstep, probing every domain's predictor once before each step of
// one engine and three times before each step of the other. The
// predictions, the predictor snapshots and the committed cycle counts
// must agree throughout, and the probes must not move the snapshot.
func TestPredictIntoIsPure(t *testing.T) {
	const cycles = 3000
	for _, name := range []string{"multimaster", "split-latency"} {
		for _, mode := range []core.Mode{core.Conservative, core.SLA, core.ALS, core.Auto} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				once, thrice := exampleEngine(t, name, mode), exampleEngine(t, name, mode)
				for once.Committed() < cycles {
					for id := core.SimDomain; id <= core.AccDomain; id++ {
						d1, d3 := once.Domain(id), thrice.Domain(id)
						before := d3.PredictorSnapshot()
						p1, p3 := predictN(t, d1, 1), predictN(t, d3, 3)
						if p1 != p3 {
							t.Fatalf("cycle %d domain %v: one probe predicts %+v, three predict %+v", once.Committed(), id, p1, p3)
						}
						s1, s3 := d1.PredictorSnapshot(), d3.PredictorSnapshot()
						if !reflect.DeepEqual(before, s3) {
							t.Fatalf("cycle %d domain %v: PredictInto moved the predictor snapshot", once.Committed(), id)
						}
						if !reflect.DeepEqual(s1, s3) {
							t.Fatalf("cycle %d domain %v: snapshots differ after one and three probes", once.Committed(), id)
						}
					}
					if err := once.Step(cycles); err != nil {
						t.Fatal(err)
					}
					if err := thrice.Step(cycles); err != nil {
						t.Fatal(err)
					}
					if once.Committed() != thrice.Committed() {
						t.Fatalf("committed %d after one probe per step, %d after three", once.Committed(), thrice.Committed())
					}
				}
			})
		}
	}
}

// TestMultimasterStepAllocFree extends the engine's zero-alloc guards
// (alloc_test.go) to the multimaster example: arbitration among three
// masters, a randomized CPU generator, an interrupt peripheral and
// rollbacks in auto mode. Once warm, a step of its cycle loop — the
// once-per-transition store of every component included — must not
// allocate.
func TestMultimasterStepAllocFree(t *testing.T) {
	const cycles = 1 << 30
	e := exampleEngine(t, "multimaster", core.Auto)
	// AllocsPerRun rounds down to whole objects per run, so each run
	// covers 100 steps: a store that allocates on only some of them
	// still shows.
	steps := func() {
		for i := 0; i < 100; i++ {
			if err := e.Step(cycles); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 30; i++ {
		steps()
	}
	if allocs := testing.AllocsPerRun(20, steps); allocs != 0 {
		t.Fatalf("100 multimaster steps allocated %.0f objects, want 0", allocs)
	}
}
