package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
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

// coverBeats returns, per master, the beats its generator needs to
// address every window of the spec once: the traffic after which a
// memory slave stops touching pages for the first time (ip.Memory
// allocates each 4 KiB page lazily). A sequential generator covers its
// windows in exactly that many beats; random traffic draws as many.
func coverBeats(t *testing.T, name string) map[string]int64 {
	t.Helper()
	s, err := spec.Load(filepath.Join("..", "..", "examples", name, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	beats := make(map[string]int64)
	for _, m := range s.Design.Masters {
		g := m.Generator
		wins := append([]spec.Window(nil), g.Windows...)
		for _, w := range []*spec.Window{g.Window, g.Src, g.Dst} {
			if w != nil {
				wins = append(wins, *w)
			}
		}
		beatBytes := int64(4)
		if g.Bits != 0 {
			beatBytes = int64(g.Bits / 8)
		}
		for _, w := range wins {
			beats[m.Name] += int64(w.Hi-w.Lo) / beatBytes
		}
	}
	return beats
}

// uncovered names the masters of e that have not yet completed their
// cover beats, with their progress; it is empty once all have.
func uncovered(e *core.Engine, beats map[string]int64) []string {
	var left []string
	for id := core.SimDomain; id <= core.AccDomain; id++ {
		for _, m := range e.Domain(id).Masters() {
			if done, _, _ := m.Stats(); done < beats[m.Name()] {
				left = append(left, fmt.Sprintf("%s (%d of %d beats)", m.Name(), done, beats[m.Name()]))
			}
		}
	}
	return left
}

// TestExampleStepsAllocFree extends the engine's zero-alloc guards
// (alloc_test.go) to every example spec in every mode: arbitration
// among several masters, randomized and copying generators, interrupt
// peripherals, SPLIT slaves and organic rollbacks. Once warm, a step
// of the cycle loop — the once-per-transition store of every
// component included — must not allocate. Warm means that every
// master's traffic has covered its windows, so memory pages are no
// longer allocated on first touch.
func TestExampleStepsAllocFree(t *testing.T) {
	const cycles = 1 << 30
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found")
	}
	for _, p := range paths {
		name := filepath.Base(filepath.Dir(p))
		for _, mode := range []core.Mode{core.Auto, core.ALS, core.SLA, core.Conservative} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				e := exampleEngine(t, name, mode)
				beats := coverBeats(t, name)
				// AllocsPerRun rounds down to whole objects per run, so
				// each run covers 100 steps: a store that allocates on
				// only some of them still shows.
				steps := func() {
					for i := 0; i < 100; i++ {
						if err := e.Step(cycles); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Every step commits at least one cycle and a master
				// completes at most one beat per cycle; the examples
				// cover their beats within 7 steps per beat (conservative
				// multimaster, where three masters share the bus), so 16
				// is a stall, not a slow warm-up.
				var total int64
				for _, b := range beats {
					total += b
				}
				for i := 0; i < 30 || len(uncovered(e, beats)) > 0; i++ {
					if int64(i)*100 > 16*total {
						t.Fatalf("%d steps did not cover the spec's windows; unfinished: %v", i*100, uncovered(e, beats))
					}
					steps()
				}
				if allocs := testing.AllocsPerRun(20, steps); allocs != 0 {
					t.Fatalf("100 %s steps in %v mode allocated %.0f objects, want 0", name, mode, allocs)
				}
			})
		}
	}
}

// warmupAllocBound caps the objects a fresh multimaster engine may
// allocate over its first warmupCycles, from Run start to the returned
// report. Measured at 81 (one-time growth of the beat logs, histogram
// buckets, data pools and the report itself); the bound adds a margin
// of 40. A per-transition snapshot store that allocates while it warms
// up — as the boxed 16-slot delta ring did, at 542 objects over the
// same run — breaks it.
const (
	warmupCycles     = 500
	warmupAllocBound = 81 + 40
)

// TestExampleRunWarmupAllocs is the warm-up companion of
// TestExampleStepsAllocFree: that test pins the warm steady state at
// zero, this one bounds what a fresh engine allocates getting there.
func TestExampleRunWarmupAllocs(t *testing.T) {
	e := exampleEngine(t, "multimaster", core.Auto)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := e.Run(warmupCycles)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Stores == 0 {
		t.Fatal("no snapshot stores; the guard would prove nothing")
	}
	if n := after.Mallocs - before.Mallocs; n > warmupAllocBound {
		t.Fatalf("a fresh multimaster run of %d cycles allocated %d objects (%d stores), bound %d",
			warmupCycles, n, rep.Stats.Stores, warmupAllocBound)
	}
}

// TestMispredictAttributionSums checks the misprediction attribution's
// accounting identity on every example spec: the per-signal organic
// counts sum to Mispredicts - Injected, with the examples' organic
// accuracy and with a pinned accuracy that adds injected misses.
func TestMispredictAttributionSums(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("found %d example specs, want 5", len(paths))
	}
	for _, p := range paths {
		name := filepath.Base(filepath.Dir(p))
		for _, acc := range []float64{0, 0.9} {
			t.Run(fmt.Sprintf("%s/accuracy=%v", name, acc), func(t *testing.T) {
				s, err := spec.Load(p)
				if err != nil {
					t.Fatal(err)
				}
				d, cfg, err := s.Compile()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Accuracy = acc
				e, err := core.NewEngine(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := e.Run(s.Run.Cycles)
				if err != nil {
					t.Fatal(err)
				}
				st := rep.Stats
				var sum int64
				for _, n := range st.MispredictsBySignal {
					sum += n
				}
				if sum != st.Mispredicts-st.Injected {
					t.Fatalf("signal classes sum to %d, Mispredicts %d - Injected %d = %d (%v)",
						sum, st.Mispredicts, st.Injected, st.Mispredicts-st.Injected, st.MispredictsBySignal)
				}
				if acc != 0 && st.Injected == 0 {
					t.Fatal("pinned accuracy injected no misses; the identity was checked without them")
				}
			})
		}
	}
}
