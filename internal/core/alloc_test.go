package core

import (
	"context"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/workload"
)

// Allocation-regression guards for the engine hot path. The steady-state
// cycle loop — bus evaluate/commit, channel pack/send/recv/unpack, LOB
// deposit and flush, and the once-per-transition rollback store — must
// not allocate: every buffer is engine-, bus-, channel- or
// registry-owned scratch reused across cycles. These tests pin that
// property so it cannot silently rot.
//
// The only allocations tolerated are amortized container growth that is
// not on the per-cycle path: the master's append-only beat log doubles
// its capacity O(log n) times per run. The warm-up loops below grow
// those containers past what the measured window needs, so the asserted
// bound is exactly zero.

// zeroStream is a write-burst generator with no per-transfer heap state:
// Data stays nil (the master drives zero words), so fetching a transfer
// allocates nothing — unlike workload.Stream, which builds a fresh Data
// slice per write burst. That isolates the engine's own allocations from
// workload-owned ones.
type zeroStream struct {
	lo, hi        amba.Addr
	cursor, saved amba.Addr
}

func (z *zeroStream) Next() (ip.Xfer, bool) {
	x := ip.Xfer{Addr: z.cursor, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8}
	const span = 8 * 4
	z.cursor += span
	if z.cursor+span > z.hi {
		z.cursor = z.lo
	}
	return x, true
}

func (z *zeroStream) Store()   { z.saved = z.cursor }
func (z *zeroStream) Restore() { z.cursor = z.saved }

// allocDesign is the canonical ALS split (acc-side write master, sim-side
// memory) over the zero-alloc generator.
func allocDesign() Design {
	return Design{
		Masters: []MasterSpec{{
			Name:   "dma",
			Domain: AccDomain,
			NewGen: func() ip.Generator { return &zeroStream{lo: 0, hi: 0x4000} },
		}},
		Slaves: []SlaveSpec{{
			Name:   "mem",
			Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x8000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
}

func TestConservativeCycleAllocFree(t *testing.T) {
	e, err := NewEngine(allocDesign(), Config{Mode: Conservative})
	if err != nil {
		t.Fatal(err)
	}
	// Run with a live (non-nil) cancellation channel so the per-cycle
	// context check is measured on its real RunContext configuration.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	// Warm up: grow the scratch buffers, channel pools and the master's
	// beat log well past what the measured window will touch.
	for i := 0; i < 3000; i++ {
		if err := e.conservativeCycle(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state conservative cycles allocated %.1f objects per 100 cycles, want 0", allocs)
	}
}

// TestALSTransitionAllocFreeWorkloadStream runs the same guard over the
// real workload.Stream generator: since its per-burst Data slices are
// pooled (rollback-safely), the full ALS loop — generator included — no
// longer allocates in steady state.
func TestALSTransitionAllocFreeWorkloadStream(t *testing.T) {
	d := allocDesign()
	d.Masters[0].NewGen = func() ip.Generator {
		return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
			amba.BurstIncr8, amba.Size32, 0, 0, 0)
	}
	e, err := NewEngine(d, Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		transition()
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("ALS transition over workload.Stream allocated %.1f objects, want 0", allocs)
	}
}

// TestBatchedPathsAllocFree pins the zero-alloc property on the
// predicted-quiescence fast path: an idle-heavy gapped stream drives
// the run-ahead batch, the follow-up batch and (in conservative mode)
// the conservative stretch batch, and none of them may allocate in
// steady state.
func TestBatchedPathsAllocFree(t *testing.T) {
	for _, mode := range []Mode{ALS, Conservative} {
		t.Run(mode.String(), func(t *testing.T) {
			d := allocDesign()
			d.Masters[0].NewGen = func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 48, 0)
			}
			e, err := NewEngine(d, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.done = ctx.Done()
			step := func() {
				if err := e.step(1 << 30); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 500; i++ {
				step()
			}
			if e.stats.BatchedCycles == 0 {
				t.Fatal("batched fast path never fired; the guard would prove nothing")
			}
			allocs := testing.AllocsPerRun(20, step)
			if allocs != 0 {
				t.Fatalf("batched %v step allocated %.1f objects, want 0", mode, allocs)
			}
		})
	}
}

// TestRollbackHeavyAllocFree pins the zero-alloc property on the
// rollback-heavy steady state: with every other prediction check
// injected wrong, each step exercises the shadow store, the restore
// and the roll-forth replay, and none of it may allocate once warm.
// The case is named for its snapshot cadence: every transition stores
// the leader in full, the only cadence the shadow store has.
func TestRollbackHeavyAllocFree(t *testing.T) {
	t.Run("cadence=1", func(t *testing.T) {
		d := allocDesign()
		d.Masters[0].NewGen = func() ip.Generator {
			return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
				amba.BurstIncr8, amba.Size32, 0, 0, 0)
		}
		e, err := NewEngine(d, Config{Mode: ALS, Accuracy: 0.5, FaultSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e.done = ctx.Done()
		transition := func() {
			leader := e.chooseLeader()
			if leader == nil {
				if err := e.conservativeCycle(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if _, err := e.transition(leader, 1<<30); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			transition()
		}
		if e.stats.Rollbacks == 0 {
			t.Fatal("no rollbacks; the guard would prove nothing")
		}
		allocs := testing.AllocsPerRun(20, transition)
		if allocs != 0 {
			t.Fatalf("rollback-heavy transition allocated %.1f objects, want 0", allocs)
		}
	})
}

func TestALSTransitionAllocFree(t *testing.T) {
	e, err := NewEngine(allocDesign(), Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		n, err := e.transition(leader, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("transition committed no cycles")
		}
	}
	for i := 0; i < 300; i++ {
		transition()
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("clean ALS transition allocated %.1f objects, want 0", allocs)
	}
}
