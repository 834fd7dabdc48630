// Package sim provides the minimal cycle-accurate simulation kernel the
// two verification domains run on: a cycle counter, a reset protocol and
// an ordered set of clocked components.
//
// The kernel is deliberately simple. AHB confines inter-component
// communication to clock edges (the property the paper leans on in §3 to
// rule out combinational half-loops across the domain split), so a
// two-phase drive/commit discipline sequenced by the bus model is
// sufficient; no general event wheel is needed. What the kernel owns is
// the cycle counter, reset fan-out, and the ticking of components that
// live beside the bus (interrupt timers, watchdogs) rather than on it.
package sim

import "fmt"

// Clocked is a component evaluated once per target clock cycle, after
// the bus has settled. Tick must be deterministic: the co-emulation
// engine replays cycles during roll-forth and relies on identical
// behavior given identical state.
type Clocked interface {
	// Tick advances the component by one clock cycle. cycle is the
	// index of the cycle being completed.
	Tick(cycle int64)
}

// Resettable is implemented by components with a reset state.
type Resettable interface {
	Reset()
}

// Quiescible is an optional extension of Clocked for components that
// can prove inactivity, enabling the engine's predicted-quiescence
// cycle batching. QuiescentFor returns how many upcoming Tick calls
// are guaranteed to be pure internal counter advances: no change to
// any externally visible output (interrupt lines, split releases,
// bus replies) and no dependence on the cycle index. SkipQuiescent
// applies n such ticks in one step; the resulting component state must
// be bit-identical to n sequential Tick calls. Callers must keep
// n <= QuiescentFor().
//
// A Clocked component that does not implement Quiescible simply caps
// its domain's batch size at zero — the engine falls back to
// single-stepping, never to guessing.
type Quiescible interface {
	Clocked
	QuiescentFor() int64
	SkipQuiescent(n int64)
}

// Clock is a target-clock cycle counter with snapshot support, so a
// leader domain can roll its notion of time back together with its
// components.
type Clock struct {
	cycle int64
	saved int64 // rollback shadow
}

// Now returns the number of completed cycles.
func (c *Clock) Now() int64 { return c.cycle }

// Advance moves the clock forward one cycle and returns the index of the
// cycle just completed.
func (c *Clock) Advance() int64 {
	n := c.cycle
	c.cycle++
	return n
}

// AdvanceN moves the clock forward n cycles in one step, the batch
// counterpart of Advance for quiescent stretches. Negative n panics.
func (c *Clock) AdvanceN(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("sim: clock advance by negative %d", n))
	}
	c.cycle += n
}

// Store implements rollback.Component.
func (c *Clock) Store() { c.saved = c.cycle }

// Restore implements rollback.Component: the clock rewinds to the
// cycle count of the last Store.
func (c *Clock) Restore() { c.cycle = c.saved }

// Reset implements Resettable.
func (c *Clock) Reset() { c.cycle = 0 }

// Kernel owns a clock and an ordered list of clocked components. The
// order of registration is the order of evaluation, and it must be
// identical between the reference system and the split system for traces
// to compare equal.
type Kernel struct {
	clock      Clock
	components []Clocked
}

// Register appends a component to the evaluation order. Registering nil
// panics immediately rather than at the first Step.
func (k *Kernel) Register(c Clocked) {
	if c == nil {
		panic("sim: register nil component")
	}
	k.components = append(k.components, c)
}

// Clock returns the kernel's clock.
func (k *Kernel) Clock() *Clock { return &k.clock }

// Now returns the number of completed cycles.
func (k *Kernel) Now() int64 { return k.clock.Now() }

// Step completes one target cycle: every registered component ticks in
// order, then the clock advances. It returns the index of the completed
// cycle.
func (k *Kernel) Step() int64 {
	n := k.clock.Now()
	for _, c := range k.components {
		c.Tick(n)
	}
	k.clock.Advance()
	return n
}

// Run executes n cycles.
func (k *Kernel) Run(n int64) {
	for i := int64(0); i < n; i++ {
		k.Step()
	}
}

// Reset resets the clock and every component implementing Resettable.
func (k *Kernel) Reset() {
	k.clock.Reset()
	for _, c := range k.components {
		if r, ok := c.(Resettable); ok {
			r.Reset()
		}
	}
}
