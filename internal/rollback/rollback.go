// Package rollback provides the state store/restore machinery the
// optimistic co-emulation scheme depends on: the leader domain stores its
// state before running ahead (the paper's rb_store, P-5) and restores it
// when the lagger reports a misprediction (rb_restore, S-6).
//
// The accelerator does this with shadow registers, and so does every
// component here: a Component keeps one typed shadow of its registered
// state, Store copies the live state into it and Restore copies it back.
// Only one snapshot per domain is ever live, so one shadow suffices. A
// Registry stores or restores every component of a domain at once and
// hands out Snapshot handles that pin the store they came from. The
// cost of a store/restore is modeled, not measured: a hardware
// accelerator shadows its registers in parallel (tens of nanoseconds
// regardless of state size), while a software simulator copies its
// rollback variables one by one (cost linear in the variable count).
// Both cost models come from fitting the paper's Table 2 and SLA
// figures; see DESIGN.md §5.
//
// Registries are not safe for concurrent use; each domain owns its
// registry exclusively and the engine drives it from one goroutine.
package rollback

import (
	"fmt"
	"time"
)

// Component is implemented by every stateful part of a leader domain.
// Store copies the live state into the component's shadow; Restore
// copies the shadow back. After a Restore the component must behave
// exactly as it did at the Store — same outputs for the same inputs —
// or roll-forth replay diverges and the equivalence invariant breaks.
// Restore may be called any number of times per Store, and a Store
// after a Restore starts a new interval.
type Component interface {
	Store()
	Restore()
}

// CostModel prices a store or restore of n rollback variables.
type CostModel struct {
	// StoreBase/RestoreBase are fixed per-operation costs.
	StoreBase   time.Duration
	RestoreBase time.Duration
	// StorePerVarPs/RestorePerVarPs are per-rollback-variable costs in
	// picoseconds (time.Duration cannot express sub-nanosecond values);
	// zero for hardware shadow-register stores, which copy in parallel.
	StorePerVarPs   int64
	RestorePerVarPs int64
}

// StoreCost returns the modeled duration of one state store.
func (m CostModel) StoreCost(vars int) time.Duration {
	return m.StoreBase + time.Duration(int64(vars)*m.StorePerVarPs/1000)
}

// RestoreCost returns the modeled duration of one state restore.
func (m CostModel) RestoreCost(vars int) time.Duration {
	return m.RestoreBase + time.Duration(int64(vars)*m.RestorePerVarPs/1000)
}

// HardwareCost models an accelerator that stores its state into shadow
// registers in parallel: the cost is flat and tiny. The constants are
// fitted from Table 2 (Tstore at p=1.0 gives ~15 ns per store; Trestore
// rows give ~29 ns per restore).
func HardwareCost() CostModel {
	return CostModel{StoreBase: 15 * time.Nanosecond, RestoreBase: 29 * time.Nanosecond}
}

// SoftwareCost models a simulator that copies its rollback variables in
// software. The per-variable constant (~4.7 ns/var) is fitted from the
// paper's SLA maximum-gain figures (3.25 at 100 kcycles/s, 15.34 at
// 1,000 kcycles/s); with the paper's 1000 rollback variables a store
// costs ~4.7 µs.
func SoftwareCost() CostModel {
	return CostModel{
		StoreBase: 100 * time.Nanosecond, RestoreBase: 100 * time.Nanosecond,
		StorePerVarPs: 4700, RestorePerVarPs: 4700,
	}
}

// Registry holds the components of one domain in registration order.
type Registry struct {
	comps []Component
	vars  int
	seq   uint64 // number of Stores so far; handles are checked against it
}

// Snapshot is a handle to a Registry's most recent Store. Only that
// store is restorable: a newer Store overwrites every shadow.
type Snapshot struct {
	reg *Registry
	n   int    // number of components at store time
	seq uint64 // the store this handle came from
}

// Register adds a component under a diagnostic name. The extra
// rollback-variable count vars feeds the cost model (it approximates how
// much state the component contributes).
func (r *Registry) Register(name string, c Component, vars int) {
	if c == nil {
		panic(fmt.Sprintf("rollback: register nil component %q", name))
	}
	if vars < 0 {
		panic(fmt.Sprintf("rollback: negative var count for %q", name))
	}
	r.comps = append(r.comps, c)
	r.vars += vars
}

// Vars returns the total number of registered rollback variables.
func (r *Registry) Vars() int { return r.vars }

// Components returns how many components are registered.
func (r *Registry) Components() int { return len(r.comps) }

// Store copies every registered component into its shadow and returns
// a handle to the capture. Any earlier handle becomes stale.
func (r *Registry) Store() Snapshot {
	for _, c := range r.comps {
		c.Store()
	}
	r.seq++
	return Snapshot{reg: r, n: len(r.comps), seq: r.seq}
}

// Restore rewinds every registered component to the store s names. A
// handle from another registry, from an earlier store, or from a
// different component set panics: the last means the engine rolled
// across a topology change, which the scheme forbids.
func (r *Registry) Restore(s Snapshot) {
	if s.reg != r {
		panic("rollback: snapshot restored into a foreign registry")
	}
	if s.n != len(r.comps) {
		panic(fmt.Sprintf("rollback: snapshot of %d components restored into %d", s.n, len(r.comps)))
	}
	if s.seq != r.seq {
		panic(fmt.Sprintf("rollback: snapshot %d is stale (latest %d); only the most recent is restorable", s.seq, r.seq))
	}
	for _, c := range r.comps {
		c.Restore()
	}
}
