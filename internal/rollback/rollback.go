// Package rollback provides the state store/restore machinery the
// optimistic co-emulation scheme depends on: the leader domain stores its
// state before running ahead (the paper's rb_store, P-5) and restores it
// when the lagger reports a misprediction (rb_restore, S-6).
//
// Components register as Snapshotters with a Registry. A Registry.Save
// captures every component atomically; Restore rewinds them all. The cost
// of a store/restore is modeled, not measured: a hardware accelerator
// shadows its registers in parallel (tens of nanoseconds regardless of
// state size), while a software simulator copies its rollback variables
// one by one (cost linear in the variable count). Both cost models come
// from fitting the paper's Table 2 and SLA figures; see DESIGN.md §5.
//
// Registries are not safe for concurrent use; each domain owns its
// registry exclusively and the engine drives it from one goroutine.
package rollback

import (
	"fmt"
	"time"
)

// Snapshotter is implemented by every stateful component of a leader
// domain. Save must return a deep, self-contained copy: a Restore with
// that value must reproduce the exact externally visible behavior, or
// roll-forth replay diverges and the equivalence invariant breaks.
type Snapshotter interface {
	Save() any
	Restore(any)
}

// InPlaceSnapshotter is an optional extension of Snapshotter for
// components on the once-per-transition store path. SaveInto behaves
// like Save but may recycle prev — a value previously returned by Save
// or SaveInto of the same component — instead of heap-allocating a
// fresh snapshot. Passing nil (or a foreign value) must fall back to
// allocating, so SaveInto(nil) is always equivalent to Save().
//
// The contract mirrors the leader's rollback discipline: at most one
// snapshot is live at a time, so recycling the previous transition's
// buffers is safe. Callers that need overlapping snapshot lifetimes
// (tests, checkpointing) must keep using Save.
type InPlaceSnapshotter interface {
	Snapshotter
	SaveInto(prev any) any
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

// Registry holds the snapshotters of one domain in registration order.
type Registry struct {
	snaps []entry
	vars  int

	// Incremental (delta) saving state; see SetDeltaCadence. cadence
	// 0/1 keeps every save full. The ring holds the last saves since
	// the anchor (slot 0, always a full capture); pos is the most
	// recent slot, seq the save sequence number handles are checked
	// against.
	cadence int
	ring    []ringSlot
	pos     int
	seq     uint64
	lastCap []int // per component: ring slot of its newest capture
}

type entry struct {
	name string
	s    Snapshotter
	ips  InPlaceSnapshotter // non-nil when s supports in-place saves
	ds   DeltaSnapshotter   // non-nil when s supports delta saves
}

// Snapshot is an atomic capture of a whole Registry. Snapshots from
// Save/SaveInto are self-contained; snapshots from SaveIncremental are
// handles into the registry's delta ring, restorable only while they
// are the registry's most recent save.
type Snapshot struct {
	values []any
	n      int // number of snapshotters at capture time

	// reg/seq identify a ring handle (reg nil for self-contained).
	reg *Registry
	seq uint64
}

// Register adds a snapshotter under a diagnostic name. The extra
// rollback-variable count vars feeds the cost model (it approximates how
// much state the component contributes).
func (r *Registry) Register(name string, s Snapshotter, vars int) {
	if s == nil {
		panic(fmt.Sprintf("rollback: register nil snapshotter %q", name))
	}
	if vars < 0 {
		panic(fmt.Sprintf("rollback: negative var count for %q", name))
	}
	ips, _ := s.(InPlaceSnapshotter)
	ds, _ := s.(DeltaSnapshotter)
	r.snaps = append(r.snaps, entry{name, s, ips, ds})
	r.vars += vars
}

// Vars returns the total number of registered rollback variables.
func (r *Registry) Vars() int { return r.vars }

// Components returns how many snapshotters are registered.
func (r *Registry) Components() int { return len(r.snaps) }

// Save captures every registered component into a fresh Snapshot.
func (r *Registry) Save() Snapshot {
	vals := make([]any, len(r.snaps))
	for i, e := range r.snaps {
		vals[i] = e.s.Save()
	}
	return Snapshot{values: vals, n: len(r.snaps)}
}

// SaveInto captures every registered component into dst, recycling the
// buffers of whatever dst previously held. Components implementing
// InPlaceSnapshotter save without heap allocation; the rest fall back
// to Save. The previous contents of dst are invalidated — SaveInto is
// for the leader's single-live-snapshot store path, not for keeping
// multiple checkpoints (use Save for that).
func (r *Registry) SaveInto(dst *Snapshot) {
	if cap(dst.values) < len(r.snaps) {
		dst.values = make([]any, len(r.snaps))
	}
	dst.values = dst.values[:len(r.snaps)]
	dst.n = len(r.snaps)
	dst.reg = nil
	dst.seq = 0
	for i, e := range r.snaps {
		if e.ips != nil {
			dst.values[i] = e.ips.SaveInto(dst.values[i])
		} else {
			dst.values[i] = e.s.Save()
		}
	}
}

// Restore rewinds every registered component to the snapshot. Restoring
// a snapshot taken with a different component set panics: it means the
// engine rolled across a topology change, which the scheme forbids.
// Ring snapshots (SaveIncremental) dispatch to the delta-aware path,
// which walks back to the nearest full capture and replays deltas
// forward.
func (r *Registry) Restore(s Snapshot) {
	if s.reg != nil {
		r.restoreIncremental(s)
		return
	}
	if s.n != len(r.snaps) {
		panic(fmt.Sprintf("rollback: snapshot of %d components restored into %d", s.n, len(r.snaps)))
	}
	for i, e := range r.snaps {
		e.s.Restore(s.values[i])
	}
}
