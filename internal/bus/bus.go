// Package bus implements a cycle-accurate AMBA AHB bus fabric: a fixed
// (static) priority arbiter, a static address decoder, the two-stage
// address/data pipeline and the default-slave behavior.
//
// The same Bus type serves two roles in the reproduction:
//
//   - as the monolithic reference model ("the target bus") against which
//     every co-emulated run is checked for cycle-exact equivalence, and
//   - as the half-bus model (the paper's HBMS/HBMA) inside each
//     verification domain, where components living in the other domain
//     are declared *external*: the bus computes everything driven by its
//     local components and receives the externally-driven signal groups
//     (an amba.PartialState) at commit time — either read from the
//     channel or predicted by the leader.
//
// Each cycle is split into Evaluate (compute locally-driven outputs from
// registered state; legal because AHB confines inter-component
// communication to clock edges, the paper's §3 argument) and Commit
// (merge the remote contribution, advance the pipeline, deliver
// feedback). The monolithic reference bus is simply a bus with no
// external components committed with an empty remote contribution.
package bus

import (
	"fmt"

	"coemu/internal/amba"
)

// MasterDrive is everything a bus master drives in one cycle: its bus
// request line, its address-phase signals (sampled only while the master
// owns the address phase) and its write data (sampled only while the
// master owns the data phase of a write beat).
type MasterDrive struct {
	Req   bool
	AP    amba.AddrPhase
	WData amba.Word
}

// MasterFeedback is everything a master samples at the end of a cycle.
type MasterFeedback struct {
	// Granted reports that the master owned the address phase this cycle.
	Granted bool
	// GrantNext reports that the master will own the address phase next
	// cycle (HGRANT && HREADY at this edge).
	GrantNext bool
	// Ready is the bus-wide HREADY this cycle.
	Ready bool
	// OwnsData reports that this master's beat was in the data phase.
	OwnsData bool
	// Resp and RData are meaningful when OwnsData is set.
	Resp  amba.Resp
	RData amba.Word
	// SplitMasked reports that the master is split-masked for the next
	// cycle: it must not present address phases until released.
	SplitMasked bool
}

// Master is a bus master: CPU model, DMA engine, or any traffic source.
// Drive is called exactly once per cycle during Evaluate; Commit exactly
// once during the bus Commit. Both must be deterministic functions of
// component state (roll-forth replays them).
type Master interface {
	Name() string
	Drive() MasterDrive
	Commit(fb MasterFeedback)
}

// Slave is a bus slave. Respond is called during Evaluate on each cycle
// one of its beats spends in the data phase (repeatedly across wait
// states) and must not depend on write data — HREADY/HRESP/HRDATA are
// functions of the slave's own state, which is what makes the split
// evaluation (and the paper's response prediction) sound. WriteCommit
// delivers the write data of a completing write beat at the clock edge.
// Commit follows every Respond with the final bus HREADY.
type Slave interface {
	Name() string
	Respond(ap amba.AddrPhase) amba.SlaveReply
	WriteCommit(ap amba.AddrPhase, wdata amba.Word)
	Commit(ready bool)
}

// IRQSource is optionally implemented by masters or slaves that drive
// interrupt lines. Each source owns a static subset of lines.
type IRQSource interface {
	IRQ() uint32
}

// SplitSource is implemented by slaves capable of SPLIT responses. The
// bus polls SplitRelease once per cycle during Evaluate; set bits are
// the HSPLITx lines releasing split-masked masters.
type SplitSource interface {
	SplitRelease() uint32
}

// SplitNotifiee is optionally implemented by SPLIT-capable slaves that
// need to know which master they just split (AHB slaves see HMASTER;
// this callback stands in for it).
type SplitNotifiee interface {
	NotifySplit(master int)
}

// Region is a half-open address window [Lo, Hi) routed to one slave.
type Region struct {
	Lo, Hi amba.Addr
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a amba.Addr) bool { return a >= r.Lo && a < r.Hi }

// DefaultSlaveIndex marks a data phase owned by the built-in default
// slave (no decoder region matched).
const DefaultSlaveIndex = -1

// dataPhase tracks the transfer currently in the bus data phase.
type dataPhase struct {
	Valid  bool
	AP     amba.AddrPhase
	Master int
	Slave  int // DefaultSlaveIndex for the default slave
}

// busState is the registered state of the fabric, separated out so the
// rollback registry can snapshot it wholesale.
type busState struct {
	Grant  int
	DP     dataPhase
	DefErr bool // default slave is in the second cycle of an ERROR
	Cycle  int64
	// SplitMask marks masters currently split-masked: they completed a
	// SPLIT response and must not be granted until a slave raises their
	// HSPLITx line.
	SplitMask uint32
}

// evalState holds the outputs of Evaluate until the matching Commit.
type evalState struct {
	valid  bool
	drives []MasterDrive
	local  amba.PartialState
}

// Bus is a single AHB layer. Construct with New, attach components with
// AddMaster/MapSlave (or their External variants for components living
// in the other verification domain), then call Evaluate+Commit once per
// target cycle. Step combines both for fully-local buses.
type Bus struct {
	name    string
	masters []Master // nil entries are external
	slaves  []Slave  // nil entries are external
	mnames  []string
	snames  []string
	regions []Region
	irqs    []IRQSource
	irqMask uint32 // IRQ bits owned by local components

	// ownsDefault makes this bus the driver of default-slave replies.
	// Exactly one of the two half-buses owns them (the reference bus
	// always does); see MapExternalSlave documentation.
	ownsDefault bool

	// splits collects local SPLIT-capable slaves; non-empty makes the
	// bus a driver of HSPLITx lines for all masters.
	splits []SplitSource

	st   busState
	eval evalState
	res  StepResult // CommitFrom result record, reused every cycle

	// drives is the Evaluate scratch buffer, sized to the master count
	// and reused every cycle so the steady-state loop never allocates.
	// Slots of external (nil) masters stay zero forever; local slots
	// are overwritten each Evaluate before any read, so the buffer is
	// never re-zeroed on the hot path.
	drives []MasterDrive

	// localReq caches LocalReqMask (the topology is fixed after
	// construction; recomputing it per cycle showed in profiles).
	localReq uint32

	// saved is the rollback shadow of st (rollback.Component).
	saved busState
}

// New creates an empty bus fabric that owns the default slave.
func New(name string) *Bus {
	return &Bus{name: name, ownsDefault: true}
}

// Name returns the fabric's diagnostic name.
func (b *Bus) Name() string { return b.name }

// SetOwnsDefault configures whether this bus drives default-slave
// replies locally (true) or expects them in the remote contribution.
func (b *Bus) SetOwnsDefault(v bool) { b.ownsDefault = v }

// OwnsDefaultSlave reports whether this bus drives default-slave replies.
func (b *Bus) OwnsDefaultSlave() bool { return b.ownsDefault }

// AddMaster attaches a local master and returns its index, which is both
// its HBUSREQ bit position and its arbitration priority (lower index
// wins — the static priority scheme the paper assumes).
func (b *Bus) AddMaster(m Master) int {
	if m == nil {
		panic("bus: nil master (use AddExternalMaster)")
	}
	return b.addMaster(m, m.Name())
}

// AddExternalMaster reserves the next master index for a master that
// lives in the other verification domain. Its request bit, address
// phase and write data arrive in the remote contribution at Commit.
func (b *Bus) AddExternalMaster(name string) int {
	return b.addMaster(nil, name)
}

func (b *Bus) addMaster(m Master, name string) int {
	if len(b.masters) >= amba.MaxMasters {
		panic(fmt.Sprintf("bus %s: more than %d masters", b.name, amba.MaxMasters))
	}
	b.masters = append(b.masters, m)
	b.mnames = append(b.mnames, name)
	if m != nil {
		b.localReq |= 1 << uint(len(b.masters)-1)
	}
	if src, ok := m.(IRQSource); ok && m != nil {
		b.irqs = append(b.irqs, src)
	}
	return len(b.masters) - 1
}

// MapSlave attaches a local slave to an address region and returns its
// index. Regions must not overlap; the decoder is static per the
// paper's footnote 4. irqMask declares the interrupt lines the slave
// owns (0 for none); the slave must implement IRQSource if non-zero.
func (b *Bus) MapSlave(s Slave, r Region, irqMask uint32) int {
	if s == nil {
		panic("bus: nil slave (use MapExternalSlave)")
	}
	idx := b.mapSlave(s, s.Name(), r)
	if irqMask != 0 {
		src, ok := s.(IRQSource)
		if !ok {
			panic(fmt.Sprintf("bus %s: slave %s declares IRQ lines but is no IRQSource", b.name, s.Name()))
		}
		b.irqs = append(b.irqs, src)
		b.irqMask |= irqMask
	}
	return idx
}

// MapExternalSlave reserves a region for a slave living in the other
// verification domain: the decoder routes beats to it, but its replies
// arrive in the remote contribution.
func (b *Bus) MapExternalSlave(name string, r Region) int {
	return b.mapSlave(nil, name, r)
}

func (b *Bus) mapSlave(s Slave, name string, r Region) int {
	if r.Hi <= r.Lo {
		panic(fmt.Sprintf("bus %s: empty region [%x,%x)", b.name, r.Lo, r.Hi))
	}
	for i, old := range b.regions {
		if r.Lo < old.Hi && old.Lo < r.Hi {
			panic(fmt.Sprintf("bus %s: region [%x,%x) overlaps slave %d", b.name, r.Lo, r.Hi, i))
		}
	}
	b.slaves = append(b.slaves, s)
	b.snames = append(b.snames, name)
	b.regions = append(b.regions, r)
	if src, ok := s.(SplitSource); ok && s != nil {
		b.splits = append(b.splits, src)
	}
	return len(b.slaves) - 1
}

// Masters returns the number of attached masters (local + external).
func (b *Bus) Masters() int { return len(b.masters) }

// Slaves returns the number of attached slaves (local + external).
func (b *Bus) Slaves() int { return len(b.slaves) }

// MasterLocal reports whether master i is local to this bus.
func (b *Bus) MasterLocal(i int) bool { return b.masters[i] != nil }

// SlaveLocal reports whether slave i is local to this bus.
func (b *Bus) SlaveLocal(i int) bool {
	return i != DefaultSlaveIndex && b.slaves[i] != nil
}

// LocalReqMask returns the HBUSREQ bits owned by local masters.
func (b *Bus) LocalReqMask() uint32 { return b.localReq }

// LocalIRQMask returns the interrupt lines owned by local components.
func (b *Bus) LocalIRQMask() uint32 { return b.irqMask }

// LocalSplitMask returns the HSPLITx bits this bus's local slaves can
// drive: every master bit when any local slave is SPLIT-capable.
func (b *Bus) LocalSplitMask() uint32 {
	if len(b.splits) == 0 {
		return 0
	}
	return (1 << uint(len(b.masters))) - 1
}

// SplitMasked returns the masters currently split-masked.
func (b *Bus) SplitMasked() uint32 { return b.st.SplitMask }

// Grant returns the master owning the address phase of the next cycle.
func (b *Bus) Grant() int { return b.st.Grant }

// DataPhase returns the transfer occupying the data phase of the next
// cycle: its validity, accepted address phase, and owner indexes.
func (b *Bus) DataPhase() (valid bool, ap amba.AddrPhase, master, slave int) {
	return b.st.DP.Valid, b.st.DP.AP, b.st.DP.Master, b.st.DP.Slave
}

// Decode returns the slave index owning address a, or DefaultSlaveIndex.
func (b *Bus) Decode(a amba.Addr) int {
	for i, r := range b.regions {
		if r.Contains(a) {
			return i
		}
	}
	return DefaultSlaveIndex
}

// Arbitrate computes the next address-phase owner from the full request
// mask: the lowest-index requesting master wins; with no requests the
// bus stays parked on the current owner (AHB default-master behavior).
// Split-masked masters are never granted: the arbiter skips their
// requests and will not park on them while an unmasked master exists.
func (b *Bus) Arbitrate(req uint32) int {
	masked := b.st.SplitMask
	for i := range b.masters {
		if req&^masked&(1<<uint(i)) != 0 {
			return i
		}
	}
	if masked&(1<<uint(b.st.Grant)) == 0 {
		return b.st.Grant
	}
	for i := range b.masters {
		if masked&(1<<uint(i)) == 0 {
			return i
		}
	}
	return b.st.Grant // every master split-masked: bus idles
}

// EvaluateInto computes everything this bus's local components drive
// in the upcoming cycle and writes it through dst as a partial MSABS
// contribution — the engine's cycle loop deposits it straight into a
// LOB entry. It must be followed by exactly one CommitFrom. Calling it
// twice without a CommitFrom panics — that would double-step component
// state.
func (b *Bus) EvaluateInto(dst *amba.PartialState) {
	if b.eval.valid {
		panic(fmt.Sprintf("bus %s: Evaluate without intervening Commit", b.name))
	}
	if len(b.masters) == 0 {
		panic(fmt.Sprintf("bus %s: no masters", b.name))
	}

	if cap(b.drives) < len(b.masters) {
		b.drives = make([]MasterDrive, len(b.masters))
	}
	drives := b.drives[:len(b.masters)]
	// Build the contribution directly in the eval stash; one copy out
	// to the caller at the end.
	local := &b.eval.local
	*local = amba.PartialState{ReqMask: b.localReq, IRQMask: b.irqMask}

	for i, m := range b.masters {
		if m == nil {
			continue
		}
		drives[i] = m.Drive()
		if drives[i].Req {
			local.Req |= 1 << uint(i)
		}
	}

	if b.masters[b.st.Grant] != nil {
		local.HasAP = true
		local.AP = drives[b.st.Grant].AP
	}

	dp := b.st.DP
	if dp.Valid {
		switch {
		case dp.Slave == DefaultSlaveIndex:
			if b.ownsDefault {
				local.HasReply = true
				local.Reply = b.defaultSlaveReply()
			}
		case b.slaves[dp.Slave] != nil:
			local.HasReply = true
			local.Reply = b.slaves[dp.Slave].Respond(dp.AP)
		}
		if dp.AP.Write && b.masters[dp.Master] != nil {
			local.HasWData = true
			local.WData = drives[dp.Master].WData
		}
	}

	for _, s := range b.irqs {
		local.IRQ |= s.IRQ()
	}
	local.IRQ &= b.irqMask

	local.SplitMask = b.LocalSplitMask()
	for _, s := range b.splits {
		local.Split |= s.SplitRelease()
	}
	local.Split &= local.SplitMask

	b.eval.valid = true
	b.eval.drives = drives
	*dst = *local
}

// StepResult reports one completed bus cycle: the full MSABS record plus
// the data-phase bookkeeping the co-emulation engine needs to decide
// which domain drives which signal group.
type StepResult struct {
	State amba.CycleState
	// DataValid reports a real transfer occupied the data phase.
	DataValid bool
	// DataMaster/DataSlave identify its owner endpoints (DataSlave may
	// be DefaultSlaveIndex).
	DataMaster int
	DataSlave  int
	// DataWrite mirrors the direction of the data-phase beat.
	DataWrite bool
}

// CommitFrom merges the remote contribution with the local evaluation,
// advances the pipeline by one clock edge and delivers feedback to the
// local components. For a fully-local bus pass an empty PartialState.
// Both the contribution and the result are passed by pointer: the
// returned record is bus-owned and valid until the next CommitFrom.
func (b *Bus) CommitFrom(remote *amba.PartialState) *StepResult {
	if !b.eval.valid {
		panic(fmt.Sprintf("bus %s: Commit without Evaluate", b.name))
	}
	drives := b.eval.drives
	b.eval.valid = false

	res := &b.res
	amba.MergeInto(&res.State, &b.eval.local, remote)
	full := &res.State
	full.Grant = b.st.Grant
	dp := b.st.DP
	reply := full.Reply

	// Split-mask maintenance precedes arbitration: a master whose beat
	// completes with SPLIT this cycle must not be granted next cycle,
	// while HSPLITx lines raised this cycle re-enable their masters.
	b.st.SplitMask &^= full.Split
	if dp.Valid && reply.Ready && reply.Resp == amba.RespSplit {
		b.st.SplitMask |= 1 << uint(dp.Master)
		if dp.Slave != DefaultSlaveIndex && b.slaves[dp.Slave] != nil {
			if n, ok := b.slaves[dp.Slave].(SplitNotifiee); ok {
				n.NotifySplit(dp.Master)
			}
		}
	}

	// Arbitration (combinational; takes effect at the edge when ready).
	nextGrant := b.Arbitrate(full.Req)

	res.DataValid = dp.Valid
	res.DataMaster = dp.Master
	res.DataSlave = dp.Slave
	res.DataWrite = dp.Valid && dp.AP.Write

	// Write data lands in the local slave at the completing edge.
	if dp.Valid && dp.AP.Write && reply.Ready && reply.Resp == amba.RespOkay &&
		dp.Slave != DefaultSlaveIndex && b.slaves[dp.Slave] != nil {
		b.slaves[dp.Slave].WriteCommit(dp.AP, full.WData)
	}

	// Pipeline advance.
	grantBefore := b.st.Grant
	if reply.Ready {
		ap := &full.AP
		if ap.Trans.Active() {
			b.st.DP.Valid = true
			b.st.DP.AP = *ap
			b.st.DP.Master = b.st.Grant
			b.st.DP.Slave = b.Decode(ap.Addr)
		} else {
			b.st.DP = dataPhase{}
		}
		b.st.Grant = nextGrant
	}
	b.st.Cycle++

	// Feedback to local masters.
	for i, m := range b.masters {
		if m == nil {
			continue
		}
		fb := MasterFeedback{
			Granted:     i == grantBefore,
			GrantNext:   i == b.st.Grant,
			Ready:       reply.Ready,
			OwnsData:    dp.Valid && dp.Master == i,
			SplitMasked: b.st.SplitMask&(1<<uint(i)) != 0,
		}
		if fb.OwnsData {
			fb.Resp = reply.Resp
			fb.RData = reply.RData
		}
		m.Commit(fb)
	}
	if dp.Valid && dp.Slave != DefaultSlaveIndex && b.slaves[dp.Slave] != nil {
		b.slaves[dp.Slave].Commit(reply.Ready)
	}
	_ = drives
	return res
}

// Quiescent reports whether the fabric is at an idle fixed point: no
// transfer in the data phase, no master split-masked, no default-slave
// ERROR in flight, and no Evaluate outstanding. At such a point a
// cycle committed with an inactive contribution from every master
// leaves all registered bus state except the cycle counter unchanged,
// which is the property the engine's predicted-quiescence batching
// relies on.
func (b *Bus) Quiescent() bool {
	return !b.eval.valid && !b.st.DP.Valid && b.st.SplitMask == 0 && !b.st.DefErr
}

// SkipQuiescent commits n quiescent cycles in one step. The caller
// must have proven the fixed point (Quiescent bus, inactive masters)
// for the whole span; only the cycle counter advances, exactly as n
// idle Evaluate/Commit rounds would leave it.
func (b *Bus) SkipQuiescent(n int64) {
	b.st.Cycle += n
}

// Step evaluates and commits one cycle of a fully-local bus.
func (b *Bus) Step() StepResult {
	var local, remote amba.PartialState
	b.EvaluateInto(&local)
	return *b.CommitFrom(&remote)
}

// defaultSlaveReply implements the AHB default slave: active beats that
// decode to no region receive a two-cycle ERROR response.
func (b *Bus) defaultSlaveReply() amba.SlaveReply {
	if b.st.DefErr {
		b.st.DefErr = false
		return amba.SlaveReply{Ready: true, Resp: amba.RespError}
	}
	b.st.DefErr = true
	return amba.SlaveReply{Ready: false, Resp: amba.RespError}
}

// Cycle returns the number of completed bus cycles.
func (b *Bus) Cycle() int64 { return b.st.Cycle }

// Store implements rollback.Component for the fabric's registered
// state. Snapshots may only be taken between cycles (never between
// EvaluateInto and CommitFrom).
func (b *Bus) Store() {
	if b.eval.valid {
		panic(fmt.Sprintf("bus %s: snapshot between Evaluate and Commit", b.name))
	}
	b.saved = b.st
}

// Restore implements rollback.Component. It also cancels an
// outstanding evaluation: a leader rolled back while waiting for its
// final cycle's remote contribution never commits it.
func (b *Bus) Restore() {
	b.st = b.saved
	b.eval = evalState{}
}
