package amba

import "fmt"

// AddrPhase bundles the address-phase signals driven by the active bus
// master: HADDR plus the control group (HTRANS, HWRITE, HSIZE, HBURST,
// HPROT). These are the "predictable" members of the MSABS.
type AddrPhase struct {
	Addr  Addr
	Trans Trans
	Write bool
	Size  Size
	Burst Burst
	Prot  Prot
}

// Idle reports whether the address phase carries no beat request.
func (a AddrPhase) Idle() bool { return a.Trans == TransIdle }

// String renders the address phase compactly for traces and errors.
func (a AddrPhase) String() string {
	rw := "R"
	if a.Write {
		rw = "W"
	}
	return fmt.Sprintf("%s %s@%08x %s %s", a.Trans, rw, uint32(a.Addr), a.Size, a.Burst)
}

// SlaveReply bundles the data-phase response signals driven by the active
// bus slave: HREADY, HRESP and HRDATA.
type SlaveReply struct {
	Ready bool
	Resp  Resp
	RData Word
}

// OkayReady is the default reply of an idle bus: zero wait states, OKAY.
func OkayReady() SlaveReply { return SlaveReply{Ready: true, Resp: RespOkay} }

// String renders the reply compactly.
func (r SlaveReply) String() string {
	rdy := "wait"
	if r.Ready {
		rdy = "ready"
	}
	return fmt.Sprintf("%s/%s rdata=%08x", rdy, r.Resp, uint32(r.RData))
}

// CycleState is the complete MSABS record for one target clock cycle: the
// values of the minimal set of active bus signals, plus the arbitration
// grant (derivable from Req under static priority, recorded for tracing)
// and interrupt lines (which the paper says must be treated like MSABS
// members when they cross the domain boundary).
type CycleState struct {
	// AP holds the address-phase signals of the granted master.
	AP AddrPhase
	// WData is HWDATA: the write data driven by the master owning the
	// data phase. Valid only during the data phase of a write beat.
	WData Word
	// Reply holds HREADY/HRESP/HRDATA from the active slave.
	Reply SlaveReply
	// Req is the HBUSREQx bitmask over all masters (bit i = master i).
	Req uint32
	// Grant is the index of the master owning the address phase this
	// cycle. It is the arbitration *result*, deducible from Req and the
	// static priority map, so it is not transferred on the channel.
	Grant int
	// IRQ is a bitmask of interrupt lines, an example of a non-bus
	// signal crossing the boundary.
	IRQ uint32
	// Split is the HSPLITx bitmask: bit i set means some slave signals
	// that split-masked master i may be granted again. Part of the
	// MSABS (the paper lists HSPLITx among the active bus slave's
	// response signals).
	Split uint32
}

// Equal reports whether two cycle records carry the same MSABS values.
// Grant participates: although derivable, a mismatch there indicates the
// two half-bus arbiters diverged, which the equivalence tests must catch.
func (c CycleState) Equal(o CycleState) bool { return c == o }

// String renders one trace line.
func (c CycleState) String() string {
	return fmt.Sprintf("grant=%d req=%04b ap=[%s] wdata=%08x reply=[%s] irq=%02x split=%02x",
		c.Grant, c.Req, c.AP, uint32(c.WData), c.Reply, c.IRQ, c.Split)
}

// PartialState is the subset of a CycleState driven by one verification
// domain: what that domain's channel wrapper must transmit (or the remote
// leader must predict) for one target cycle. Presence flags distinguish
// "this domain drives the signal group" from "signal group is driven
// remotely"; the packetizer only transmits present groups, which is how
// the MSABS restriction reduces payload size.
type PartialState struct {
	// Req carries this domain's masters' request bits, positioned in
	// their global bit positions. ReqMask marks which bits are owned by
	// this domain (always present: every master's HBUSREQ is in MSABS).
	Req     uint32
	ReqMask uint32

	// HasAP is set when the active (granted) master is local to this
	// domain, making it the driver of address and control.
	HasAP bool
	AP    AddrPhase

	// HasWData is set when a local master owns the data phase of a
	// write beat.
	HasWData bool
	WData    Word

	// HasReply is set when the active slave is local to this domain.
	HasReply bool
	Reply    SlaveReply

	// IRQ carries interrupt lines sourced by this domain, with IRQMask
	// marking owned bits.
	IRQ     uint32
	IRQMask uint32

	// Split carries the HSPLITx lines (bit i releases split-masked
	// master i) raised by slaves in this domain; SplitMask marks the
	// master bits whose split release this domain's slaves can drive.
	Split     uint32
	SplitMask uint32
}

// MergeInto combines the contributions of the two domains into the
// full MSABS record dst, reading both in place (the engine's cycle loop
// merges once per committed cycle). Exactly one side may drive each
// optional group; MergeInto panics when both do, because that indicates
// the two half-bus models disagree about bus state — a protocol-
// splitting bug the engine must never mask.
func MergeInto(dst *CycleState, a, b *PartialState) {
	if a.ReqMask&b.ReqMask != 0 {
		panic(fmt.Sprintf("amba: overlapping request ownership %04x/%04x", a.ReqMask, b.ReqMask))
	}
	// Every field of dst is written exactly once (no zero-then-set):
	// MergeInto runs once per committed cycle.
	c := dst
	c.Grant = 0
	c.Req = (a.Req & a.ReqMask) | (b.Req & b.ReqMask)
	c.IRQ = (a.IRQ & a.IRQMask) | (b.IRQ & b.IRQMask)
	// HSPLITx lines are per-slave vectors ORed by the arbiter, so both
	// domains may legitimately release the same master; no exclusivity.
	c.Split = (a.Split & a.SplitMask) | (b.Split & b.SplitMask)
	switch {
	case a.HasAP && b.HasAP:
		panic("amba: both domains drive the address phase")
	case a.HasAP:
		c.AP = a.AP
	case b.HasAP:
		c.AP = b.AP
	default:
		c.AP = AddrPhase{}
	}
	switch {
	case a.HasWData && b.HasWData:
		panic("amba: both domains drive write data")
	case a.HasWData:
		c.WData = a.WData
	case b.HasWData:
		c.WData = b.WData
	default:
		c.WData = 0
	}
	switch {
	case a.HasReply && b.HasReply:
		panic("amba: both domains drive the slave reply")
	case a.HasReply:
		c.Reply = a.Reply
	case b.HasReply:
		c.Reply = b.Reply
	default:
		// No transfer in the data phase anywhere: the bus presents the
		// idle response (zero wait states, OKAY), computable by both
		// domains locally, so it never crosses the channel.
		c.Reply = OkayReady()
	}
}

// Equal reports deep equality of two partial states, including presence
// flags. Used by the lagger's prediction check (L-1 in the paper's CW
// state diagram).
func (p PartialState) Equal(o PartialState) bool { return p == o }

// Signal is a class of MSABS signal groups, the unit a misprediction is
// attributed to. The constants are in attribution order: a miss counts
// against the first class whose values differ.
type Signal uint8

// Signal classes, in attribution order.
const (
	SigRequest Signal = iota // HBUSREQx
	SigTrans                 // HTRANS
	SigAddr                  // HADDR and the rest of address/control
	SigWData                 // HWDATA
	SigReady                 // HREADY
	SigResp                  // HRESP
	SigRData                 // HRDATA
	SigIRQ                   // interrupt lines
	SigSplit                 // HSPLITx
	NumSignals
)

var signalNames = [NumSignals]string{
	SigRequest: "request",
	SigTrans:   "htrans",
	SigAddr:    "haddr",
	SigWData:   "hwdata",
	SigReady:   "hready",
	SigResp:    "hresp",
	SigRData:   "hrdata",
	SigIRQ:     "irq",
	SigSplit:   "hsplit",
}

// String returns the class's label (stable: metrics and traces key on
// it).
func (s Signal) String() string {
	if s < NumSignals {
		return signalNames[s]
	}
	return fmt.Sprintf("Signal(%d)", uint8(s))
}

// FirstDiff returns the first signal class, in attribution order, in
// which p and o differ; ok is false when they are equal. A presence
// flag counts with the group it guards.
func (p *PartialState) FirstDiff(o *PartialState) (s Signal, ok bool) {
	switch {
	case p.Req != o.Req || p.ReqMask != o.ReqMask:
		return SigRequest, true
	case p.HasAP != o.HasAP || p.AP.Trans != o.AP.Trans:
		return SigTrans, true
	case p.AP != o.AP:
		return SigAddr, true
	case p.HasWData != o.HasWData || p.WData != o.WData:
		return SigWData, true
	case p.HasReply != o.HasReply || p.Reply.Ready != o.Reply.Ready:
		return SigReady, true
	case p.Reply.Resp != o.Reply.Resp:
		return SigResp, true
	case p.Reply.RData != o.Reply.RData:
		return SigRData, true
	case p.IRQ != o.IRQ || p.IRQMask != o.IRQMask:
		return SigIRQ, true
	case p.Split != o.Split || p.SplitMask != o.SplitMask:
		return SigSplit, true
	}
	return 0, false
}
