// Package core implements the paper's contribution: the predictive
// packetizing channel-usage scheme for transaction-level hardware/
// software co-emulation.
//
// An Engine owns the two verification domains (each a half-bus model
// with its local components), the cost-accounted channel between them,
// and the channel-wrapper protocol: conservative cycle-by-cycle
// synchronization, and optimistic transitions consisting of the paper's
// four steps — Run-Ahead (leader commits cycles against predicted
// lagger responses, depositing outputs into the Leader Output Buffer),
// Follow-Up (lagger replays the flushed cycles, checking each
// prediction), and on a misprediction RollBack and Roll-Forth (leader
// restores its pre-transition state and replays to the lagger's
// progress point using the recorded values).
//
// Execution is sequential and deterministic; domain and channel time
// are charged to a virtual wall clock whose total defines the
// "simulation performance" metric of the paper's Table 2 and Figure 4.
//
// # Predicted-quiescence cycle batching
//
// On the host side the engine batches provably repetitive cycles: when
// ground truth (idle masters, quiet peripherals, a half-bus at an idle
// fixed point — Domain.QuiescentCycles) and the predictor
// (remotePredictor.PredictStableFor) together guarantee that the next
// K cycles repeat the one just committed, the engine commits them in
// one step — a single batched ledger charge, clock advance and gap
// countdown instead of K Evaluate/Commit rounds. The fast path exists
// in all three per-cycle loops (conservative stretches, the leader's
// run-ahead, the lagger's follow-up), never crosses a transition
// boundary (so snapshot cadence and rollback granularity are
// unchanged), and replicates every modeled metric bit for bit;
// Config.CycleBatch caps the batch and 1 disables it. See
// ARCHITECTURE.md for the full walk-through.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/device"
	"coemu/internal/faultplan"
	"coemu/internal/predict"
	"coemu/internal/rollback"
	"coemu/internal/stats"
	"coemu/internal/trace"
	"coemu/internal/vclock"
)

// Mode selects the synchronization scheme.
type Mode uint8

// Operating modes. The paper evaluates Conservative (the baseline), SLA
// and ALS; Auto is the dynamic mode of §3 item 4, choosing the leader
// per transition from the direction of data flow.
const (
	Conservative Mode = iota
	SLA               // Simulator Leading Accelerator
	ALS               // Accelerator Leading Simulator
	Auto
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	switch m {
	case Conservative:
		return "conservative"
	case SLA:
		return "SLA"
	case ALS:
		return "ALS"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes an engine run.
type Config struct {
	// Mode selects the synchronization scheme. Default Conservative.
	Mode Mode
	// SimSpeed and AccSpeed are the domain evaluation rates in target
	// cycles per second. The paper's Table 2 uses 1,000 kcycles/s and
	// 10 Mcycles/s. Defaults: 1e6 and 1e7.
	SimSpeed, AccSpeed float64
	// LOBDepth is the Leader Output Buffer capacity in 32-bit words
	// (the paper's Table 2 uses 64). Default 64.
	LOBDepth int
	// Stack is the channel transport model. Default device.IPROVE().
	Stack *device.Stack
	// SimCost/AccCost are the store/restore cost models. Defaults:
	// rollback.SoftwareCost() and rollback.HardwareCost().
	SimCost, AccCost *rollback.CostModel
	// RollbackVars, when positive, overrides the rollback-variable
	// count used for store/restore pricing (the paper assumes 1000).
	// Zero prices the actual registered state.
	RollbackVars int
	// Accuracy, when in [0,1), activates the fault injector: each
	// checked prediction is additionally declared wrong with
	// probability 1-Accuracy, pinning the paper's accuracy axis.
	// Accuracy 1 (default via NaN-free zero value handling: set it
	// explicitly) runs with organic prediction accuracy only.
	Accuracy float64
	// FaultSeed seeds the injector.
	FaultSeed uint64
	// KeepTrace records the merged MSABS trace for equivalence checks.
	KeepTrace bool
	// CheckProtocol attaches the AHB protocol checker to the committed
	// trace stream.
	CheckProtocol bool

	// PredictIdle is an extension beyond the paper: idle remote masters
	// are predicted to stay idle, so leaders run ahead through bus-idle
	// stretches and pay a rollback when the master wakes.
	PredictIdle bool
	// PredictBurstStarts is an extension beyond the paper: the next
	// burst start of a remote master is predicted by stride
	// extrapolation, letting streaming leaders cross burst boundaries
	// without synchronizing.
	PredictBurstStarts bool
	// PaperStrictTransitions reproduces the paper's P-5/P-6 sequence
	// exactly: each transition opens with one conservative cycle, with
	// the rollback state stored at its end ("This is to store the
	// state of leader before taking 'optimistic' operations"), and a
	// transition whose prediction fails immediately afterwards wastes
	// the store (footnote 6). Off by default: snapshotting directly at
	// the sync point is behaviorally identical and one cycle cheaper.
	PaperStrictTransitions bool
	// CycleBatch caps the predicted-quiescence fast path: when ground
	// truth (idle masters, quiet peripherals, an idle bus fixed point)
	// and the predictor together prove that the next cycles are exact
	// repetitions of the one just committed, the engine commits up to
	// CycleBatch of them per step in one batched advance instead of
	// cycle-by-cycle calls. Modeled metrics are bit-identical for every
	// setting — the knob trades host speed against cancellation
	// granularity (a cancel lands within one batch instead of one
	// cycle). 0 selects DefaultCycleBatch; 1 disables batching.
	CycleBatch int
	// WirePackets forces every channel packet through the amba wire
	// codec (pack on send, unpack on receive) even though both
	// endpoints live in this process. By default the engine uses the
	// channel's loopback accounting — identical modeled cost and
	// statistics, no host-side serialization round trip. The two paths
	// produce bit-identical reports; differential tests pin it.
	WirePackets bool
	// ChannelFaults, when non-nil, wraps the channel endpoints with
	// seeded fault injection (delay jitter, duplication, bit
	// corruption — see faultplan.ChannelFault) and implies WirePackets:
	// faults only make sense on materialized packets. Injection is
	// host-side only — a run that survives its faults produces the
	// bit-identical report of a fault-free run; corruption surfaces as
	// a channel.ErrFrameCorrupt run error.
	ChannelFaults *faultplan.ChannelFault
	// ChannelFaultSeed seeds the channel fault injection stream.
	ChannelFaultSeed uint64
	// Transport, when non-nil, supplies the physical packet transport
	// for the wire path and implies WirePackets. This is how a domain
	// pair splits across processes: each side runs the full engine with
	// a mirrored remote transport (e.g. tcpchan) that ships the
	// authoritative direction over a socket. Transports carry bits only
	// — the engine still charges every access to its own ledger, so the
	// modeled run is bit-identical to the in-process one. When
	// ChannelFaults is also set, the fault endpoint wraps this
	// transport.
	Transport channel.Transport
	// Adaptive enables the dynamic mode governor (the paper's §3 item 4
	// "dynamic decisions among SLA, ALS and conservative operating
	// modes"): when the recent misprediction rate exceeds
	// AdaptiveThreshold the engine falls back to conservative cycles,
	// probing optimism again as the estimate decays.
	Adaptive bool
	// AdaptiveThreshold is the misprediction-rate EWMA above which the
	// governor forces conservative operation. Default 0.35.
	AdaptiveThreshold float64
	// Tracer, when non-nil, records cycle-granular protocol events
	// (run-ahead spans, mispredictions, rollbacks, batch commits,
	// channel flushes) into a ring buffer for post-run export. It is a
	// host-side observability hook: the modeled run is bit-identical
	// with and without it, recording never allocates, and a nil Tracer
	// costs one pointer check per event site.
	Tracer *trace.Recorder
}

// DefaultCycleBatch is the predicted-quiescence batch cap used when
// Config.CycleBatch is zero. One LOB worth of cycles is a natural
// step: run-ahead batches are LOB-bounded anyway, and conservative
// stretches re-probe quiescence (and cancellation) every 64 cycles.
const DefaultCycleBatch = 64

// ModelVersion names the engine's modeled behaviour: the canonical
// report it produces for a given design and run. Spec.CanonicalHash
// mixes it into every run identity, so a cache, store, fleet member or
// resume journal filled by an engine that reports differently misses
// instead of serving stale bytes. Bump it with any change that alters
// the canonical report of some spec. Version 2: the wait model's
// Predict became side-effect-free, changing the rollback statistics of
// every design with a waited remote slave. Version 3: exact reply
// models for remote RETRY and SPLIT slaves, and burst-rebuild
// prediction for masters that lose the grant or a beat mid-burst,
// changing the statistics of designs with either. Version 4: compact
// context-packed LOB entries and conservative/report payloads (amba's
// PackAfter), and the adaptive run-ahead window, changing the channel
// statistics of every design and the transitions of every optimistic
// run.
const ModelVersion = 4

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SimSpeed == 0 {
		c.SimSpeed = 1e6
	}
	if c.AccSpeed == 0 {
		c.AccSpeed = 1e7
	}
	if c.LOBDepth == 0 {
		c.LOBDepth = 64
	}
	if c.Stack == nil {
		s := device.IPROVE()
		c.Stack = &s
	}
	if c.SimCost == nil {
		m := rollback.SoftwareCost()
		c.SimCost = &m
	}
	if c.AccCost == nil {
		m := rollback.HardwareCost()
		c.AccCost = &m
	}
	if c.Accuracy == 0 {
		c.Accuracy = 1
	}
	if c.AdaptiveThreshold == 0 {
		c.AdaptiveThreshold = 0.35
	}
	if c.CycleBatch == 0 {
		c.CycleBatch = DefaultCycleBatch
	}
	return c
}

// maxPartialWords is the wire-size ceiling of one packed
// amba.PartialState in any context, used to reserve LOB room for the
// final prediction-less entry.
const maxPartialWords = amba.MaxPackedWords

// minLOBDepth is the smallest usable LOB: the framing word plus one
// worst-case bare entry. The paper's smallest evaluated depth is 8.
const minLOBDepth = 1 + maxPartialWords

// Stats collects the engine's behavioral counters.
type Stats struct {
	Committed          int64
	ConservativeCycles int64
	Transitions        int64
	RunAheadCycles     int64 // cycles committed optimistically by a leader
	FollowUpCycles     int64 // cycles committed by laggers
	RollForthCycles    int64 // leader cycles re-executed after rollback
	Rollbacks          int64
	Stores             int64
	Restores           int64
	ChecksTotal        int64
	Mispredicts        int64 // organic + injected
	Injected           int64
	TransitionsByLead  [2]int64
	Declines           map[DeclineReason]int64

	// BatchedCycles counts domain-cycle advances taken through the
	// predicted-quiescence fast path (batched steps rather than single
	// Evaluate/Commit rounds). Leader run-ahead and lagger follow-up
	// count separately, so a target cycle batched on both sides
	// contributes twice and the total can exceed Committed. It is a
	// host-side diagnostic: modeled metrics are bit-identical whatever
	// its value, so the service report view deliberately excludes it.
	BatchedCycles int64

	// MispredictsBySignal splits the organic mispredictions
	// (Mispredicts - Injected) by the first signal class whose
	// predicted value missed (amba.PartialState.FirstDiff). Like
	// BatchedCycles it is a diagnostic outside the report view.
	MispredictsBySignal [amba.NumSignals]int64
}

// Report is the outcome of an engine run.
type Report struct {
	Mode    Mode
	Cycles  int64
	Ledger  vclock.Ledger
	Stats   Stats
	Channel channel.Stats
	Trace   []amba.CycleState // nil unless Config.KeepTrace

	// LOBPeakWords is the high-water mark of the leader output buffer.
	LOBPeakWords int
	// TransitionLengths is the distribution of committed cycles per
	// transition; RollForthLengths the distribution of replay lengths.
	TransitionLengths *stats.Hist
	RollForthLengths  *stats.Hist
}

// Perf returns the headline metric: target cycles per second of modeled
// wall-clock time.
func (r *Report) Perf() float64 { return r.Ledger.CyclesPerSecond(r.Cycles) }

// Engine drives one co-emulation session.
type Engine struct {
	cfg     Config
	domains [2]*Domain
	ch      *channel.Channel
	// tr is the physical transport every wire-path packet travels
	// through: a Loopback ring by default, a Queues transport under the
	// fault endpoint, or an injected remote transport
	// (Config.Transport). nil unless WirePackets — the loopback
	// accounting path materializes no packets at all. Transports carry
	// bits only; the engine charges all channel economics through e.ch
	// explicitly, so stats and ledger are identical across transports.
	tr      channel.Transport
	ledger  vclock.Ledger
	lob     *LOB
	inject  *predict.FaultInjector
	stats   Stats
	checker amba.Checker
	trace   []amba.CycleState

	transLen *stats.Hist
	rollLen  *stats.Hist

	// failEWMA estimates the recent misprediction rate for the
	// adaptive governor.
	failEWMA float64

	// window is each leader's adaptive run-ahead window in cycles: the
	// most a transition it leads may commit (step widens it after a
	// transition without a rollback, narrowWindow shrinks it). Compact
	// entries let a LOB hold far more cycles than a low-accuracy leader
	// commits before a miss; the window keeps the run-ahead a rollback
	// throws away near the span that actually holds. It starts at, and
	// never exceeds, lob.MaxCycles.
	window [2]int64

	// Scratch buffers reused across cycles and transitions so the
	// steady-state loop is allocation-free. packBuf backs every outbound
	// Pack (the channel copies payloads into its own pooled buffers, so
	// one scratch serves all sends); preds and flushEnt are live only
	// within a single transition.
	packBuf  []amba.Word
	preds    []amba.PartialState
	flushEnt []Entry

	// rxBuf holds the decoded payload of the most recent wire-codec
	// receive per direction (both directions can be in flight within
	// one conservative cycle). predBuf is the scratch for leader-choice
	// probes, whose predicted value is discarded.
	rxBuf   [2]amba.PartialState
	predBuf amba.PartialState

	// consOut and consFull hold the most recent conservative cycle's
	// per-domain contributions and merged state — the template a
	// batched conservative stretch repeats (and the payload sizes its
	// channel accounting replicates).
	consOut  [2]amba.PartialState
	consFull amba.CycleState

	// done is the cancellation channel of the active RunContext call
	// (nil outside one, and for plain Run — a nil channel is never
	// ready, so the per-cycle check costs one non-blocking select).
	done <-chan struct{}

	// consRunStart and consRunN coalesce contiguous conservative cycles
	// into one trace span: per-cycle events would flood the tracer ring
	// during long conservative stretches. The open span is flushed when
	// a transition starts or the run ends. Only maintained with a
	// tracer attached.
	consRunStart int64
	consRunN     int64
}

// errCanceled is the engine-internal cancellation sentinel. The cycle
// loop returns this preallocated error so checking for cancellation
// never allocates; RunContext translates it to the context's own error.
var errCanceled = errors.New("core: run canceled")

// canceled reports whether the active run's context has been canceled.
func (e *Engine) canceled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// runErr maps the engine-internal cancellation sentinel back to the
// run context's error; every other failure passes through unchanged.
func (e *Engine) runErr(ctx context.Context, err error) error {
	if errors.Is(err, errCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// EWMA constants of the adaptive governor: per-check blending and the
// per-conservative-cycle decay that lets the engine probe optimism again
// after backing off.
const (
	ewmaBlend = 0.05
	ewmaDecay = 0.995
)

// NewEngine builds the split system for a design.
func NewEngine(d Design, cfg Config) (*Engine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.SimSpeed <= 0 || cfg.AccSpeed <= 0 {
		return nil, fmt.Errorf("core: non-positive domain speed")
	}
	if cfg.LOBDepth < minLOBDepth {
		return nil, fmt.Errorf("core: LOB depth %d words < minimum %d (one framing word plus one worst-case entry)", cfg.LOBDepth, minLOBDepth)
	}
	if cfg.CycleBatch < 1 {
		return nil, fmt.Errorf("core: cycle batch %d < 1 (0 selects the default, 1 disables batching)", cfg.CycleBatch)
	}
	if cfg.ChannelFaults != nil {
		if err := (&faultplan.Plan{Channel: cfg.ChannelFaults}).Validate(); err != nil {
			return nil, err
		}
		cfg.WirePackets = true
	}
	if cfg.Transport != nil {
		cfg.WirePackets = true
	}
	e := &Engine{cfg: cfg, lob: NewLOB(cfg.LOBDepth)}
	e.window = [2]int64{e.lob.MaxCycles(), e.lob.MaxCycles()}
	e.ch = channel.New(*cfg.Stack, &e.ledger)
	e.tr = cfg.Transport
	if e.tr == nil && cfg.WirePackets {
		if cfg.ChannelFaults != nil {
			// The fault endpoint below reorders and drops physical
			// frames; the general queue absorbs that, the bounded
			// loopback ring would not.
			e.tr = channel.NewQueues()
		} else {
			e.tr = channel.NewLoopback()
		}
	}
	if cfg.ChannelFaults != nil {
		e.tr = channel.NewFaultEndpoint(e.tr, cfg.ChannelFaults, cfg.ChannelFaultSeed)
	}
	simCyc := time.Duration(1e9 / cfg.SimSpeed)
	accCyc := time.Duration(1e9 / cfg.AccSpeed)
	opts := predictorOptions{Idle: cfg.PredictIdle, Starts: cfg.PredictBurstStarts}
	e.domains[SimDomain] = buildDomain(d, SimDomain, simCyc, *cfg.SimCost, opts)
	e.domains[AccDomain] = buildDomain(d, AccDomain, accCyc, *cfg.AccCost, opts)
	if cfg.Accuracy < 1 {
		e.inject = predict.NewFaultInjector(cfg.Accuracy, cfg.FaultSeed)
	}
	e.stats.Declines = make(map[DeclineReason]int64)
	e.transLen = stats.NewHist()
	e.rollLen = stats.NewHist()
	return e, nil
}

// Domain returns one of the two domains (for inspection in tests).
func (e *Engine) Domain(id DomainID) *Domain { return e.domains[id] }

// vars returns the rollback-variable count used for pricing stores and
// restores of domain d.
func (e *Engine) vars(d *Domain) int {
	if e.cfg.RollbackVars > 0 {
		return e.cfg.RollbackVars
	}
	return d.Vars()
}

// dirFrom returns the channel direction for traffic sent by domain d.
func dirFrom(d DomainID) channel.Dir {
	if d == SimDomain {
		return channel.SimToAcc
	}
	return channel.AccToSim
}

// commitTrace records a committed cycle in the merged trace stream.
func (e *Engine) commitTrace(cs *amba.CycleState) error {
	return e.commitTraceN(cs, 1)
}

// commitTraceN records n repetitions of a committed cycle — the
// batched counterpart of commitTrace for quiescent stretches, whose
// every cycle merges to the same state. The protocol checker still
// sees one Check per cycle, and the kept trace grows by n identical
// records, exactly as n single commits would leave them.
func (e *Engine) commitTraceN(cs *amba.CycleState, n int64) error {
	if e.cfg.CheckProtocol {
		for i := int64(0); i < n; i++ {
			if err := e.checker.Check(*cs); err != nil {
				return fmt.Errorf("core: committed trace: %w", err)
			}
		}
	}
	if e.cfg.KeepTrace {
		for i := int64(0); i < n; i++ {
			e.trace = append(e.trace, *cs)
		}
	}
	e.stats.Committed += n
	return nil
}

// traceEvent records one protocol event when a tracer is attached. The
// nil check is the entire disabled-path cost: the event is built on the
// caller's stack and Record never allocates.
func (e *Engine) traceEvent(ev trace.Event) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(ev)
	}
}

// noteConservative extends the open conservative trace span by n cycles
// committed at target position start, opening a new span when the
// stretch is not contiguous with the open one.
func (e *Engine) noteConservative(start, n int64) {
	if e.cfg.Tracer == nil {
		return
	}
	if e.consRunN > 0 && e.consRunStart+e.consRunN == start {
		e.consRunN += n
		return
	}
	e.flushConsTrace()
	e.consRunStart, e.consRunN = start, n
}

// flushConsTrace emits the open conservative span, if any.
func (e *Engine) flushConsTrace() {
	if e.consRunN > 0 {
		e.cfg.Tracer.Record(trace.Event{
			Cycle: e.consRunStart, N: e.consRunN,
			Kind: trace.EvConservative, Domain: trace.NoDomain,
		})
	}
	e.consRunN = 0
}

// inactivePartial reports whether a per-cycle contribution is
// inactive: no bus request, no write data, no slave reply, no split
// release and at most an IDLE address phase. Committing an inactive
// remote against a quiescent local domain leaves every registered bus
// state except the cycle counter unchanged — the fixed point the
// predicted-quiescence batching repeats. Interrupt lines may hold any
// constant value: nothing in the fabric reacts to a held line. The
// pointer receiver keeps the per-cycle probe copy-free.
func inactivePartial(p *amba.PartialState) bool {
	return p.Req == 0 && !p.HasWData && !p.HasReply && p.Split == 0 &&
		(!p.HasAP || p.AP.Trans == amba.TransIdle)
}

// sendPartial ships one domain contribution across the channel. Every
// path charges the access at the packed payload size through e.ch — the
// transport only moves bits. The default accounting path materializes
// no packet (the engine is both endpoints and already holds the value);
// WirePackets forces the codec round trip through e.tr.
func (e *Engine) sendPartial(d channel.Dir, p *amba.PartialState) error {
	e.ch.Account(d, p.PackedWords())
	if !e.cfg.WirePackets {
		return nil
	}
	e.packBuf = p.Pack(e.packBuf[:0])
	return e.tr.Send(d, e.packBuf)
}

// recvPartial yields the contribution shipped with sendPartial. sent
// is the value the in-process sender handed over; st is the sender's
// static configuration.
// The loopback path returns sent unchanged — the wire codec
// round-trips every packable state losslessly (design validation
// bounds masters and IRQ lines to the header's eight bits), which the
// wire-codec differential test pins end to end.
func (e *Engine) recvPartial(d channel.Dir, sent *amba.PartialState, st amba.Static) (*amba.PartialState, error) {
	if !e.cfg.WirePackets {
		return sent, nil
	}
	pkt, err := e.tr.Recv(d)
	if err != nil {
		return nil, err
	}
	p, _, err := amba.Unpack(pkt, st)
	e.tr.Release(pkt)
	e.rxBuf[d] = p
	return &e.rxBuf[d], err
}

// conservativeCycle synchronizes both domains for one cycle the
// conventional way: each domain evaluates and ships its contribution,
// two channel accesses total (the C-path of the paper's Figure 3). The
// committed template (per-domain contributions and merged state) is
// recorded for the conservative batching fast path.
func (e *Engine) conservativeCycle() error {
	if e.canceled() {
		return errCanceled
	}
	simD, accD := e.domains[SimDomain], e.domains[AccDomain]
	simOut := &e.consOut[SimDomain]
	accOut := &e.consOut[AccDomain]
	simD.EvaluateInto(&e.ledger, simOut)
	if err := e.sendPartial(channel.SimToAcc, simOut); err != nil {
		return fmt.Errorf("core: conservative sim->acc: %w", err)
	}
	accD.EvaluateInto(&e.ledger, accOut)
	if err := e.sendPartial(channel.AccToSim, accOut); err != nil {
		return fmt.Errorf("core: conservative acc->sim: %w", err)
	}

	simIn, err := e.recvPartial(channel.AccToSim, accOut, accD.Static())
	if err != nil {
		return fmt.Errorf("core: conservative sim<-acc: %w", err)
	}
	accIn, err := e.recvPartial(channel.SimToAcc, simOut, simD.Static())
	if err != nil {
		return fmt.Errorf("core: conservative acc<-sim: %w", err)
	}

	fullSim := simD.CommitFrom(simIn)
	fullAcc := accD.CommitFrom(accIn)
	if *fullSim != *fullAcc {
		return fmt.Errorf("core: domains diverged on a conservative cycle:\nsim: %s\nacc: %s", fullSim, fullAcc)
	}
	e.consFull = *fullSim
	e.stats.ConservativeCycles++
	e.failEWMA *= ewmaDecay
	e.noteConservative(e.stats.Committed, 1)
	return e.commitTrace(&e.consFull)
}

// batchConservative extends the conservative cycle just committed
// across a provably quiescent stretch: when both domains are idle from
// ground truth, both predictors hold their outcomes (so the per-cycle
// leader choice and its decline accounting replicate exactly), and the
// recorded contributions are inactive, up to CycleBatch-1 further
// cycles are committed in one step. Every ledger charge, channel
// access, statistic and trace record lands exactly as the single-step
// loop would have left it. decl is the decline record of the leader
// choice that preceded the seed cycle, replayed once per batched
// cycle.
func (e *Engine) batchConservative(cycles int64, decl declinePair) error {
	n := int64(e.cfg.CycleBatch) - 1
	if rem := cycles - e.stats.Committed; rem < n {
		n = rem
	}
	if n <= 0 {
		return nil
	}
	if e.cfg.Mode != Conservative && decl == (declinePair{}) {
		// A nil leader without a single recorded decline in an
		// optimistic mode means the seed's choice was made under
		// adaptive-governor back-off: the predictors were never
		// consulted, and the estimate decayed by the seed cycle may
		// re-enable them on the very next choice — a batch would
		// replicate a decision the single-step engine no longer makes.
		// Single-step through the back-off instead. (Checking the
		// decline record rather than failEWMA keeps the guard exact on
		// the threshold-crossing cycle, where the seed saw the
		// pre-decay estimate.)
		return nil
	}
	if !inactivePartial(&e.consOut[SimDomain]) || !inactivePartial(&e.consOut[AccDomain]) {
		return nil
	}
	for _, d := range e.domains {
		if q := d.QuiescentCycles(); q < n {
			n = q
		}
		if q := d.PredictionStableCycles(); q < n {
			n = q
		}
	}
	if n <= 0 {
		return nil
	}
	if e.canceled() {
		return errCanceled
	}

	e.ch.AccountN(channel.SimToAcc, e.consOut[SimDomain].PackedWords(), n)
	e.ch.AccountN(channel.AccToSim, e.consOut[AccDomain].PackedWords(), n)
	e.domains[SimDomain].AdvanceQuiescent(&e.ledger, n)
	e.domains[AccDomain].AdvanceQuiescent(&e.ledger, n)
	e.stats.ConservativeCycles += n
	e.stats.BatchedCycles += n
	e.recordDeclines(decl, n)
	for i := int64(0); i < n; i++ {
		e.failEWMA *= ewmaDecay
	}
	e.traceEvent(trace.Event{
		Cycle: e.stats.Committed, N: n,
		Kind: trace.EvBatchCommit, Domain: trace.NoDomain, Arg: trace.BatchConservative,
	})
	e.noteConservative(e.stats.Committed, n)
	return e.commitTraceN(&e.consFull, n)
}

// declinePair is the decline record of one leader choice: at most two
// predictors are consulted per cycle (Auto tries both orders), and
// DeclineNone slots are empty.
type declinePair [2]DeclineReason

// pickLeader picks the leading domain for the next transition (nil for
// a conservative cycle) and returns which predictors declined. It has
// no side effects: the Predict calls it probes are pure, so it may run
// before the transition's snapshot. The caller records the declines —
// separating the choice from its accounting is what lets a batched
// quiescent stretch, across which the choice is provably constant,
// replicate the per-cycle decline statistics exactly.
func (e *Engine) pickLeader() (*Domain, declinePair) {
	var decl declinePair
	if e.cfg.Adaptive && e.failEWMA > e.cfg.AdaptiveThreshold {
		// Governor back-off: recent predictions were too unreliable for
		// optimism to pay; run conservative and let the estimate decay.
		return nil, decl
	}
	slot := 0
	try := func(d *Domain) *Domain {
		reason := d.PredictInto(&e.predBuf)
		if reason == DeclineNone {
			return d
		}
		decl[slot] = reason
		slot++
		return nil
	}
	switch e.cfg.Mode {
	case Conservative:
		return nil, decl
	case SLA:
		return try(e.domains[SimDomain]), decl
	case ALS:
		return try(e.domains[AccDomain]), decl
	case Auto:
		// The data source leads: for a write in flight that is the
		// master's domain, for a read the slave's. Idle bus: prefer the
		// accelerator (the faster domain gains more from running ahead).
		b := e.domains[SimDomain].Bus() // both buses agree at sync points
		pref := e.domains[AccDomain]
		if valid, ap, master, slave := b.DataPhase(); valid {
			if ap.Write {
				pref = e.domains[e.masterDomain(master)]
			} else {
				pref = e.domains[e.slaveDomain(slave)]
			}
		}
		if d := try(pref); d != nil {
			return d, decl
		}
		return try(e.domains[pref.ID().Other()]), decl
	default:
		return nil, decl
	}
}

// recordDeclines adds n repetitions of one cycle's decline record to
// the stats.
func (e *Engine) recordDeclines(decl declinePair, n int64) {
	for _, r := range decl {
		if r != DeclineNone {
			e.stats.Declines[r] += n
		}
	}
}

// chooseLeader is pickLeader plus its decline accounting — one cycle's
// leader choice exactly as the run loop performs it.
func (e *Engine) chooseLeader() *Domain {
	d, decl := e.pickLeader()
	e.recordDeclines(decl, 1)
	return d
}

// masterDomain returns the domain of global master index i.
func (e *Engine) masterDomain(i int) DomainID {
	if e.domains[SimDomain].Bus().MasterLocal(i) {
		return SimDomain
	}
	return AccDomain
}

// slaveDomain returns the domain of global slave index i (default slave
// belongs to its owner).
func (e *Engine) slaveDomain(i int) DomainID {
	if i < 0 {
		if e.domains[SimDomain].Bus().OwnsDefaultSlave() {
			return SimDomain
		}
		return AccDomain
	}
	if e.domains[SimDomain].Bus().SlaveLocal(i) {
		return SimDomain
	}
	return AccDomain
}

// transition runs one full optimistic transition with the given leader.
// It returns the number of target cycles committed.
func (e *Engine) transition(leader *Domain, budget int64) (int64, error) {
	lagger := e.domains[leader.ID().Other()]
	e.stats.Transitions++
	e.stats.TransitionsByLead[leader.ID()]++
	if e.cfg.Tracer != nil {
		e.flushConsTrace()
		e.traceEvent(trace.Event{
			Cycle: e.stats.Committed, Kind: trace.EvSync, Domain: uint8(leader.ID()),
		})
	}

	committedLead := int64(0)
	if e.cfg.PaperStrictTransitions {
		// P-6: the first P-path cycle runs conservatively; the state
		// store registered in P-5 happens once it completes and the
		// leader's variables have stabilized (footnote 5).
		if err := e.conservativeCycle(); err != nil {
			return 0, err
		}
		committedLead = 1
		budget--
		if budget <= 0 {
			return committedLead, nil
		}
	}

	// rb_store (P-5): capture the leader before optimistic operation.
	snap := leader.Snapshot(&e.ledger, e.vars(leader))
	e.stats.Stores++
	e.lob.Reset()
	// base is the target-cycle position the run-ahead (and its
	// follow-up replay) starts at — every trace span below anchors to
	// it.
	base := e.stats.Committed
	raStart := e.stats.RunAheadCycles
	e.traceEvent(trace.Event{Cycle: base, Kind: trace.EvStore, Domain: uint8(leader.ID())})

	// The run-ahead entry is reused across iterations (Push copies it
	// into the buffer).
	var entry Entry
	entry.HasPred = true
	if e.cfg.PaperStrictTransitions {
		// The probe's prediction lands in entry.Pred, which the first
		// run-ahead iteration overwrites.
		if reason := leader.PredictInto(&entry.Pred); reason != DeclineNone {
			// Footnote 6: the leader can no longer predict at the very
			// next cycle; the transition ends with the state store
			// spent for nothing.
			e.stats.Declines[reason]++
			return committedLead, nil
		}
	}

	// Run-Ahead (P-path): commit cycles against predictions until the
	// predictor declines, the LOB fills, or the budget is reached. The
	// buffer always keeps room for the final, prediction-less entry
	// (maxPartialWords), which is deposited after the loop decides to
	// stop — by then the cycle is already evaluated. Sizes are charged
	// relative to the buffer's last entry, exactly as the flush packs
	// them. e.preds records the committed predictions for roll-forth;
	// its buffer is reused across transitions.
	e.preds = e.preds[:0]
	for {
		if e.canceled() {
			return committedLead, errCanceled
		}
		leader.EvaluateInto(&e.ledger, &entry.Out)
		reason := leader.PredictInto(&entry.Pred)
		last := false
		w := 0
		if reason != DeclineNone {
			e.stats.Declines[reason]++
			last = true
		} else if int64(e.lob.Len()+1) >= budget {
			last = true // the budgeted final cycle resolves conventionally
		} else if w = e.lob.EntryWords(&entry); e.lob.Words()+w+maxPartialWords > e.lob.Depth() {
			last = true
		}
		if last {
			final := Entry{Out: entry.Out}
			e.lob.Push(&final, e.lob.EntryWords(&final))
			break
		}
		e.lob.Push(&entry, w)
		e.preds = append(e.preds, entry.Pred)
		leader.CommitFrom(&entry.Pred)
		e.stats.RunAheadCycles++

		// Predicted-quiescence fast path: when the leader is provably
		// idle and the predictor guarantees the same inactive
		// prediction for the cycles ahead, the coming run-ahead cycles
		// are exact repetitions of the entry just deposited — commit a
		// batch of them in one step (LOB deposits included, so the
		// flush on the wire is unchanged).
		if n := e.runAheadQuiescent(leader, &entry, budget); n > 0 {
			if e.canceled() {
				return committedLead, errCanceled
			}
			// Each repetition follows an identical entry, so all cost
			// the same.
			w := e.lob.EntryWords(&entry)
			for k := int64(0); k < n; k++ {
				e.lob.Push(&entry, w)
				e.preds = append(e.preds, entry.Pred)
			}
			leader.AdvanceQuiescent(&e.ledger, n)
			e.stats.RunAheadCycles += n
			e.stats.BatchedCycles += n
			e.traceEvent(trace.Event{
				Cycle: base + (e.stats.RunAheadCycles - raStart), N: n,
				Kind: trace.EvBatchCommit, Domain: uint8(leader.ID()), Arg: trace.BatchRunAhead,
			})
		}
	}
	if ran := e.stats.RunAheadCycles - raStart; ran > 0 {
		e.traceEvent(trace.Event{
			Cycle: base, N: ran, Kind: trace.EvRunAhead, Domain: uint8(leader.ID()),
		})
	}
	e.traceEvent(trace.Event{
		Cycle: base + (e.stats.RunAheadCycles - raStart), Kind: trace.EvFlush,
		Domain: uint8(leader.ID()), Arg: int64(e.lob.Words()),
	})

	// Flush (S-2): the whole LOB crosses the channel as one burst,
	// charged at the packed size. The accounting path replays the
	// entries straight from the buffer; WirePackets forces the codec
	// round trip and checks that the packet is exactly as long as the
	// size charged.
	entries := e.lob.Entries()
	got := entries
	e.ch.Account(dirFrom(leader.ID()), e.lob.Words())
	if e.cfg.WirePackets {
		e.packBuf = packFlush(e.packBuf[:0], entries)
		if len(e.packBuf) != e.lob.Words() {
			return committedLead, fmt.Errorf("core: flush packed %d words, LOB charged %d", len(e.packBuf), e.lob.Words())
		}
		if err := e.tr.Send(dirFrom(leader.ID()), e.packBuf); err != nil {
			return committedLead, fmt.Errorf("core: flush: %w", err)
		}
		flushPkt, err := e.tr.Recv(dirFrom(leader.ID()))
		if err != nil {
			return committedLead, fmt.Errorf("core: flush: %w", err)
		}
		got, err = unpackFlush(e.flushEnt[:0], flushPkt, leader.Static(), lagger.Static())
		e.flushEnt = got[:0]
		e.tr.Release(flushPkt)
		if err != nil {
			return committedLead, err
		}
	}

	// Follow-Up (L-path): the lagger replays each cycle with the
	// leader's outputs and checks each prediction (L-1).
	committed := committedLead
	for i := 0; i < len(got); i++ {
		entry := &got[i]
		if e.canceled() {
			return committed, errCanceled
		}
		var laggerOut amba.PartialState
		lagger.EvaluateInto(&e.ledger, &laggerOut)
		full := lagger.CommitFrom(&entry.Out)
		e.stats.FollowUpCycles++
		if err := e.commitTrace(full); err != nil {
			return committed, err
		}
		committed++

		if !entry.HasPred {
			// Final entry: report the lagger's actual contribution
			// (R-path); the leader completes its pending cycle with it.
			ok, _, actual, err := e.exchangeReport(lagger, true, 0, laggerOut)
			if err != nil || !ok {
				return committed, fmt.Errorf("core: success report: ok=%v err=%v", ok, err)
			}
			leader.CommitFrom(&actual)
			e.traceEvent(trace.Event{
				Cycle: base, N: committed - committedLead,
				Kind: trace.EvFollowUp, Domain: uint8(lagger.ID()),
			})
			return committed, nil
		}

		e.stats.ChecksTotal++
		match := laggerOut == entry.Pred
		injected := false
		if match && e.inject != nil && e.inject.Mispredict() {
			match = false
			injected = true
			e.stats.Injected++
		}
		if match {
			e.failEWMA *= 1 - ewmaBlend
			// Predicted-quiescence fast path: a run of identical idle
			// entries replayed into a provably idle lagger repeats the
			// cycle just checked — commit the run in one step. (The
			// final, prediction-less entry never matches the run, so
			// the batch always stops short of it.)
			if n := e.followUpQuiescent(lagger, got, i); n > 0 {
				lagger.AdvanceQuiescent(&e.ledger, n)
				e.stats.FollowUpCycles += n
				e.stats.ChecksTotal += n
				e.stats.BatchedCycles += n
				for k := int64(0); k < n; k++ {
					e.failEWMA *= 1 - ewmaBlend
				}
				if err := e.commitTraceN(full, n); err != nil {
					return committed, err
				}
				committed += n
				i += int(n)
				e.traceEvent(trace.Event{
					Cycle: base + (committed - committedLead), N: n,
					Kind: trace.EvBatchCommit, Domain: uint8(lagger.ID()), Arg: trace.BatchFollowUp,
				})
			}
			continue
		}
		e.failEWMA = e.failEWMA*(1-ewmaBlend) + ewmaBlend
		e.stats.Mispredicts++
		var sig amba.Signal
		if !injected {
			sig, _ = laggerOut.FirstDiff(&entry.Pred)
			e.stats.MispredictsBySignal[sig]++
		}
		if e.cfg.Tracer != nil {
			e.traceEvent(trace.Event{
				Cycle: base + int64(i), Kind: trace.EvMispredict,
				Domain: uint8(lagger.ID()), Arg: trace.MispredictArg(sig, injected),
			})
			e.traceEvent(trace.Event{
				Cycle: base, N: committed - committedLead,
				Kind: trace.EvFollowUp, Domain: uint8(lagger.ID()),
			})
		}

		// Prediction failure (L-5): report the actual contribution.
		ok, idx, actual, err := e.exchangeReport(lagger, false, i, laggerOut)
		if err != nil || ok || idx != i {
			return committed, fmt.Errorf("core: failure report: ok=%v idx=%d err=%v", ok, idx, err)
		}

		// RollBack (S-6) + Roll-Forth (F-path): restore, then replay to
		// the lagger's progress point using recorded predictions (all
		// correct before i) and the reported actual for cycle i.
		leader.Rollback(&e.ledger, e.vars(leader), snap)
		e.narrowWindow(leader.ID(), i)
		e.stats.Rollbacks++
		e.stats.Restores++
		e.rollLen.Add(i + 1)
		e.traceEvent(trace.Event{
			Cycle: base + int64(i), Kind: trace.EvRollback,
			Domain: uint8(leader.ID()), Arg: int64(i + 1),
		})
		for r := 0; r <= i; r++ {
			var replayOut amba.PartialState
			leader.EvaluateInto(&e.ledger, &replayOut)
			if replayOut != got[r].Out {
				return committed, fmt.Errorf("core: roll-forth diverged at %d/%d:\nwas: %+v\nnow: %+v", r, i, got[r].Out, replayOut)
			}
			remote := &actual
			if r < i {
				remote = &e.preds[r]
			}
			leader.CommitFrom(remote)
			e.stats.RollForthCycles++
		}
		e.traceEvent(trace.Event{
			Cycle: base, N: int64(i + 1),
			Kind: trace.EvRollForth, Domain: uint8(leader.ID()),
		})
		return committed, nil
	}
	return committed, fmt.Errorf("core: transition fell through (no final entry)")
}

// runAheadQuiescent bounds the number of additional run-ahead cycles
// guaranteed to repeat the entry just committed: the entry must be
// inactive in both directions, the leader provably idle from ground
// truth, the prediction stable, and every batched entry must remain
// non-final — the cycle after the batch still needs budget and LOB
// room (worst-case final entry included) so the stop decision is taken
// on a really-evaluated cycle exactly as in the single-step loop.
// Returns 0 when the next cycle must be evaluated for real.
func (e *Engine) runAheadQuiescent(leader *Domain, entry *Entry, budget int64) int64 {
	n := int64(e.cfg.CycleBatch) - 1
	if n <= 0 {
		return 0
	}
	if !inactivePartial(&entry.Out) || !inactivePartial(&entry.Pred) {
		return 0
	}
	if q := leader.QuiescentCycles(); q < n {
		n = q
	}
	if q := leader.PredictionStableCycles(); q < n {
		n = q
	}
	if byBudget := budget - int64(e.lob.Len()) - 1; byBudget < n {
		n = byBudget
	}
	// The entry just pushed is the buffer's last, so its size after
	// itself is what each repetition costs.
	byWords := int64(e.lob.Depth()-maxPartialWords-e.lob.Words()) / int64(e.lob.EntryWords(entry))
	if byWords < n {
		n = byWords
	}
	if n < 0 {
		return 0
	}
	return n
}

// followUpQuiescent bounds the number of further flush entries the
// lagger may commit in one step after the matched check at index i:
// the entries must repeat entry i exactly, the lagger must be provably
// idle for the span, and the fault injector must be off (each injector
// check consumes deterministic randomness that must be drawn cycle by
// cycle). The final, prediction-less entry never equals a checked one,
// so the scan always stops before it.
func (e *Engine) followUpQuiescent(lagger *Domain, got []Entry, i int) int64 {
	limit := int64(e.cfg.CycleBatch) - 1
	if limit <= 0 || e.inject != nil {
		return 0
	}
	entry := &got[i]
	if !inactivePartial(&entry.Out) || !inactivePartial(&entry.Pred) {
		return 0
	}
	if q := lagger.QuiescentCycles(); q < limit {
		limit = q
	}
	n := int64(0)
	for n < limit && i+1+int(n) < len(got) && got[i+1+int(n)] == *entry {
		n++
	}
	return n
}

// exchangeReport carries a follow-up report (success, or failure at
// idx, plus the lagger's actual contribution) from lagger to leader
// and returns it as the leader decodes it. The loopback path accounts
// the access and hands the values through; WirePackets forces the
// codec round trip and checks the packet against the size charged.
func (e *Engine) exchangeReport(lagger *Domain, success bool, idx int, actual amba.PartialState) (bool, int, amba.PartialState, error) {
	e.ch.Account(dirFrom(lagger.ID()), 1+actual.PackedWords())
	if e.cfg.WirePackets {
		e.packBuf = packReport(e.packBuf[:0], success, idx, actual)
		if len(e.packBuf) != 1+actual.PackedWords() {
			return false, 0, amba.PartialState{}, fmt.Errorf("core: report packed %d words, charged %d", len(e.packBuf), 1+actual.PackedWords())
		}
		if err := e.tr.Send(dirFrom(lagger.ID()), e.packBuf); err != nil {
			return false, 0, amba.PartialState{}, fmt.Errorf("core: report: %w", err)
		}
		repPkt, err := e.tr.Recv(dirFrom(lagger.ID()))
		if err != nil {
			return false, 0, amba.PartialState{}, fmt.Errorf("core: report: %w", err)
		}
		ok, i, act, err := unpackReport(repPkt, lagger.Static())
		e.tr.Release(repPkt)
		return ok, i, act, err
	}
	return success, idx, actual, nil
}

// step runs one iteration of the cycle loop of a run that ends at
// cycles committed: a leader choice, then either the transition it
// opens or a conservative cycle.
func (e *Engine) step(cycles int64) error {
	leader, decl := e.pickLeader()
	e.recordDeclines(decl, 1)
	if leader == nil {
		if err := e.conservativeCycle(); err != nil {
			return err
		}
		// Predicted-quiescence fast path: extend the cycle across an
		// idle stretch in one batched step.
		return e.batchConservative(cycles, decl)
	}
	w, rollbacks := e.window[leader.ID()], e.stats.Rollbacks
	n, err := e.transition(leader, min(cycles-e.stats.Committed, w))
	if err != nil {
		return err
	}
	if e.stats.Rollbacks == rollbacks {
		// Every prediction held, whether the transition ended at the
		// window, a full LOB or a decline.
		e.window[leader.ID()] = min(2*w, e.lob.MaxCycles())
	}
	e.transLen.Add(int(n))
	return nil
}

// narrowWindow shrinks a leader's run-ahead window after a rollback at
// check index i: to three quarters, but never below twice the span that
// held (and never above what the LOB can carry).
func (e *Engine) narrowWindow(id DomainID, i int) {
	e.window[id] = min(e.lob.MaxCycles(), max(2*int64(i+1), e.window[id]*3/4))
}

// Run executes the co-emulation for the given number of target cycles
// and returns the report.
func (e *Engine) Run(cycles int64) (*Report, error) {
	return e.RunContext(context.Background(), cycles)
}

// RunContext is Run with cancellation: the engine polls ctx between
// domain cycles (conservative cycles, run-ahead cycles and follow-up
// cycles alike), so a cancel lands within one target cycle of work.
// A canceled run returns ctx.Err(); the engine must not be reused
// afterwards — a transition may have been abandoned mid-flight.
func (e *Engine) RunContext(ctx context.Context, cycles int64) (*Report, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("core: non-positive cycle count %d", cycles)
	}
	e.done = ctx.Done()
	defer func() { e.done = nil }()
	for e.stats.Committed < cycles {
		if err := e.step(cycles); err != nil {
			return nil, e.runErr(ctx, err)
		}
	}
	if e.cfg.Tracer != nil {
		e.flushConsTrace()
	}
	// The Stats struct shallow-copies into the report, but Declines is a
	// map: hand the report its own copy so it describes this run's
	// outcome rather than aliasing live engine state.
	st := e.stats
	st.Declines = make(map[DeclineReason]int64, len(e.stats.Declines))
	for k, v := range e.stats.Declines {
		st.Declines[k] = v
	}
	rep := &Report{
		Mode:              e.cfg.Mode,
		Cycles:            e.stats.Committed,
		Ledger:            e.ledger.Snapshot(),
		Stats:             st,
		Channel:           e.ch.Stats(),
		Trace:             e.trace,
		LOBPeakWords:      e.lob.PeakWords(),
		TransitionLengths: e.transLen,
		RollForthLengths:  e.rollLen,
	}
	return rep, nil
}
