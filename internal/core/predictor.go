package core

import (
	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/predict"
)

// remotePredictor composes the paper's §3 predictors into a single
// predictor of the other domain's per-cycle contribution:
//
//   - bus requests and interrupt lines: last-value,
//   - address/control of a remotely-granted master: burst continuation
//     (one tracker per remote master),
//   - responses of a remote active slave: producer-consumer wait model
//     (one per remote slave, configured with its nominal profile), or
//     an exact reply model for slaves that declare one (the RETRY and
//     SPLIT memories, whose model also predicts the HSPLITx release),
//   - the address phase of a master that lost its burst: held during
//     wait states, IDLE on the first cycle of a two-cycle response to
//     its beat and while split-masked, then the NONSEQ INCR rebuild,
//   - default-slave replies (when owned remotely): a two-cycle ERROR
//     mirror,
//   - read data and remote write data: never predicted — Predict
//     declines, forcing the channel wrapper to synchronize, which is how
//     the "data source leads" rule emerges.
//
// The predictor advances exclusively through Observe calls, one per
// committed cycle, regardless of whether the committed remote values
// were real or predicted. Predict itself is pure. That discipline makes
// roll-forth replay trivially consistent: restore, then re-Observe.
type remotePredictor struct {
	b *bus.Bus

	remoteReqMask   uint32
	remoteIRQMask   uint32
	remoteSplitMask uint32
	// replySlaves lists the remote slaves with a reply model (see
	// replies), so the per-cycle loops visit only those.
	replySlaves []int
	ownsDefault bool
	// coupleReq derives the granted remote master's request bit from
	// its predicted address phase instead of last-value (enabled with
	// the burst-start extension, whose boundary cycles otherwise
	// mispredict on the request-line blip between bursts).
	coupleReq bool

	req predict.LastValue
	irq predict.LastValue
	// trackers/waits are dense slices indexed by global master/slave
	// number (nil for local components): the per-cycle Predict lookups
	// and the per-transition snapshot walks cost array indexing
	// instead of the map accesses and map iteration that used to
	// dominate the rollback-heavy store/restore profile.
	trackers []*predict.BurstTracker // per remote master
	waits    []*predict.WaitModel    // per remote slave without a reply model
	replies  []*predict.ReplyModel   // per remote slave with one

	predFrame
	saved predFrame // rollback shadow of predFrame
}

// predFrame is the predictor's own registered state; the component
// predictors above keep their own shadows.
type predFrame struct {
	defErr    defMirror
	lastValid bool
	lastFull  amba.CycleState
	pendingDP
}

// defMirror predicts the two-cycle ERROR sequence of a remotely-owned
// default slave.
type defMirror struct {
	InErr bool
}

// Predict returns the reply the remote default slave will drive.
func (m *defMirror) Predict() amba.SlaveReply {
	if m.InErr {
		return amba.SlaveReply{Ready: true, Resp: amba.RespError}
	}
	return amba.SlaveReply{Ready: false, Resp: amba.RespError}
}

// Observe aligns the mirror with an actual default-slave reply.
func (m *defMirror) Observe(r amba.SlaveReply) {
	m.InErr = r.Resp == amba.RespError && !r.Ready
}

// predictorOptions carries the extension knobs into the tracker setup.
type predictorOptions struct {
	Idle   bool // predict idle continuation
	Starts bool // predict burst starts by stride
}

// newRemotePredictor builds the composite for a domain whose half-bus is
// b. slaves lists the design's slaves in global index order. Each
// *remote* one is instantiated once to read its kind: RETRY and SPLIT
// memories get a reply model built from their own parameters, every
// other slave a wait model of its nominal (WaitFirst, WaitNext) profile.
func newRemotePredictor(b *bus.Bus, ownsDefault bool, slaves []SlaveSpec, opts predictorOptions) *remotePredictor {
	p := &remotePredictor{
		b:             b,
		remoteReqMask: ^b.LocalReqMask() & ((1 << uint(b.Masters())) - 1),
		ownsDefault:   ownsDefault,
		trackers:      make([]*predict.BurstTracker, b.Masters()),
		waits:         make([]*predict.WaitModel, b.Slaves()),
		replies:       make([]*predict.ReplyModel, b.Slaves()),
	}
	p.coupleReq = opts.Starts
	for i := 0; i < b.Masters(); i++ {
		if !b.MasterLocal(i) {
			p.trackers[i] = &predict.BurstTracker{PredictIdle: opts.Idle, PredictStarts: opts.Starts}
		}
	}
	for i, ss := range slaves {
		if b.SlaveLocal(i) {
			continue
		}
		switch s := ss.New().(type) {
		case *ip.RetryMemory:
			p.replies[i] = predict.NewRetryModel(s.Params())
		case *ip.SplitMemory:
			p.replies[i] = predict.NewSplitModel(s.Params())
		default:
			p.waits[i] = predict.NewWaitModel(ss.WaitFirst, ss.WaitNext)
			continue
		}
		p.replySlaves = append(p.replySlaves, i)
	}
	return p
}

// setRemoteIRQMask declares which interrupt lines arrive from the remote
// domain.
func (p *remotePredictor) setRemoteIRQMask(m uint32) { p.remoteIRQMask = m }

// setRemoteSplitMask declares which HSPLITx lines the remote domain's
// slaves drive.
func (p *remotePredictor) setRemoteSplitMask(m uint32) { p.remoteSplitMask = m }

// DeclineReason explains why the leader cannot run ahead this cycle; it
// feeds the engine's diagnostics.
type DeclineReason string

// Decline reasons. Empty means "can predict".
const (
	DeclineNone       DeclineReason = ""
	DeclineBurstStart DeclineReason = "remote master at unpredictable burst boundary"
	DeclineReadData   DeclineReason = "read data from remote slave"
	DeclineWriteData  DeclineReason = "write data from remote master"
	DeclineNoModel    DeclineReason = "no wait model for remote slave"
)

// PredictInto computes the predicted remote contribution for the
// upcoming cycle and writes it through dst (zeroed on decline) — the
// engine deposits it straight into a LOB entry. It has no side effects:
// every component predictor it consults is pure, so calling it any
// number of times between Observes returns the same value.
func (p *remotePredictor) PredictInto(dst *amba.PartialState) DeclineReason {
	out := dst
	*out = amba.PartialState{
		ReqMask:   p.remoteReqMask,
		Req:       p.req.Predict() & p.remoteReqMask,
		IRQMask:   p.remoteIRQMask,
		IRQ:       p.irq.Predict() & p.remoteIRQMask,
		SplitMask: p.remoteSplitMask,
	}
	// HSPLITx lines are one-cycle pulses, so last-value prediction
	// cannot serve them: the remote SPLIT slaves' reply models run the
	// release countdowns. A SPLIT-capable slave without a reply model
	// is predicted all-low, costing one rollback per release.
	for _, i := range p.replySlaves {
		out.Split |= p.replies[i].Split()
	}
	out.Split &= p.remoteSplitMask

	grant := p.b.Grant()
	if !p.b.MasterLocal(grant) {
		out.HasAP = true
		couple := p.coupleReq
		switch {
		case p.lastValid && !p.lastFull.Reply.Ready:
			// A wait state holds the address phase, except that the
			// first cycle of a two-cycle RETRY, SPLIT or ERROR reply
			// cancels the owner's next beat with IDLE. The IDLE says
			// nothing about its request.
			if p.lastFull.Reply.Resp == amba.RespOkay || !p.pendingDPValid || p.pendingDPMaster != grant {
				out.AP = p.lastFull.AP
			} else {
				couple = false
			}
		case p.b.SplitMasked()&(1<<uint(grant)) != 0:
			// A split-masked master presents IDLE until released,
			// still requesting the bus.
			couple = false
		default:
			ap, ok := p.trackers[grant].Predict()
			if !ok {
				*out = amba.PartialState{}
				return DeclineBurstStart
			}
			out.AP = ap
		}
		if couple {
			bit := uint32(1) << uint(grant)
			if out.AP.Trans != amba.TransIdle {
				out.Req |= bit & p.remoteReqMask
			} else {
				out.Req &^= bit
			}
		}
	}

	dpValid, dpAP, dpMaster, dpSlave := p.b.DataPhase()
	if dpValid {
		if dpAP.Write && !p.b.MasterLocal(dpMaster) {
			*out = amba.PartialState{}
			return DeclineWriteData
		}
		switch {
		case dpSlave == bus.DefaultSlaveIndex:
			if !p.ownsDefault {
				out.HasReply = true
				out.Reply = p.defErr.Predict()
			}
		case !p.b.SlaveLocal(dpSlave):
			if !dpAP.Write {
				*out = amba.PartialState{}
				return DeclineReadData
			}
			if wm := p.waits[dpSlave]; wm != nil {
				out.Reply = amba.SlaveReply{Ready: wm.Predict(), Resp: amba.RespOkay}
			} else if rm := p.replies[dpSlave]; rm != nil {
				out.Reply = rm.Predict()
			} else {
				*out = amba.PartialState{}
				return DeclineNoModel
			}
			out.HasReply = true
		}
	}
	return DeclineNone
}

// Observe advances the predictor with the remote contribution and full
// merged state of a cycle the domain just committed, both read in
// place (once per committed cycle; value args showed in profiles).
func (p *remotePredictor) Observe(full *amba.CycleState, remote *amba.PartialState) {
	p.req.Observe(remote.Req & p.remoteReqMask)
	p.irq.Observe(remote.IRQ & p.remoteIRQMask)

	// The bus has already committed, so its DataPhase() now describes
	// the NEXT cycle. The reply just observed belongs to the cycle that
	// ended; use the data phase stashed before the commit.
	if full.Reply.Ready {
		// Address-phase progression carries information only on ready
		// cycles; during wait states the value is held. A RETRY or
		// SPLIT completing here sends the failed beat's master back to
		// re-issue it. A master that loses the grant here rebuilds its
		// burst's remaining beats; the grant moves only on ready edges,
		// so the master granted this cycle is the only one that can.
		if r := full.Reply.Resp; (r == amba.RespRetry || r == amba.RespSplit) && p.pendingDPValid {
			if t := p.trackers[p.pendingDPMaster]; t != nil {
				t.Reissue()
			}
		}
		if remote.HasAP {
			t := p.trackers[full.Grant]
			t.Observe(remote.AP)
			if p.b.Grant() != full.Grant {
				t.LoseGrant()
			}
		}
	}
	for _, i := range p.replySlaves {
		p.replies[i].Observe(p.pendingDPValid && p.pendingDPSlave == i, full.Reply, p.pendingDPMaster)
	}
	if p.pendingDPValid {
		if p.pendingDPSlave == bus.DefaultSlaveIndex {
			if !p.ownsDefault {
				p.defErr.Observe(full.Reply)
			}
		} else if wm := p.waits[p.pendingDPSlave]; wm != nil {
			wm.Observe(full.Reply.Ready)
		}
	}

	p.lastValid = true
	p.lastFull = *full
}

// pendingDP* stash the data-phase occupancy of the cycle being
// evaluated, captured before the bus commit advances the pipeline.
type pendingDP struct {
	pendingDPValid  bool
	pendingDPSlave  int
	pendingDPMaster int
}

// StashDataPhase records the data-phase occupancy for the cycle about to
// commit; it must be called before the bus Commit whose Observe follows.
func (p *remotePredictor) StashDataPhase() {
	v, _, m, s := p.b.DataPhase()
	p.pendingDPValid = v
	p.pendingDPMaster = m
	p.pendingDPSlave = s
}

// PredictStableFor reports for how many upcoming cycles the
// predictor's Predict outcome — the predicted remote contribution and
// the confident/declined verdict alike — is guaranteed to stay
// exactly as it is now, provided only idle cycles are observed in the
// meantime. A data phase in flight or a wait state pins the horizon to
// 0 (response predictions evolve per cycle); otherwise the only
// idle-time evolution is the granted remote master's gap model and
// the SPLIT release countdowns, whose remaining spans bound the
// horizon. The engine uses this bound both to keep per-cycle
// leader-choice decisions (and their decline accounting) replicable
// across a batched stretch and to guarantee a leader's run-ahead
// predictions stay constant.
func (p *remotePredictor) PredictStableFor() int64 {
	if v, _, _, _ := p.b.DataPhase(); v {
		return 0
	}
	if p.lastValid && !p.lastFull.Reply.Ready {
		return 0
	}
	n := predict.Unbounded
	if t := p.trackers[p.b.Grant()]; t != nil {
		n = t.IdleStableFor()
	}
	for _, i := range p.replySlaves {
		n = min(n, p.replies[i].IdleStableFor())
	}
	return n
}

// SkipIdle advances the predictor across n committed idle cycles in
// one step, bit-identically to n Observe calls with the constant idle
// contribution the stretch repeats: the request/IRQ last-value
// predictors and the wait models are already at fixed points, the
// last-seen full state is unchanged, and only the granted remote
// master's burst tracker and the reply models' release countdowns
// advance. Callers must have proven the stretch (Domain.QuiescentCycles
// plus PredictStableFor or an entry-run check) before skipping.
func (p *remotePredictor) SkipIdle(n int64) {
	if t := p.trackers[p.b.Grant()]; t != nil {
		t.SkipIdle(n)
	}
	for _, i := range p.replySlaves {
		p.replies[i].SkipIdle(n)
	}
}

// Store implements rollback.Component: every component predictor and
// the predictor's own frame copy into their shadows. The tracker and
// wait-model tables are dense slices, so the walk is array indexing.
func (p *remotePredictor) Store() {
	p.req.Store()
	p.irq.Store()
	for _, t := range p.trackers {
		if t != nil {
			t.Store()
		}
	}
	for _, w := range p.waits {
		if w != nil {
			w.Store()
		}
	}
	for _, i := range p.replySlaves {
		p.replies[i].Store()
	}
	p.saved = p.predFrame
}

// Restore implements rollback.Component.
func (p *remotePredictor) Restore() {
	p.req.Restore()
	p.irq.Restore()
	for _, t := range p.trackers {
		if t != nil {
			t.Restore()
		}
	}
	for _, w := range p.waits {
		if w != nil {
			w.Restore()
		}
	}
	for _, i := range p.replySlaves {
		p.replies[i].Restore()
	}
	p.predFrame = p.saved
}
