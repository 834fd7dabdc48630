package core

import (
	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/predict"
)

// remotePredictor composes the paper's §3 predictors into a single
// predictor of the other domain's per-cycle contribution:
//
//   - bus requests and interrupt lines: last-value,
//   - address/control of a remotely-granted master: burst continuation
//     (one tracker per remote master),
//   - responses of a remote active slave: producer-consumer wait model
//     (one per remote slave, configured with its nominal profile),
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
	ownsDefault     bool
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
	waits    []*predict.WaitModel    // per remote slave

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
// b. waitProfiles maps global slave indexes of *remote* slaves to their
// nominal (first, next) wait profile.
func newRemotePredictor(b *bus.Bus, ownsDefault bool, waitProfiles map[int][2]int, opts predictorOptions) *remotePredictor {
	p := &remotePredictor{
		b:             b,
		remoteReqMask: ^b.LocalReqMask() & ((1 << uint(b.Masters())) - 1),
		ownsDefault:   ownsDefault,
		trackers:      make([]*predict.BurstTracker, b.Masters()),
		waits:         make([]*predict.WaitModel, b.Slaves()),
	}
	p.coupleReq = opts.Starts
	for i := 0; i < b.Masters(); i++ {
		if !b.MasterLocal(i) {
			p.trackers[i] = &predict.BurstTracker{PredictIdle: opts.Idle, PredictStarts: opts.Starts}
		}
	}
	for idx, prof := range waitProfiles {
		p.waits[idx] = predict.NewWaitModel(prof[0], prof[1])
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
		ReqMask: p.remoteReqMask,
		Req:     p.req.Predict() & p.remoteReqMask,
		IRQMask: p.remoteIRQMask,
		IRQ:     p.irq.Predict() & p.remoteIRQMask,
		// HSPLITx lines are pulses; last-value prediction of a raised
		// line would hold it high forever, so predict all-low
		// (Split 0) and absorb one rollback per remote split release.
		SplitMask: p.remoteSplitMask,
	}

	grant := p.b.Grant()
	if !p.b.MasterLocal(grant) {
		out.HasAP = true
		if p.lastValid && !p.lastFull.Reply.Ready {
			// Wait state: the remote master holds its address phase.
			out.AP = p.lastFull.AP
		} else {
			ap, ok := p.trackers[grant].Predict()
			if !ok {
				*out = amba.PartialState{}
				return DeclineBurstStart
			}
			out.AP = ap
		}
		if p.coupleReq {
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
			wm := p.waits[dpSlave]
			if wm == nil {
				*out = amba.PartialState{}
				return DeclineNoModel
			}
			out.HasReply = true
			out.Reply = amba.SlaveReply{Ready: wm.Predict(), Resp: amba.RespOkay}
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

	// Address-phase progression carries information only on ready
	// cycles; during wait states the value is held.
	if remote.HasAP && full.Reply.Ready {
		p.trackers[full.Grant].Observe(remote.AP)
	}

	// The bus has already committed, so its DataPhase() now describes
	// the NEXT cycle. The reply just observed belongs to the cycle that
	// ended; use the data phase stashed before the commit.
	if p.pendingDPValid {
		if p.pendingDPSlave == bus.DefaultSlaveIndex {
			if !p.ownsDefault {
				p.defErr.Observe(full.Reply)
			}
		} else if !p.b.SlaveLocal(p.pendingDPSlave) {
			if wm := p.waits[p.pendingDPSlave]; wm != nil {
				wm.Observe(full.Reply.Ready)
			}
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
// idle-time evolution is the granted remote master's gap model, whose
// remaining span bounds the horizon. The engine uses this bound both
// to keep per-cycle leader-choice decisions (and their decline
// accounting) replicable across a batched stretch and to guarantee a
// leader's run-ahead predictions stay constant.
func (p *remotePredictor) PredictStableFor() int64 {
	if v, _, _, _ := p.b.DataPhase(); v {
		return 0
	}
	if p.lastValid && !p.lastFull.Reply.Ready {
		return 0
	}
	if t := p.trackers[p.b.Grant()]; t != nil {
		return t.IdleStableFor()
	}
	return predict.Unbounded
}

// SkipIdle advances the predictor across n committed idle cycles in
// one step, bit-identically to n Observe calls with the constant idle
// contribution the stretch repeats: the request/IRQ last-value
// predictors and the wait models are already at fixed points, the
// last-seen full state is unchanged, and only the granted remote
// master's burst tracker accumulates idle time. Callers must have
// proven the stretch (Domain.QuiescentCycles plus PredictStableFor or
// an entry-run check) before skipping.
func (p *remotePredictor) SkipIdle(n int64) {
	if t := p.trackers[p.b.Grant()]; t != nil {
		t.SkipIdle(n)
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
	p.predFrame = p.saved
}
