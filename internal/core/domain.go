package core

import (
	"fmt"
	"math"
	"time"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/rollback"
	"coemu/internal/sim"
	"coemu/internal/vclock"
)

// Domain is one verification domain: a half-bus model (the paper's HBMS
// or HBMA) populated with the components local to the domain, the
// channel-wrapper bookkeeping (predictor, snapshot registry), and the
// domain's cost parameters (per-cycle evaluation time, store/restore
// cost model).
type Domain struct {
	id   DomainID
	bus  *bus.Bus
	pred *remotePredictor
	reg  rollback.Registry

	masters []*ip.TrafficMaster // local masters (for stats)
	tickers []sim.Clocked
	clock   sim.Clock

	cycleCost time.Duration
	timeCat   vclock.Category
	costModel rollback.CostModel

	evaluated bool
}

// buildDomain constructs one half of the split system.
func buildDomain(d Design, id DomainID, cycleCost time.Duration, costModel rollback.CostModel, opts predictorOptions) *Domain {
	dom := &Domain{
		id:        id,
		bus:       bus.New(id.String()),
		cycleCost: cycleCost,
		costModel: costModel,
	}
	if id == SimDomain {
		dom.timeCat = vclock.Sim
	} else {
		dom.timeCat = vclock.Acc
	}
	dom.bus.SetOwnsDefault(d.OwnsDefault == id)

	for _, ms := range d.Masters {
		if ms.Domain == id {
			gen := ms.NewGen()
			m := ip.NewTrafficMaster(ms.Name, gen, ms.BusyEvery)
			dom.masters = append(dom.masters, m)
			dom.bus.AddMaster(m)
			vars := ms.Vars
			if vars == 0 {
				vars = defaultVars
			}
			dom.reg.Register(ms.Name, m, vars)
			if g, ok := gen.(rollback.Component); ok {
				dom.reg.Register(ms.Name+".gen", g, 1)
			}
		} else {
			dom.bus.AddExternalMaster(ms.Name)
		}
	}

	var remoteIRQ uint32
	remoteSplit := false
	for _, ss := range d.Slaves {
		if ss.Domain == id {
			s := ss.New()
			if _, isSplit := s.(bus.SplitSource); isSplit != ss.SplitCapable {
				panic(fmt.Sprintf("core: slave %q: SplitCapable=%v but implementation says %v",
					ss.Name, ss.SplitCapable, isSplit))
			}
			dom.bus.MapSlave(s, ss.Region, ss.IRQMask)
			if snap, ok := s.(rollback.Component); ok {
				vars := ss.Vars
				if vars == 0 {
					vars = defaultVars
				}
				dom.reg.Register(ss.Name, snap, vars)
			}
			if c, ok := s.(sim.Clocked); ok {
				dom.tickers = append(dom.tickers, c)
			}
		} else {
			dom.bus.MapExternalSlave(ss.Name, ss.Region)
			remoteIRQ |= ss.IRQMask
			if ss.SplitCapable {
				remoteSplit = true
			}
		}
	}

	dom.pred = newRemotePredictor(dom.bus, d.OwnsDefault == id, d.Slaves, opts)
	dom.pred.setRemoteIRQMask(remoteIRQ)
	if remoteSplit {
		dom.pred.setRemoteSplitMask((1 << uint(dom.bus.Masters())) - 1)
	}
	dom.reg.Register("bus", dom.bus, 5)
	dom.reg.Register("predictor", dom.pred, 5)
	dom.reg.Register("clock", &dom.clock, 1)
	return dom
}

// ID returns the domain identity.
func (d *Domain) ID() DomainID { return d.id }

// Bus returns the half-bus model.
func (d *Domain) Bus() *bus.Bus { return d.bus }

// Vars returns the domain's rollback-variable count.
func (d *Domain) Vars() int { return d.reg.Vars() }

// Now returns the number of committed target cycles in this domain.
func (d *Domain) Now() int64 { return d.clock.Now() }

// Masters returns the domain's local masters.
func (d *Domain) Masters() []*ip.TrafficMaster { return d.masters }

// EvaluateInto computes the domain's contribution for the upcoming
// cycle, writes it through dst — the engine deposits it straight into a
// LOB entry — and charges one cycle of domain time to the ledger.
func (d *Domain) EvaluateInto(ledger *vclock.Ledger, dst *amba.PartialState) {
	if d.evaluated {
		panic(fmt.Sprintf("core: domain %s: Evaluate without Commit", d.id))
	}
	ledger.Charge(d.timeCat, d.cycleCost)
	d.evaluated = true
	d.bus.EvaluateInto(dst)
}

// CommitFrom completes the cycle with the given remote contribution
// (real or predicted, read in place), ticks the domain's clocked
// components, advances the predictor's observation stream, and returns
// the full merged MSABS record. The record points into the bus-owned
// result, valid until the next CommitFrom.
func (d *Domain) CommitFrom(remote *amba.PartialState) *amba.CycleState {
	if !d.evaluated {
		panic(fmt.Sprintf("core: domain %s: Commit without Evaluate", d.id))
	}
	d.evaluated = false
	d.pred.StashDataPhase()
	res := d.bus.CommitFrom(remote)
	cycle := d.clock.Advance()
	for _, t := range d.tickers {
		t.Tick(cycle)
	}
	d.pred.Observe(&res.State, remote)
	return &res.State
}

// PredictInto writes the predicted remote contribution for the
// upcoming cycle through dst, or zeroes it and returns the reason no
// prediction is possible. It is legal both before and after
// EvaluateInto: it touches only registered bus state.
func (d *Domain) PredictInto(dst *amba.PartialState) DeclineReason {
	return d.pred.PredictInto(dst)
}

// Snapshot stores the whole domain (components, generators, bus,
// predictor, clock) into its shadow state and charges the store cost.
// Every component keeps one shadow, so only the most recent snapshot
// may be restored — exactly the leader's rollback discipline.
func (d *Domain) Snapshot(ledger *vclock.Ledger, vars int) rollback.Snapshot {
	if d.evaluated {
		panic(fmt.Sprintf("core: domain %s: snapshot mid-cycle", d.id))
	}
	ledger.Charge(vclock.Store, d.costModel.StoreCost(vars))
	return d.reg.Store()
}

// Rollback restores a snapshot and charges the restore cost.
func (d *Domain) Rollback(ledger *vclock.Ledger, vars int, s rollback.Snapshot) {
	if d.evaluated {
		// A leader waiting in Get-response has an outstanding Evaluate
		// for the final cycle; rolling back cancels it.
		d.evaluated = false
	}
	ledger.Charge(vclock.Restore, d.costModel.RestoreCost(vars))
	d.reg.Restore(s)
}

// Static returns the request and interrupt lines this domain owns: the
// static configuration a receiver decodes the domain's packets with.
func (d *Domain) Static() amba.Static {
	return amba.Static{ReqMask: d.bus.LocalReqMask(), IRQMask: d.bus.LocalIRQMask()}
}

// QuiescentCycles reports for how many upcoming cycles the domain is
// guaranteed, from ground truth, to evaluate an inactive contribution
// and evolve by pure counter advances only: the half-bus is at an idle
// fixed point, every local master is provably idle (gap countdown or
// exhausted generator), and every clocked component can prove its own
// inactivity through sim.Quiescible. Components that cannot prove it
// (a Clocked slave without Quiescible) pin the bound to 0, so the
// engine single-steps rather than guesses. Slaves that act only when
// addressed (memories, jitter/retry/error models) need no say: with no
// data phase in flight the bus never calls them.
//
// The bound is what the predicted-quiescence fast path trades on: for
// n <= QuiescentCycles cycles with an inactive remote contribution,
// Evaluate/Commit rounds are exact repetitions and AdvanceQuiescent(n)
// commits them in one step.
func (d *Domain) QuiescentCycles() int64 {
	if d.evaluated || !d.bus.Quiescent() {
		return 0
	}
	n := int64(math.MaxInt64)
	for _, m := range d.masters {
		if q := m.QuiescentCycles(); q < n {
			n = q
			if n == 0 {
				return 0
			}
		}
	}
	for _, t := range d.tickers {
		qt, ok := t.(sim.Quiescible)
		if !ok {
			return 0
		}
		if q := qt.QuiescentFor(); q < n {
			n = q
			if n == 0 {
				return 0
			}
		}
	}
	return n
}

// PredictionStableCycles reports for how many upcoming cycles the
// domain's remote predictor keeps its current Predict outcome, given
// only idle observations (see remotePredictor.PredictStableFor).
func (d *Domain) PredictionStableCycles() int64 {
	return d.pred.PredictStableFor()
}

// AdvanceQuiescent commits n quiescent cycles in one step: n cycles of
// domain time charged to the ledger, the clock, every master's gap
// countdown, every clocked component and the predictor's idle
// bookkeeping advanced by n — bit-identical to n Evaluate/Commit
// rounds against the inactive remote contribution the caller proved.
// Callers must keep n within QuiescentCycles() (and, when the domain's
// own predictions are being consumed, PredictionStableCycles()).
func (d *Domain) AdvanceQuiescent(ledger *vclock.Ledger, n int64) {
	ledger.ChargeN(d.timeCat, d.cycleCost, n)
	for _, m := range d.masters {
		m.SkipIdle(n)
	}
	for _, t := range d.tickers {
		t.(sim.Quiescible).SkipQuiescent(n)
	}
	d.clock.AdvanceN(n)
	d.bus.SkipQuiescent(n)
	d.pred.SkipIdle(n)
}
