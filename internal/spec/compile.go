package spec

import (
	"fmt"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/core"
)

// Compile translates the spec into the engine's native Design and
// Config. The returned design builds fresh, identically-parameterized
// component instances per engine (reference and split builds alike), so
// a compiled spec behaves exactly like its closure-built counterpart.
// The cycle budget travels separately as s.Run.Cycles.
func (s *Spec) Compile() (core.Design, core.Config, error) {
	n, err := s.Normalized()
	if err != nil {
		return core.Design{}, core.Config{}, err
	}

	var d core.Design
	for _, m := range n.Design.Masters {
		dom, _ := parseDomain(m.Domain)
		d.Masters = append(d.Masters, core.MasterSpec{
			Name:      m.Name,
			Domain:    core.DomainID(dom),
			NewGen:    generatorKinds[m.Generator.Kind].build(m.Generator),
			BusyEvery: m.BusyEvery,
			Vars:      m.Vars,
		})
	}
	for _, sl := range n.Design.Slaves {
		dom, _ := parseDomain(sl.Domain)
		kind := slaveKinds[sl.Kind]
		d.Slaves = append(d.Slaves, core.SlaveSpec{
			Name:         sl.Name,
			Domain:       core.DomainID(dom),
			Region:       bus.Region{Lo: amba.Addr(sl.Region.Lo), Hi: amba.Addr(sl.Region.Hi)},
			New:          kind.build(sl),
			WaitFirst:    sl.WaitFirst,
			WaitNext:     sl.WaitNext,
			IRQMask:      sl.IRQMask,
			SplitCapable: kind.splitCapable,
			Vars:         sl.Vars,
		})
	}
	ownsDefault, _ := parseDomain(n.Design.OwnsDefault)
	d.OwnsDefault = core.DomainID(ownsDefault)

	if err := d.Validate(); err != nil {
		return core.Design{}, core.Config{}, fmt.Errorf("spec: %w", err)
	}

	cfg := core.Config{
		Mode:                   core.Mode(modeNames[n.Run.Mode]),
		SimSpeed:               n.Run.SimSpeed,
		AccSpeed:               n.Run.AccSpeed,
		LOBDepth:               n.Run.LOBDepth,
		Accuracy:               n.Run.Accuracy,
		FaultSeed:              n.Run.FaultSeed,
		RollbackVars:           n.Run.RollbackVars,
		CycleBatch:             n.Run.CycleBatch,
		PredictIdle:            n.Run.PredictIdle,
		PredictBurstStarts:     n.Run.PredictBurstStarts,
		Adaptive:               n.Run.Adaptive,
		AdaptiveThreshold:      n.Run.AdaptiveThreshold,
		PaperStrictTransitions: n.Run.PaperStrict,
		KeepTrace:              n.Run.KeepTrace,
		CheckProtocol:          n.Run.CheckProtocol,
	}
	// The channel section of a spec-level fault plan rides into the
	// engine config; the service and store sections are consumed by
	// their own layers. CanonicalHash strips the whole plan, so chaos
	// runs share cache entries with plain runs.
	if fp := n.Run.FaultPlan; fp != nil && fp.Channel != nil {
		cfg.ChannelFaults = fp.Channel
		cfg.ChannelFaultSeed = fp.Seed
	}
	return d, cfg, nil
}
