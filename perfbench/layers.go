package main

import (
	"fmt"
	"time"

	"coemu"
	"coemu/internal/amba"
	"coemu/internal/core"
	"coemu/internal/spec"
	"coemu/internal/vclock"
)

// layerSpecs caps how many of a workload's distinct specs the layer
// pass covers.
const layerSpecs = 24

// Domain probe shape: transitions per domain, and leader cycles per
// transition.
const (
	probeTransitions = 64
	probeRounds      = 8
)

// probeNs is the mean host time of one call of each public Domain
// method, with the clock-read cost removed.
type probeNs struct {
	Eval, Predict, Commit, Snapshot, Restore float64
}

// clockCost is the median cost of one time.Now/time.Since pair, which
// every probed call also pays.
func clockCost() float64 {
	ds := make([]float64, 20000)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// probeDomain replays leader-style run-ahead on one domain of a fresh
// engine through the public Domain API: Snapshot, probeRounds rounds of
// EvaluateInto → PredictInto → CommitFrom against the domain's own
// prediction (zeroed, i.e. idle, when the predictor declines), and
// Rollback on alternate transitions.
func probeDomain(d core.Design, cfg core.Config, id core.DomainID, clk float64) (p probeNs, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("domain probe: %v", r)
		}
	}()
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return p, err
	}
	dom := eng.Domain(id)
	var led vclock.Ledger
	vars := dom.Vars()
	var out, pred amba.PartialState
	var eval, predict, commit, snap, restore float64
	restores := 0
	for t := 0; t < probeTransitions; t++ {
		t0 := time.Now()
		s := dom.Snapshot(&led, vars)
		snap += float64(time.Since(t0))
		for r := 0; r < probeRounds; r++ {
			t0 = time.Now()
			dom.EvaluateInto(&led, &out)
			eval += float64(time.Since(t0))
			t0 = time.Now()
			dom.PredictInto(&pred)
			predict += float64(time.Since(t0))
			t0 = time.Now()
			dom.CommitFrom(&pred)
			commit += float64(time.Since(t0))
		}
		if t%2 == 1 {
			t0 = time.Now()
			dom.Rollback(&led, vars, s)
			restore += float64(time.Since(t0))
			restores++
		}
	}
	per := func(total float64, n int) float64 {
		if v := total/float64(n) - clk; v > 0 {
			return v
		}
		return 0
	}
	calls := probeTransitions * probeRounds
	return probeNs{
		Eval: per(eval, calls), Predict: per(predict, calls), Commit: per(commit, calls),
		Snapshot: per(snap, probeTransitions), Restore: per(restore, restores),
	}, nil
}

// layerPassResult is what layerPass measured.
type layerPassResult struct {
	c   counts
	mem allocs

	// probe sums the per-call probe means over specs (probed counts
	// them); the *Ns fields attribute host time: per-call ns times the
	// calls each run made, summed over runs totalling runNs.
	probe                                          probeNs
	probed                                         int
	evalNs, predictNs, commitNs, snapNs, restoreNs float64
	runNs                                          float64
	probeErrs                                      []string
	split                                          []splitRow
}

// splitRow is one line of the attributed host-time split, printed
// beside the pprof split ROADMAP item 1 recorded.
type splitRow struct {
	Layer string
	Share float64
	Pprof string
}

// layerPass is the in-process part of a traced run: it times the spec→report path, Engine.Run allocations, the
// unsplit reference model and the domain probe over the workload's
// distinct specs, and attributes each engine run's time to the Domain
// calls it made.
func layerPass(docs [][]byte, rec *spans) (*layerPassResult, error) {
	lp := &layerPassResult{}
	clk := clockCost()
	if len(docs) > layerSpecs {
		docs = docs[:layerSpecs]
	}
	for di, doc := range docs {
		root := rec.begin("layer.op", -1)
		_, rep, _, err := specToReport(doc, rec, root, &lp.mem)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		runNs := 0.0
		for i := len(rec.list) - 1; i >= 0; i-- {
			if sp := rec.list[i]; sp.Name == "core.run" && sp.Parent == root {
				runNs = float64(sp.End - sp.Start)
				break
			}
		}
		var c counts
		c.add(rep)
		lp.c.add(rep)

		sp, err := spec.Parse(doc)
		if err != nil {
			return nil, err
		}
		d, cfg, err := sp.Compile()
		if err != nil {
			return nil, err
		}
		s := rec.begin("bus.reference", -1)
		_, err = coemu.RunReference(d, sp.Run.Cycles)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		rec.setCycles(s, sp.Run.Cycles)

		var per probeNs
		ok := 0
		for _, id := range []core.DomainID{core.SimDomain, core.AccDomain} {
			p, err := probeDomain(d, cfg, id, clk)
			if err != nil {
				lp.probeErrs = append(lp.probeErrs, fmt.Sprintf("layer pass spec %d, domain %v: %v", di, id, err))
				continue
			}
			per.Eval += p.Eval
			per.Predict += p.Predict
			per.Commit += p.Commit
			per.Snapshot += p.Snapshot
			per.Restore += p.Restore
			ok++
		}
		if ok == 0 {
			continue
		}
		k := float64(ok)
		eval, predict, snaps, restores := c.calls()
		lp.evalNs += per.Eval / k * eval
		lp.commitNs += per.Commit / k * eval
		lp.predictNs += per.Predict / k * predict
		lp.snapNs += per.Snapshot / k * snaps
		lp.restoreNs += per.Restore / k * restores
		lp.probe.Eval += per.Eval / k
		lp.probe.Predict += per.Predict / k
		lp.probe.Commit += per.Commit / k
		lp.probe.Snapshot += per.Snapshot / k
		lp.probe.Restore += per.Restore / k
		lp.probed++
		lp.runNs += runNs
	}
	attributed := lp.evalNs + lp.commitNs + lp.predictNs + lp.snapNs + lp.restoreNs
	lp.split = []splitRow{
		{"bus evaluate (EvaluateInto)", ratio(lp.evalNs, lp.runNs), "31% cum"},
		{"bus commit (CommitFrom)", ratio(lp.commitNs, lp.runNs), "23% cum"},
		{"snapshot save+restore", ratio(lp.snapNs+lp.restoreNs, lp.runNs), "~9%"},
		{"predictor (PredictInto)", ratio(lp.predictNs, lp.runNs), "~7%"},
		{"unattributed (LOB, channel, loop)", 1 - ratio(attributed, lp.runNs), "rest"},
	}
	return lp, nil
}

// metrics derives the engine-side per-layer metrics from the recorded
// spans and the layer pass.
func (lp *layerPassResult) metrics(all []span) map[string]float64 {
	d := durations(all)
	us := func(name string) float64 { return median(d[name]) * 1e6 }
	m := lp.c.layerRatios()
	m["spec.parse_us"] = us("spec.parse")
	m["spec.hash_us"] = us("spec.hash")
	m["spec.compile_us"] = us("spec.compile")
	m["core.new_engine_us"] = us("core.new_engine")
	m["core.run_ns_per_cyc"] = nsPerCycle(all, "core.run")
	m["core.allocs_per_kcyc"] = ratio(1000*float64(lp.mem.mallocs), float64(lp.mem.cycles))
	m["core.alloc_bytes_per_kcyc"] = ratio(1000*float64(lp.mem.bytes), float64(lp.mem.cycles))
	attributed := lp.evalNs + lp.commitNs + lp.predictNs + lp.snapNs + lp.restoreNs
	m["core.unattributed_share"] = 1 - ratio(attributed, lp.runNs)
	m["bus.ref_ns_per_cyc"] = nsPerCycle(all, "bus.reference")
	n := float64(lp.probed)
	m["bus.evaluate_ns"] = ratio(lp.probe.Eval, n)
	m["bus.commit_ns"] = ratio(lp.probe.Commit, n)
	m["predict.predict_ns"] = ratio(lp.probe.Predict, n)
	m["rollback.snapshot_ns"] = ratio(lp.probe.Snapshot, n)
	m["rollback.restore_ns"] = ratio(lp.probe.Restore, n)
	m["probe.evaluate_share"] = ratio(lp.evalNs, lp.runNs)
	m["probe.commit_share"] = ratio(lp.commitNs, lp.runNs)
	m["probe.snapshot_share"] = ratio(lp.snapNs+lp.restoreNs, lp.runNs)
	m["probe.predict_share"] = ratio(lp.predictNs, lp.runNs)
	return m
}
