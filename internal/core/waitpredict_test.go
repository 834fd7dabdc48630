package core

import (
	"fmt"
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/trace"
	"coemu/internal/workload"
)

// waitStreamDesign is the canonical ALS stream (accelerator-side write
// master, simulator-side memory) with a (first, next) wait profile.
func waitStreamDesign(first, next int) Design {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewMemory("mem", first, next) }
	d.Slaves[0].WaitFirst, d.Slaves[0].WaitNext = first, next
	return d
}

// TestWaitedMemoryStreamPredictsExactly pins the §3 wait model's
// accuracy end to end: against a deterministic wait-state memory every
// HREADY prediction the leader makes must hold, whatever the profile,
// however often the engine probes the predictor per cycle.
func TestWaitedMemoryStreamPredictsExactly(t *testing.T) {
	for _, mode := range []Mode{ALS, Auto} {
		for first := 0; first <= 3; first++ {
			for next := 0; next <= 3; next++ {
				t.Run(fmt.Sprintf("%v/first=%d/next=%d", mode, first, next), func(t *testing.T) {
					rep := runBoth(t, waitStreamDesign(first, next), Config{Mode: mode}, 2000)
					if rep.Stats.ChecksTotal == 0 {
						t.Fatal("no prediction was checked; the test would prove nothing")
					}
					if rep.Stats.Mispredicts != 0 {
						t.Fatalf("%d of %d checks mispredicted (%d rollbacks)",
							rep.Stats.Mispredicts, rep.Stats.ChecksTotal, rep.Stats.Rollbacks)
					}
				})
			}
		}
	}
}

// TestPredictLeavesPredictorClean checks that predicting leaves the
// predictor untouched: before every step of a waited-memory stream and
// of a RETRY/SPLIT stream with a competing master, each domain's
// predictor state (shadows included) must be identical before and
// after a PredictInto.
func TestPredictLeavesPredictorClean(t *testing.T) {
	const cycles = 2000
	designs := map[string]Design{
		"waited":      waitStreamDesign(2, 1),
		"split-retry": replyStreamDesign(replyParamSets[0]),
	}
	for name, design := range designs {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(design, Config{Mode: ALS})
			if err != nil {
				t.Fatal(err)
			}
			replies := 0
			for e.stats.Committed < cycles {
				for _, d := range e.domains {
					before := d.pred.capture()
					var ps amba.PartialState
					if d.pred.PredictInto(&ps) == DeclineNone && ps.HasReply {
						replies++
					}
					if !reflect.DeepEqual(before, d.pred.capture()) {
						t.Fatalf("cycle %d: domain %v predictor moved by PredictInto", e.stats.Committed, d.ID())
					}
				}
				if err := e.step(cycles); err != nil {
					t.Fatal(err)
				}
			}
			if replies == 0 {
				t.Fatal("no slave reply was ever predicted; the test would prove nothing")
			}
		})
	}
}

// replyParams configures replyStreamDesign's remote RETRY and SPLIT
// memories.
type replyParams struct {
	waits, splitEvery, releaseAfter, retryEvery int
	read                                        bool
}

// replyStreamDesign is an accelerator-side INCR8 stream (writes, or
// reads with p.read) over two simulator-side memories, one SPLITting
// and one RETRYing, competing with a higher-priority simulator-side
// master whose INCR4 bursts into an accelerator-side SRAM take the
// grant from the stream mid-burst. The predictor builds both memories'
// reply models from the instances New returns.
func replyStreamDesign(p replyParams) Design {
	return Design{
		Masters: []MasterSpec{
			{
				Name: "cpu", Domain: SimDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0x20000, Hi: 0x21000}, true,
						amba.BurstIncr4, amba.Size32, 0, 9, 0)
				},
			},
			{
				Name: "dma", Domain: AccDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0, Hi: 0x2000}, !p.read,
						amba.BurstIncr8, amba.Size32, 0, 0, 0)
				},
			},
		},
		Slaves: []SlaveSpec{
			{
				Name: "split", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x1000},
				New: func() bus.Slave {
					return ip.NewSplitMemory("split", p.waits, p.splitEvery, p.releaseAfter)
				},
				SplitCapable: true,
			},
			{
				Name: "retry", Domain: SimDomain, Region: bus.Region{Lo: 0x1000, Hi: 0x2000},
				New: func() bus.Slave { return ip.NewRetryMemory("retry", p.waits, p.retryEvery) },
			},
			{
				Name: "sram", Domain: AccDomain, Region: bus.Region{Lo: 0x20000, Hi: 0x30000},
				New: func() bus.Slave { return ip.NewSRAM("sram") },
			},
		},
	}
}

var replyParamSets = []replyParams{
	{waits: 0, splitEvery: 4, releaseAfter: 12, retryEvery: 3},
	{waits: 1, splitEvery: 2, releaseAfter: 1, retryEvery: 2},
	{waits: 2, splitEvery: 3, releaseAfter: 5, retryEvery: 5},
	{waits: 1, splitEvery: 5, releaseAfter: 30, retryEvery: 1},
	{waits: 0, splitEvery: 3, releaseAfter: 6, retryEvery: 4, read: true},
	{waits: 2, splitEvery: 2, releaseAfter: 2, retryEvery: 3, read: true},
}

// TestSplitRetryStreamPredictsExactly pins the reply models and the
// burst-rebuild rule end to end: against deterministic RETRY and SPLIT
// memories no HREADY, HRESP or HSPLITx prediction may miss, and no
// address phase that rebuilds a burst (NONSEQ INCR after a lost grant,
// RETRY or SPLIT: the stream issues only INCR8 bursts of its own) or
// cancels one (IDLE after a first RETRY/SPLIT cycle) may be
// mispredicted. The idle-prediction extension lets the accelerator
// run ahead while the stream is split-masked, so the HSPLITx releases
// are predicted too.
func TestSplitRetryStreamPredictsExactly(t *testing.T) {
	const cycles = 6000
	for _, cfg := range []Config{{Mode: ALS}, {Mode: Auto}, {Mode: ALS, PredictIdle: true}, {Mode: Auto, PredictIdle: true}} {
		for _, p := range replyParamSets {
			t.Run(fmt.Sprintf("%v/idle=%v/%+v", cfg.Mode, cfg.PredictIdle, p), func(t *testing.T) {
				rec := trace.NewRecorder(1 << 16)
				cfg.Tracer = rec
				rep := runBoth(t, replyStreamDesign(p), cfg, cycles)
				if rec.Dropped() != 0 {
					t.Fatal("trace ring overflowed; raise its size")
				}
				var rebuilds, failed int
				for _, cs := range rep.Trace {
					if cs.AP.Trans == amba.TransNonSeq && cs.AP.Burst == amba.BurstIncr {
						rebuilds++
					}
					if cs.Reply.Ready && (cs.Reply.Resp == amba.RespSplit || cs.Reply.Resp == amba.RespRetry) {
						failed++
					}
				}
				if rebuilds == 0 || failed == 0 || rep.Stats.ChecksTotal == 0 {
					t.Fatalf("%d rebuilds, %d RETRY/SPLIT replies, %d checks: the design proves nothing",
						rebuilds, failed, rep.Stats.ChecksTotal)
				}
				by := rep.Stats.MispredictsBySignal
				if n := by[amba.SigReady] + by[amba.SigResp] + by[amba.SigSplit]; n != 0 {
					t.Fatalf("%d reply misses (by signal %v)", n, by)
				}
				for _, ev := range rec.Events() {
					if ev.Kind != trace.EvMispredict {
						continue
					}
					sig, _ := trace.MispredictInfo(ev.Arg)
					ap := rep.Trace[ev.Cycle].AP
					if sig != amba.SigTrans && sig != amba.SigAddr {
						continue
					}
					if ap.Trans == amba.TransNonSeq && ap.Burst == amba.BurstIncr {
						t.Fatalf("cycle %d: burst rebuild %v mispredicted (%v)", ev.Cycle, ap, sig)
					}
					if prev := rep.Trace[ev.Cycle-1].Reply; !prev.Ready && prev.Resp != amba.RespOkay {
						t.Fatalf("cycle %d: IDLE cancelling a beat after %v mispredicted as %v (%v)", ev.Cycle, prev, ap, sig)
					}
				}
			})
		}
	}
}

// TestSoloSplitReadStreamPredictsExactly covers the split-masked
// master: alone on the bus, a master parked by SPLIT stays granted and
// must be predicted IDLE until its release, then re-issuing its beat.
// Reading, it makes the simulator (the data source) lead and predict
// its address phase; every prediction must hold except the last-value
// request line, which drops between bursts. The burst-start extension
// derives the request from the predicted address phase, except for a
// parked or cancelled master, whose IDLE says nothing about its
// request: there it must miss no more often than last-value does.
func TestSoloSplitReadStreamPredictsExactly(t *testing.T) {
	const cycles = 4000
	for _, mode := range []Mode{SLA, Auto} {
		for _, p := range replyParamSets {
			p.read = true
			t.Run(fmt.Sprintf("%v/%+v", mode, p), func(t *testing.T) {
				d := replyStreamDesign(p)
				d.Masters = d.Masters[1:]
				var parkedMisses [2]int
				for i, starts := range []bool{false, true} {
					rec := trace.NewRecorder(1 << 16)
					rep := runBoth(t, d, Config{Mode: mode, PredictBurstStarts: starts, Tracer: rec}, cycles)
					if rep.Stats.ChecksTotal == 0 {
						t.Fatal("no prediction was checked; the test would prove nothing")
					}
					by := rep.Stats.MispredictsBySignal
					if n := rep.Stats.Mispredicts - by[amba.SigRequest]; n != 0 {
						t.Fatalf("starts=%v: %d of %d checks mispredicted beyond the request line (by signal %v)",
							starts, n, rep.Stats.ChecksTotal, by)
					}
					parkedMisses[i] = parkedRequestMisses(rep.Trace, rec.Events())
				}
				if parkedMisses[1] > parkedMisses[0] {
					t.Fatalf("request of a parked or cancelled master mispredicted %d times with burst starts, %d without",
						parkedMisses[1], parkedMisses[0])
				}
			})
		}
	}
}

// parkedRequestMisses counts the request-line misses among events at
// cycles where the master is parked — from the cycle after a ready
// SPLIT until its HSPLITx line rises — or cancelled, the cycle after
// the first cycle of a two-cycle reply.
func parkedRequestMisses(tr []amba.CycleState, events []trace.Event) int {
	parked := make([]bool, len(tr))
	for c := 1; c < len(tr); c++ {
		prev := tr[c-1].Reply
		parked[c] = tr[c].Split == 0 && (parked[c-1] || prev.Ready && prev.Resp == amba.RespSplit)
	}
	n := 0
	for _, ev := range events {
		sig, injected := trace.MispredictInfo(ev.Arg)
		if ev.Kind != trace.EvMispredict || injected || sig != amba.SigRequest || ev.Cycle == 0 {
			continue
		}
		prev := tr[ev.Cycle-1].Reply
		if parked[ev.Cycle] || !prev.Ready && prev.Resp != amba.RespOkay {
			n++
		}
	}
	return n
}
