package core

import (
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/perfmodel"
	"coemu/internal/workload"
)

// --- design fixtures -------------------------------------------------

// streamDesign: one write-streaming master, one deterministic memory,
// placed in the given domains. With masterDom==AccDomain and
// slaveDom==SimDomain this is the canonical ALS configuration: data
// flows acc→sim, the accelerator leads.
func streamDesign(masterDom, slaveDom DomainID, waits int, maxXfers int64) Design {
	return Design{
		Masters: []MasterSpec{{
			Name:   "dma",
			Domain: masterDom,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0x0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 0, maxXfers)
			},
		}},
		Slaves: []SlaveSpec{{
			Name:      "mem",
			Domain:    slaveDom,
			Region:    bus.Region{Lo: 0x0, Hi: 0x8000},
			New:       func() bus.Slave { return ip.NewMemory("mem", waits, waits) },
			WaitFirst: waits, WaitNext: waits,
		}},
	}
}

// duplexDesign mixes directions and domains: a DMA copying between a
// sim-side and an acc-side memory, plus a CPU-like master, plus an IRQ
// peripheral. Exercises leader flips, read barriers and interrupts.
func duplexDesign(seed uint64) Design {
	return Design{
		Masters: []MasterSpec{
			{
				Name:   "dma",
				Domain: AccDomain,
				NewGen: func() ip.Generator {
					return workload.NewDMACopy(
						workload.Window{Lo: 0x0000, Hi: 0x0800},
						workload.Window{Lo: 0x8000, Hi: 0x8800},
						amba.BurstIncr8, 2, 40)
				},
			},
			{
				Name:   "cpu",
				Domain: SimDomain,
				NewGen: func() ip.Generator {
					return workload.NewCPU([]workload.Window{
						{Lo: 0x0000, Hi: 0x0800},
						{Lo: 0x8000, Hi: 0x8800},
					}, 0.5, 6, 60, seed)
				},
			},
		},
		Slaves: []SlaveSpec{
			{
				Name:   "sram",
				Domain: SimDomain,
				Region: bus.Region{Lo: 0x0000, Hi: 0x4000},
				New:    func() bus.Slave { return ip.NewSRAM("sram") },
			},
			{
				Name:      "ddr",
				Domain:    AccDomain,
				Region:    bus.Region{Lo: 0x8000, Hi: 0xC000},
				New:       func() bus.Slave { return ip.NewMemory("ddr", 2, 1) },
				WaitFirst: 2, WaitNext: 1,
			},
			{
				Name:      "irqc",
				Domain:    AccDomain,
				Region:    bus.Region{Lo: 0xF000, Hi: 0xF100},
				New:       func() bus.Slave { return ip.NewIRQPeriph("irqc", 0x1) },
				IRQMask:   0x1,
				WaitFirst: 1, WaitNext: 1,
			},
		},
	}
}

// runBoth executes the reference and the co-emulated system and fails
// the test on any trace divergence.
func runBoth(t *testing.T, d Design, cfg Config, cycles int64) *Report {
	t.Helper()
	cfg.KeepTrace = true
	cfg.CheckProtocol = true
	want, err := RunReference(d, cycles)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rep, err := e.Run(cycles)
	if err != nil {
		t.Fatalf("run (%v): %v", cfg.Mode, err)
	}
	if rep.Cycles != cycles {
		t.Fatalf("committed %d cycles, want %d", rep.Cycles, cycles)
	}
	if int64(len(rep.Trace)) != cycles {
		t.Fatalf("trace has %d cycles, want %d", len(rep.Trace), cycles)
	}
	for i := range want {
		if !rep.Trace[i].Equal(want[i]) {
			t.Fatalf("mode %v: trace diverged at cycle %d:\nref:   %s\nsplit: %s",
				cfg.Mode, i, want[i], rep.Trace[i])
		}
	}
	return rep
}

// --- LOB -------------------------------------------------------------

func TestLOBPushFlushAccounting(t *testing.T) {
	l := NewLOB(32)
	e := Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true}
	l.Push(&e, l.EntryWords(&e))
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
	wantWords := 1 + 2 // framing, then a header each for out and pred
	if l.Words() != wantWords {
		t.Fatalf("words = %d, want %d", l.Words(), wantWords)
	}
	l.Reset()
	if l.Len() != 0 || l.Flushes() != 1 {
		t.Fatal("reset bookkeeping wrong")
	}
	if l.PeakWords() != wantWords {
		t.Fatalf("peak = %d", l.PeakWords())
	}
}

// TestLOBMaxCycles fills buffers with the cheapest entries there are
// (an idle hold, one header word per record) under the run-ahead's stop
// rule and checks that MaxCycles is exactly the cycles they carry.
func TestLOBMaxCycles(t *testing.T) {
	idle := Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true}
	for _, depth := range []int{minLOBDepth, 8, 9, 64, 1024} {
		l := NewLOB(depth)
		for {
			w := l.EntryWords(&idle)
			if l.Words()+w+maxPartialWords > l.Depth() {
				final := Entry{Out: idle.Out}
				l.Push(&final, l.EntryWords(&final))
				break
			}
			l.Push(&idle, w)
		}
		if got := int64(l.Len()); got != l.MaxCycles() {
			t.Errorf("depth %d: %d idle cycles fit, MaxCycles says %d", depth, got, l.MaxCycles())
		}
	}
}

// TestLOBChargesAfterLastEntry checks that the buffer charges an entry
// relative to the one before it, as the flush packs it: a SEQ write
// beat after its predecessor costs header plus HWDATA, its predicted
// OKAY reply the header alone, and the flush packet is exactly as long
// as the buffer says.
func TestLOBChargesAfterLastEntry(t *testing.T) {
	ap := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8}
	l := NewLOB(64)
	var sizes []int
	for beat := 0; beat < 4; beat++ {
		e := Entry{
			Out:     amba.PartialState{ReqMask: 1, Req: 1, HasAP: true, AP: ap, HasWData: beat > 0, WData: amba.Word(beat)},
			Pred:    amba.PartialState{ReqMask: 2, HasReply: beat > 0, Reply: amba.OkayReady()},
			HasPred: true,
		}
		sizes = append(sizes, l.EntryWords(&e))
		l.Push(&e, l.EntryWords(&e))
		ap = amba.SeqSuccessor(ap)
	}
	final := Entry{Out: amba.PartialState{ReqMask: 1, HasAP: true, AP: ap, HasWData: true, WData: 9}}
	sizes = append(sizes, l.EntryWords(&final))
	l.Push(&final, l.EntryWords(&final))
	if want := []int{4, 3, 3, 3, 2}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("entry sizes %v, want %v", sizes, want)
	}
	if pkt := packFlush(nil, l.Entries()); len(pkt) != l.Words() {
		t.Fatalf("flush packs %d words, LOB charges %d", len(pkt), l.Words())
	}
}

func TestLOBOverflowPanics(t *testing.T) {
	l := NewLOB(4)
	final := Entry{}
	l.Push(&final, l.EntryWords(&final))
	defer func() {
		if recover() == nil {
			t.Fatal("push after final entry must panic")
		}
	}()
	l.Push(&final, l.EntryWords(&final))
}

func TestLOBDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero depth must panic")
		}
	}()
	NewLOB(0)
}

// --- packets ----------------------------------------------------------

func TestFlushPacketRoundTrip(t *testing.T) {
	entries := []Entry{
		{Out: amba.PartialState{ReqMask: 1, Req: 1, HasWData: true, WData: 7}, Pred: amba.PartialState{ReqMask: 2, HasReply: true, Reply: amba.OkayReady()}, HasPred: true},
		{Out: amba.PartialState{ReqMask: 1, HasAP: true, AP: amba.AddrPhase{Addr: 8, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr8}}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true},
		{Out: amba.PartialState{ReqMask: 1, HasAP: true, AP: amba.AddrPhase{Addr: 12, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr8}}, Pred: amba.PartialState{ReqMask: 2, HasReply: true, Reply: amba.SlaveReply{RData: 3}}, HasPred: true},
		{Out: amba.PartialState{ReqMask: 1, HasAP: true, AP: amba.AddrPhase{Addr: 12, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr8}}},
	}
	pkt := packFlush(nil, entries)
	got, err := unpackFlush(nil, pkt, amba.Static{ReqMask: 1}, amba.Static{ReqMask: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries", len(got))
	}
	for i := range entries {
		if !got[i].Out.Equal(entries[i].Out) || got[i].HasPred != entries[i].HasPred {
			t.Fatalf("entry %d mismatch", i)
		}
		if entries[i].HasPred && !got[i].Pred.Equal(entries[i].Pred) {
			t.Fatalf("entry %d pred mismatch", i)
		}
	}
}

func TestReportPacketRoundTrip(t *testing.T) {
	actual := amba.PartialState{ReqMask: 3, Req: 1, HasReply: true, Reply: amba.SlaveReply{Ready: true, RData: 0xBEEF}}
	st := amba.Static{ReqMask: 3}
	ok, _, got, err := unpackReport(packReport(nil, true, 0, actual), st)
	if err != nil || !ok || !got.Equal(actual) {
		t.Fatalf("success report: ok=%v err=%v", ok, err)
	}
	ok, idx, got, err := unpackReport(packReport(nil, false, 17, actual), st)
	if err != nil || ok || idx != 17 || !got.Equal(actual) {
		t.Fatalf("failure report: ok=%v idx=%d err=%v", ok, idx, err)
	}
}

func TestPacketErrors(t *testing.T) {
	var st amba.Static
	if _, err := unpackFlush(nil, nil, st, st); err == nil {
		t.Error("empty flush must fail")
	}
	if _, err := unpackFlush(nil, []amba.Word{0}, st, st); err == nil {
		t.Error("zero-entry flush must fail")
	}
	if _, _, _, err := unpackReport(nil, st); err == nil {
		t.Error("empty report must fail")
	}
}

// --- equivalence ------------------------------------------------------

func TestConservativeEquivalence(t *testing.T) {
	rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: Conservative}, 400)
	if rep.Stats.Transitions != 0 {
		t.Fatal("conservative mode must not open transitions")
	}
	if rep.Stats.ConservativeCycles != 400 {
		t.Fatalf("conservative cycles = %d", rep.Stats.ConservativeCycles)
	}
	// Two accesses per cycle, the conventional pattern.
	if got := rep.Channel.TotalAccesses(); got != 800 {
		t.Fatalf("accesses = %d, want 800", got)
	}
}

func TestALSEquivalenceStreaming(t *testing.T) {
	rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: ALS}, 600)
	if rep.Stats.Transitions == 0 {
		t.Fatal("ALS on a write stream must open transitions")
	}
	if rep.Stats.RunAheadCycles == 0 {
		t.Fatal("no run-ahead cycles")
	}
	if rep.Stats.Mispredicts != 0 {
		t.Fatalf("deterministic design mispredicted %d times", rep.Stats.Mispredicts)
	}
	// The whole point: far fewer channel accesses than 2/cycle.
	if got := rep.Channel.TotalAccesses(); got >= 600 {
		t.Fatalf("accesses = %d, want far fewer than 2x600", got)
	}
}

func TestSLAEquivalenceStreaming(t *testing.T) {
	rep := runBoth(t, streamDesign(SimDomain, AccDomain, 1, 0), Config{Mode: SLA}, 600)
	if rep.Stats.Transitions == 0 {
		t.Fatal("SLA on a write stream must open transitions")
	}
	if rep.Stats.TransitionsByLead[AccDomain] != 0 {
		t.Fatal("SLA must never let the accelerator lead")
	}
}

func TestALSDeclinesWhenDataFlowsBackward(t *testing.T) {
	// Master in acc reads from a sim memory: read data flows sim→acc,
	// so the accelerator cannot lead; ALS degenerates to conservative.
	d := Design{
		Masters: []MasterSpec{{
			Name: "rdr", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x1000}, false,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x8000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
	rep := runBoth(t, d, Config{Mode: ALS}, 300)
	if rep.Stats.RunAheadCycles > rep.Stats.ConservativeCycles {
		t.Fatalf("read-dominated ALS should be mostly conservative: RA=%d C=%d",
			rep.Stats.RunAheadCycles, rep.Stats.ConservativeCycles)
	}
	if rep.Stats.Declines[DeclineReadData] == 0 {
		t.Fatal("expected read-data declines")
	}
}

func TestAutoEquivalenceDuplex(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 11, 42} {
		rep := runBoth(t, duplexDesign(seed), Config{Mode: Auto}, 800)
		if rep.Stats.Transitions == 0 {
			t.Fatalf("seed %d: auto mode never led", seed)
		}
	}
}

func TestAutoLeaderFollowsDataSource(t *testing.T) {
	rep := runBoth(t, duplexDesign(7), Config{Mode: Auto}, 800)
	if rep.Stats.TransitionsByLead[SimDomain] == 0 || rep.Stats.TransitionsByLead[AccDomain] == 0 {
		t.Fatalf("duplex traffic should let both domains lead: %v", rep.Stats.TransitionsByLead)
	}
}

func TestEquivalenceUnderInjectedFaults(t *testing.T) {
	for _, p := range []float64{0.95, 0.8, 0.5, 0.2} {
		rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0),
			Config{Mode: ALS, Accuracy: p, FaultSeed: 99}, 500)
		if rep.Stats.Injected == 0 {
			t.Fatalf("p=%v: no faults injected", p)
		}
		if rep.Stats.Rollbacks == 0 {
			t.Fatalf("p=%v: faults but no rollbacks", p)
		}
		if rep.Stats.RollForthCycles == 0 {
			t.Fatalf("p=%v: rollbacks but no roll-forth", p)
		}
	}
}

func TestEquivalenceUnderOrganicMispredictions(t *testing.T) {
	// The remote memory jitters; the wait model assumes the base
	// profile, so mispredictions arise organically.
	d := streamDesign(AccDomain, SimDomain, 1, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewJitterMemory("mem", 1, 2, 31) }
	rep := runBoth(t, d, Config{Mode: ALS}, 600)
	if rep.Stats.Mispredicts == 0 {
		t.Fatal("jittery slave must cause organic mispredictions")
	}
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("mispredictions must cause rollbacks")
	}
}

func TestEquivalenceErrorResponses(t *testing.T) {
	// Stream aimed partly at an unmapped hole: default-slave two-cycle
	// ERRORs cross the domain boundary.
	d := Design{
		Masters: []MasterSpec{{
			Name: "m", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewSequence(
					ip.Xfer{Addr: 0x100, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{1, 2, 3, 4}},
					ip.Xfer{Addr: 0x9000, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{5}},
					ip.Xfer{Addr: 0x110, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{6}},
				)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x1000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
	for _, mode := range []Mode{Conservative, ALS, Auto} {
		runBoth(t, d, Config{Mode: mode}, 60)
	}
}

func TestEquivalenceRetrySlave(t *testing.T) {
	// The leader mirrors the remote RETRY memory with a reply model, so
	// ALS predicts the stream exactly; injected faults then force the
	// RETRY sequences through rollback and roll-forth.
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewRetryMemory("mem", 0, 5) }
	for _, mode := range []Mode{Conservative, ALS} {
		rep := runBoth(t, d, Config{Mode: mode}, 400)
		if mode == ALS && rep.Stats.Mispredicts != 0 {
			t.Fatalf("RETRY responses must be predicted exactly: %d mispredicts", rep.Stats.Mispredicts)
		}
	}
	rep := runBoth(t, d, Config{Mode: ALS, Accuracy: 0.9, FaultSeed: 1}, 400)
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("injected faults must roll back over RETRY traffic")
	}
}

func TestEquivalenceSplitSlave(t *testing.T) {
	// A SPLIT-capable memory in the simulator, written by an RTL master
	// in the accelerator. SPLIT responses and HSPLITx release pulses
	// cross the domain boundary; the leader's reply model predicts them
	// exactly, and under injected faults they go through rollback and
	// roll-forth — with the trace cycle-exact either way.
	d := Design{
		Masters: []MasterSpec{{
			Name: "dma", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "smem", Domain: SimDomain,
			Region:       bus.Region{Lo: 0, Hi: 0x8000},
			New:          func() bus.Slave { return ip.NewSplitMemory("smem", 0, 5, 6) },
			SplitCapable: true,
		}},
	}
	for _, mode := range []Mode{Conservative, ALS, Auto} {
		rep := runBoth(t, d, Config{Mode: mode}, 500)
		if rep.Stats.Mispredicts != 0 {
			t.Fatalf("mode %v: SPLIT traffic must be predicted exactly: %d mispredicts",
				mode, rep.Stats.Mispredicts)
		}
		if mode == Conservative {
			continue
		}
		rep = runBoth(t, d, Config{Mode: mode, Accuracy: 0.9, FaultSeed: 1}, 500)
		if rep.Stats.Rollbacks == 0 {
			t.Fatalf("mode %v: injected faults must roll back over SPLIT traffic", mode)
		}
	}
}

func TestEquivalenceSplitContention(t *testing.T) {
	// Two masters in different domains; the split slave parks the
	// high-priority one so the low-priority one overtakes — across the
	// domain boundary, under the optimistic protocol.
	d := Design{
		Masters: []MasterSpec{
			{
				Name: "hp", Domain: AccDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0, Hi: 0x1000}, true,
						amba.BurstIncr8, amba.Size32, 0, 0, 20)
				},
			},
			{
				Name: "lp", Domain: SimDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0x8000, Hi: 0x9000}, true,
						amba.BurstIncr4, amba.Size32, 0, 0, 20)
				},
			},
		},
		Slaves: []SlaveSpec{
			{
				Name: "smem", Domain: SimDomain,
				Region:       bus.Region{Lo: 0, Hi: 0x8000},
				New:          func() bus.Slave { return ip.NewSplitMemory("smem", 0, 3, 8) },
				SplitCapable: true,
			},
			{
				Name: "sram", Domain: AccDomain,
				Region: bus.Region{Lo: 0x8000, Hi: 0xA000},
				New:    func() bus.Slave { return ip.NewSRAM("sram") },
			},
		},
	}
	for _, mode := range []Mode{Conservative, Auto} {
		runBoth(t, d, Config{Mode: mode}, 600)
	}
}

func TestSplitCapableFlagValidated(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	// Lies about split capability: the slave is a plain Memory.
	d.Slaves[0].SplitCapable = true
	defer func() {
		if recover() == nil {
			t.Fatal("SplitCapable mismatch must panic at build")
		}
	}()
	_, _ = NewEngine(d, Config{})
}

func TestEquivalenceAllModesManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	for _, mode := range []Mode{Conservative, SLA, ALS, Auto} {
		for _, seed := range []uint64{5, 17, 23} {
			runBoth(t, duplexDesign(seed), Config{Mode: mode}, 500)
		}
	}
}

// --- extensions ---------------------------------------------------------

// readStreamDesign puts the master in the simulator reading from an
// accelerator memory: in ALS the leading accelerator must predict the
// *remote* master's address phase, which is where the burst tracker and
// its extensions act.
func readStreamDesign(gap int) Design {
	return Design{
		Masters: []MasterSpec{{
			Name: "rdr", Domain: SimDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, false,
					amba.BurstIncr8, amba.Size32, 0, gap, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: AccDomain,
			Region: bus.Region{Lo: 0, Hi: 0x8000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
}

func TestPredictBurstStartsExtendsTransitions(t *testing.T) {
	d := readStreamDesign(0)
	base := runBoth(t, d, Config{Mode: ALS}, 600)
	ext := runBoth(t, d, Config{Mode: ALS, PredictBurstStarts: true}, 600)
	// Transitions stay LOB-bound either way; the stride win is that the
	// burst-boundary prediction is now right, eliminating the rollback
	// that base pays roughly once per burst.
	if base.Stats.Rollbacks == 0 {
		t.Fatal("baseline should roll back at burst boundaries (IDLE predicted, NONSEQ driven)")
	}
	if ext.Stats.Rollbacks >= base.Stats.Rollbacks {
		t.Fatalf("stride prediction did not cut burst-boundary rollbacks: %d vs %d",
			ext.Stats.Rollbacks, base.Stats.Rollbacks)
	}
	if ext.Perf() <= base.Perf() {
		t.Fatalf("stride prediction did not improve performance: %.0f vs %.0f cyc/s",
			ext.Perf(), base.Perf())
	}
}

func TestPredictIdleCrossesGaps(t *testing.T) {
	// A gappy read stream: without idle prediction the leader declines
	// at every idle stretch of the remote master; with it the idle
	// cycles ride the run-ahead.
	d := readStreamDesign(5)
	base := runBoth(t, d, Config{Mode: ALS}, 600)
	ext := runBoth(t, d, Config{Mode: ALS, PredictIdle: true}, 600)
	if ext.Stats.RunAheadCycles <= base.Stats.RunAheadCycles {
		t.Fatalf("idle prediction did not extend run-ahead: %d vs %d",
			ext.Stats.RunAheadCycles, base.Stats.RunAheadCycles)
	}
	// Waking from idle costs rollbacks; they must not break equivalence
	// (runBoth already checked) and must actually occur.
	if ext.Stats.Mispredicts == 0 {
		t.Fatal("idle prediction across burst starts must mispredict sometimes")
	}
}

func TestExtensionsEquivalenceMatrix(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		d := duplexDesign(seed)
		for _, cfg := range []Config{
			{Mode: Auto, PredictIdle: true},
			{Mode: Auto, PredictBurstStarts: true},
			{Mode: Auto, PredictIdle: true, PredictBurstStarts: true},
			{Mode: Auto, PredictIdle: true, PredictBurstStarts: true, Adaptive: true},
		} {
			runBoth(t, d, cfg, 500)
		}
	}
}

// TestAdaptiveGovernorLimitsLowAccuracyLoss pins what the governor
// does at 5% accuracy now that the adaptive run-ahead window already
// keeps a failing leader's transitions short. Measured on this stream
// design over 4000 cycles: with the simulator leading (SLA), where
// stores and restores are priced as software, the governor is 6%
// faster than plain optimism; with the accelerator leading (ALS), whose
// shadow-register rollbacks are cheap, it is 2% slower. The test asserts that it helps
// the first, costs the second at most 5%, backs off, and stays out of
// the way at full accuracy.
func TestAdaptiveGovernorLimitsLowAccuracyLoss(t *testing.T) {
	const cycles = 4000
	run := func(d Design, cfg Config) *Report {
		e, err := NewEngine(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(cycles)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	simLed := streamDesign(SimDomain, AccDomain, 0, 0)
	plain := run(simLed, Config{Mode: SLA, Accuracy: 0.05, FaultSeed: 8})
	adaptive := run(simLed, Config{Mode: SLA, Accuracy: 0.05, FaultSeed: 8, Adaptive: true})
	if adaptive.Perf() <= plain.Perf() {
		t.Fatalf("governor did not help the simulator leader at 5%% accuracy: %.0f vs %.0f cyc/s",
			adaptive.Perf(), plain.Perf())
	}
	if adaptive.Stats.ConservativeCycles == 0 {
		t.Fatal("governor never backed off")
	}
	accLed := streamDesign(AccDomain, SimDomain, 0, 0)
	plain = run(accLed, Config{Mode: ALS, Accuracy: 0.05, FaultSeed: 8})
	adaptive = run(accLed, Config{Mode: ALS, Accuracy: 0.05, FaultSeed: 8, Adaptive: true})
	if adaptive.Perf() < 0.95*plain.Perf() {
		t.Fatalf("governor cost the accelerator leader more than 5%% at 5%% accuracy: %.0f vs %.0f cyc/s",
			adaptive.Perf(), plain.Perf())
	}
	// At high accuracy the governor must stay out of the way.
	good := run(accLed, Config{Mode: ALS, Adaptive: true})
	ref := run(accLed, Config{Mode: ALS})
	if good.Perf() < 0.95*ref.Perf() {
		t.Fatalf("governor throttled a healthy run: %.0f vs %.0f", good.Perf(), ref.Perf())
	}
}

// TestRunAheadWindow steps a rollback-heavy ALS run and checks the
// adaptive window rule on every transition: the window starts at the
// LOB's cycle capacity; no transition commits more than the window; a
// rollback after n committed cycles (check index n-1) sets the window
// to max(2n, 3w/4), capped at that capacity; a transition without a
// rollback doubles it up to the capacity, whether it ended at the
// window or earlier; a conservative step leaves it.
func TestRunAheadWindow(t *testing.T) {
	const cycles, depth = 4000, 64
	e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0),
		Config{Mode: ALS, LOBDepth: depth, Accuracy: 0.8, FaultSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	capacity := e.lob.MaxCycles()
	if e.window[AccDomain] != capacity || capacity != 29 {
		t.Fatalf("window starts at %d, LOB capacity %d; want both 29 cycles for %d words", e.window[AccDomain], capacity, depth)
	}
	var narrowed, widened, widenedShort int
	for e.stats.Committed < cycles {
		w := e.window[AccDomain]
		start, trans, rb := e.stats.Committed, e.stats.Transitions, e.stats.Rollbacks
		if err := e.step(cycles); err != nil {
			t.Fatal(err)
		}
		n, got := e.stats.Committed-start, e.window[AccDomain]
		want := w
		switch {
		case e.stats.Transitions == trans:
			// A conservative step leaves the window alone.
		case n > w:
			t.Fatalf("cycle %d: transition committed %d cycles past its window %d", start, n, w)
		case e.stats.Rollbacks > rb:
			want = min(capacity, max(2*n, w*3/4))
			narrowed++
		default:
			want = min(2*w, capacity)
			widened++
			if n < w {
				widenedShort++
			}
		}
		if got != want {
			t.Fatalf("cycle %d: window %d after a %d-cycle transition from %d, want %d", start, got, n, w, want)
		}
	}
	if narrowed == 0 || widened == 0 || widenedShort == 0 {
		t.Fatalf("window narrowed %d and widened %d times (%d short of the window); the rule was not exercised", narrowed, widened, widenedShort)
	}
}

func TestPaperStrictTransitions(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	strict := runBoth(t, d, Config{Mode: ALS, PaperStrictTransitions: true}, 600)
	loose := runBoth(t, d, Config{Mode: ALS}, 600)
	// Every strict transition opens with a conservative cycle.
	if strict.Stats.ConservativeCycles < strict.Stats.Transitions {
		t.Fatalf("strict mode: %d conservative cycles for %d transitions",
			strict.Stats.ConservativeCycles, strict.Stats.Transitions)
	}
	// The extra cycle per transition costs performance but nothing else.
	if strict.Perf() >= loose.Perf() {
		t.Fatalf("strict %.0f should be slower than loose %.0f", strict.Perf(), loose.Perf())
	}
	// Under fault injection the strict path must stay equivalent too.
	runBoth(t, d, Config{Mode: ALS, PaperStrictTransitions: true, Accuracy: 0.6, FaultSeed: 5}, 500)
}

// TestDESMatchesAnalyticConventional cross-validates the executable
// engine against the closed-form model on the one configuration where
// both are exactly specified: conservative mode.
func TestDESMatchesAnalyticConventional(t *testing.T) {
	for _, simSpeed := range []float64{1e5, 1e6} {
		e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0),
			Config{Mode: Conservative, SimSpeed: simSpeed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		p := perfmodel.Default()
		p.SimSpeed = simSpeed
		want := p.Conventional()
		got := rep.Perf()
		if rel := (got - want) / want; rel > 0.02 || rel < -0.02 {
			t.Fatalf("sim=%v: DES conventional %.1f vs analytic %.1f (%.1f%% off)",
				simSpeed, got, want, 100*rel)
		}
	}
}

// --- performance sanity ------------------------------------------------

func TestPredictiveBeatsConservative(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	e1, err := NewEngine(d, Config{Mode: Conservative})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := e1.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d, Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	als, err := e2.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	gain := als.Perf() / conv.Perf()
	if gain < 2 {
		t.Fatalf("ALS gain over conventional = %.2f, want >= 2 (conv %.0f vs ALS %.0f cyc/s)",
			gain, conv.Perf(), als.Perf())
	}
	t.Logf("conventional %.1f kcyc/s, ALS %.1f kcyc/s, gain %.2fx",
		conv.Perf()/1e3, als.Perf()/1e3, gain)
}

func TestAccuracyDegradesPerformance(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	var prev float64
	for i, p := range []float64{1.0, 0.9, 0.5} {
		e, err := NewEngine(d, Config{Mode: ALS, Accuracy: p, FaultSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		perf := rep.Perf()
		if i > 0 && perf >= prev {
			t.Fatalf("perf did not degrade: p=%v gives %.0f >= %.0f", p, perf, prev)
		}
		prev = perf
	}
}

// --- report / config ---------------------------------------------------

func TestEngineRejectsBadInput(t *testing.T) {
	if _, err := NewEngine(Design{}, Config{}); err == nil {
		t.Error("empty design must fail")
	}
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	if _, err := NewEngine(d, Config{SimSpeed: -1}); err == nil {
		t.Error("negative speed must fail")
	}
	e, err := NewEngine(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("zero cycles must fail")
	}
}

func TestDesignValidation(t *testing.T) {
	good := streamDesign(AccDomain, SimDomain, 0, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := good
	dup.Slaves = append([]SlaveSpec{}, good.Slaves...)
	dup.Slaves = append(dup.Slaves, SlaveSpec{Name: "dma", Region: bus.Region{Lo: 0x9000, Hi: 0x9100}, New: func() bus.Slave { return ip.NewSRAM("x") }})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate name must fail")
	}
	noGen := good
	noGen.Masters = []MasterSpec{{Name: "m"}}
	if err := noGen.Validate(); err == nil {
		t.Error("missing generator must fail")
	}
}

func TestDomainIDHelpers(t *testing.T) {
	if SimDomain.Other() != AccDomain || AccDomain.Other() != SimDomain {
		t.Fatal("Other() wrong")
	}
	if SimDomain.String() != "sim" || AccDomain.String() != "acc" {
		t.Fatal("String() wrong")
	}
}
