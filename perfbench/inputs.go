package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"coemu/internal/spec"
)

// Inputs is everything a run sends to the program, generated from the
// workload seed alone. It is written beside the results so a run can be
// replayed: the same seed always yields byte-identical Inputs.
type Inputs struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Specs are the distinct spec documents of the run, as sent.
	Specs []json.RawMessage `json:"specs"`
	// Order is one round of operations for the engine and remote
	// workloads: indices into Specs, repeated every round.
	Order []int `json:"order,omitempty"`
	// Sweeps are the service-mix sweep documents (16-point grids).
	Sweeps []json.RawMessage `json:"sweeps,omitempty"`
	// Rounds are the service-mix request schedules, one per round.
	Rounds [][]Request `json:"rounds,omitempty"`
	// Hot and Stored index the service-mix cache-hit and store-hit sets
	// in Specs.
	Hot    []int `json:"hot,omitempty"`
	Stored []int `json:"stored,omitempty"`
}

// Request is one service-mix request: its class and the index of its
// document in Inputs.Specs (Inputs.Sweeps for the sweep class).
type Request struct {
	Class string `json:"class"`
	Doc   int    `json:"doc"`
}

// Request classes of the service-mix workload.
const (
	classFresh    = "fresh"
	classCacheHit = "cache-hit"
	classStoreHit = "store-hit"
	classSweep    = "sweep"
)

// Service-mix shape. A round is mixBlocks blocks; every block holds the
// same class counts in a seeded order, so class shares are exact and the
// distance between two visits of one cache-hit spec is bounded (it stays
// in the daemon's memory cache), while the stored set is larger than the
// memory cache and is visited round-robin (it always misses memory and
// hits the store).
const (
	blockFresh    = 5
	blockCacheHit = 7
	blockStoreHit = 7
	blockSweep    = 1
	blockSize     = blockFresh + blockCacheHit + blockStoreHit + blockSweep
	mixBlocks     = 50 // 1000 requests per round: 10 samples beyond p99
	hotSpecs      = 4
	storedSpecs   = 128
	daemonCache   = 96 // coemud -cache: below storedSpecs, above the hot-set churn
	sweepPoints   = 16
)

// specGen builds seeded spec documents. Every document it emits gets a
// distinct address offset, so no two generated specs share a canonical
// hash: a "fresh" request is never answered from a cache by accident.
type specGen struct {
	rng            *rand.Rand
	next           uint64
	nfresh, nsweep int
}

func newSpecGen(seed uint64, stream uint64) *specGen {
	return &specGen{rng: rand.New(rand.NewPCG(seed, stream))}
}

// offset returns the next unique 64 KiB-aligned address base.
func (g *specGen) offset() uint64 {
	g.next++
	return g.next << 16
}

func win(lo, size uint64) *spec.Window {
	return &spec.Window{Lo: spec.Addr(lo), Hi: spec.Addr(lo + size)}
}

func stream(w *spec.Window, burst string, gap int) spec.Generator {
	return spec.Generator{Kind: "stream", Window: w, Write: true, Burst: burst, Bits: 32, Gap: gap}
}

// quickstart is examples/quickstart: one accelerator DMA streaming
// INCR8 writes into a zero-wait simulator SRAM.
func (g *specGen) quickstart(mode string, gap int, cycles int64) spec.Spec {
	off := g.offset()
	return spec.Spec{
		Name: "quickstart",
		Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: stream(win(off, 0x10000), "INCR8", gap)}},
			Slaves:  []spec.Slave{{Name: "mem", Domain: "sim", Kind: "sram", Region: *win(off, 0x20000)}},
		},
		Run: spec.Run{Mode: mode, Cycles: cycles},
	}
}

// dmaStream is examples/dma-stream: INCR16 video DMA into a one-wait
// frame buffer.
func (g *specGen) dmaStream(cycles int64) spec.Spec {
	off := g.offset()
	return spec.Spec{
		Name: "dma-stream",
		Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "video-dma", Domain: "acc", Generator: stream(win(off, 0x100000), "INCR16", 1)}},
			Slaves:  []spec.Slave{{Name: "framebuf", Domain: "sim", Kind: "memory", Region: *win(off, 0x200000), WaitFirst: 1}},
		},
		Run: spec.Run{Mode: "als", Cycles: cycles, LOBDepth: 64},
	}
}

// multimaster is examples/multimaster: three masters over both
// domains, an interrupting timer, auto leader choice. cpuSeed seeds the
// CPU master's traffic.
func (g *specGen) multimaster(cpuSeed uint64, cycles int64) spec.Spec {
	off := g.offset()
	return spec.Spec{
		Name: "multimaster",
		Design: spec.DesignSpec{
			Masters: []spec.Master{
				{Name: "vdma", Domain: "acc", Generator: stream(win(off, 0x8000), "INCR8", 4)},
				{Name: "cpu", Domain: "sim", Generator: spec.Generator{
					Kind: "cpu", Windows: []spec.Window{*win(off, 0x8000), *win(off+0x10000, 0x2000)},
					WriteRatio: 0.6, MaxGap: 5, Seed: cpuSeed,
				}},
				{Name: "pdma", Domain: "acc", Generator: spec.Generator{
					Kind: "dma", Src: win(off, 0x4000), Dst: win(off+0x10000, 0x1000), Burst: "INCR4", Gap: 6,
				}},
			},
			Slaves: []spec.Slave{
				{Name: "dram", Domain: "sim", Kind: "memory", Region: *win(off, 0x10000), WaitFirst: 2, WaitNext: 1},
				{Name: "spm", Domain: "acc", Kind: "sram", Region: *win(off+0x10000, 0x4000)},
				{Name: "timer", Domain: "acc", Kind: "irq", Region: *win(off+0x20000, 0x100), IRQMask: 1, WaitFirst: 1, WaitNext: 1},
			},
		},
		Run: spec.Run{Mode: "auto", Cycles: cycles},
	}
}

// rollbackStorm is examples/rollback-storm with a seeded jitter memory:
// the predicted wait profile is wrong on most bursts.
func (g *specGen) rollbackStorm(cycles int64) spec.Spec {
	off := g.offset()
	return spec.Spec{
		Name: "rollback-storm",
		Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: stream(win(off, 0x40000), "INCR8", 0)}},
			Slaves: []spec.Slave{{
				Name: "flaky", Domain: "sim", Kind: "jitter", Region: *win(off, 0x80000),
				Base: 1, Spread: 2, Seed: g.rng.Uint64() | 1, WaitFirst: 1, WaitNext: 1,
			}},
		},
		Run: spec.Run{Mode: "als", Cycles: cycles},
	}
}

// splitLatency is examples/split-latency: a SPLIT-capable DRAM
// controller in the simulator, a logger stream in the other direction.
func (g *specGen) splitLatency(cycles int64) spec.Spec {
	off := g.offset()
	return spec.Spec{
		Name: "split-latency",
		Design: spec.DesignSpec{
			Masters: []spec.Master{
				{Name: "fetcher", Domain: "acc", Generator: stream(win(off, 0x8000), "INCR8", 0)},
				{Name: "logger", Domain: "sim", Generator: stream(win(off+0x10000, 0x2000), "INCR4", 1)},
			},
			Slaves: []spec.Slave{
				{Name: "dramc", Domain: "sim", Kind: "split", Region: *win(off, 0x10000),
					Waits: 1, SplitEvery: 4, ReleaseAfter: 12, WaitFirst: 1, WaitNext: 1},
				{Name: "sram", Domain: "acc", Kind: "sram", Region: *win(off+0x10000, 0x4000)},
			},
		},
		Run: spec.Run{Mode: "auto", Cycles: cycles},
	}
}

var (
	freshModes  = []string{"als", "sla", "auto", "conservative"}
	freshBursts = []string{"INCR4", "INCR8", "INCR16"}
	freshGaps   = []int{0, 1, 4, 16}
	freshAccs   = []float64{0, 0.95, 0.9}
)

// fresh builds one small service request. Successive calls step
// through the generator kinds, modes, accuracies, burst shapes, gaps and
// wait profiles in a fixed order, so every round holds the same mix
// whatever the seed; the seed draws the traffic, jitter and fault seeds.
func (g *specGen) fresh(cycles int64) spec.Spec {
	r := g.rng
	off := g.offset()
	i := g.nfresh
	g.nfresh++
	burst, gap := freshBursts[i/48%3], freshGaps[i/144%4]
	waitFirst, waitNext := 1+i/2%2, i/8%2
	var sp spec.Spec
	switch i % 4 {
	case 0:
		sp = spec.Spec{Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: stream(win(off, 0x8000), burst, gap)}},
			Slaves:  []spec.Slave{{Name: "mem", Domain: "sim", Kind: "sram", Region: *win(off, 0x10000)}},
		}}
	case 1:
		sp = spec.Spec{Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: stream(win(off, 0x8000), burst, gap)}},
			Slaves: []spec.Slave{{Name: "mem", Domain: "sim", Kind: "memory", Region: *win(off, 0x10000),
				WaitFirst: waitFirst, WaitNext: waitNext}},
		}}
	case 2:
		sp = spec.Spec{Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "copy", Domain: "acc", Generator: spec.Generator{
				Kind: "dma", Src: win(off, 0x4000), Dst: win(off+0x8000, 0x4000), Burst: burst, Gap: gap,
			}}},
			Slaves: []spec.Slave{
				{Name: "dram", Domain: "sim", Kind: "memory", Region: *win(off, 0x8000), WaitFirst: waitFirst, WaitNext: waitNext},
				{Name: "spm", Domain: "acc", Kind: "sram", Region: *win(off+0x8000, 0x8000)},
			},
		}}
	default:
		sp = spec.Spec{Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "cpu", Domain: "sim", Generator: spec.Generator{
				Kind: "cpu", Windows: []spec.Window{*win(off, 0x4000), *win(off+0x8000, 0x2000)},
				WriteRatio: 0.5, MaxGap: 1 + i/48%6, Seed: r.Uint64() | 1,
			}}},
			Slaves: []spec.Slave{
				{Name: "dram", Domain: "sim", Kind: "memory", Region: *win(off, 0x8000), WaitFirst: waitFirst, WaitNext: waitNext},
				{Name: "flaky", Domain: "acc", Kind: "jitter", Region: *win(off+0x8000, 0x8000),
					Base: 1, Spread: 1 + i/8%2, Seed: r.Uint64() | 1, WaitFirst: 1, WaitNext: 1},
			},
		}}
	}
	sp.Name = "fresh"
	sp.Run = spec.Run{Mode: freshModes[i/4%4], Cycles: cycles, Accuracy: freshAccs[i/16%3]}
	if sp.Run.Accuracy != 0 {
		sp.Run.FaultSeed = r.Uint64() | 1
	}
	return sp
}

// sweepDoc builds a fresh 16-point grid: a stream base spec swept over
// prediction accuracy and the stream's idle gap. Successive grids step
// through the optimistic modes, burst shapes and wait profiles.
func (g *specGen) sweepDoc(cycles int64) spec.SweepSpec {
	off := g.offset()
	i := g.nsweep
	g.nsweep++
	base := spec.Spec{
		Name: "sweep",
		Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: stream(win(off, 0x8000), freshBursts[i/3%3], 0)}},
			Slaves: []spec.Slave{{Name: "mem", Domain: "sim", Kind: "memory", Region: *win(off, 0x10000),
				WaitFirst: 1 + i/9%2, WaitNext: i / 18 % 2}},
		},
		Run: spec.Run{Mode: freshModes[i%3], Cycles: cycles, FaultSeed: g.rng.Uint64() | 1},
	}
	raw := func(vs ...string) []json.RawMessage {
		out := make([]json.RawMessage, len(vs))
		for i, v := range vs {
			out[i] = json.RawMessage(v)
		}
		return out
	}
	return spec.SweepSpec{Spec: base, Sweep: &spec.Sweep{Axes: []spec.Axis{
		{Field: "run.accuracy", Values: raw("1", "0.95", "0.9", "0.85")},
		{Field: "design.masters[0].generator.gap", Values: raw("0", "2", "4", "8")},
	}}}
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal input: %v", err)) // generated values always marshal
	}
	return b
}

// cycles returns base plus a seeded jitter below 2%, so every seed runs
// slightly different (but per seed exactly repeatable) work.
func (g *specGen) cycles(base int64) int64 {
	if base < 100 {
		return base + g.rng.Int64N(2)
	}
	return base + g.rng.Int64N(base/50)
}

// poolKind is one spec kind of a pool workload: a generator and the
// base cycle budget of one operation. For the engine workloads the
// budget is cut down from the run length of the example the kind
// mirrors (exampleCycles), so a run times many operations; the cut must
// keep the example's Report-derived profile, which
// TestEngineKindsKeepExampleProfile checks.
type poolKind struct {
	name          string
	cycles        int64
	exampleCycles int64
	gen           func(g *specGen, cycles int64) spec.Spec
}

// poolInputs builds the engine and remote workloads: a pool of distinct
// specs (variants of each kind) run once each per round in a seeded
// order.
func poolInputs(workload string, seed uint64, kinds []poolKind, variants int) *Inputs {
	g := newSpecGen(seed, 1)
	in := &Inputs{Workload: workload, Seed: seed}
	for v := 0; v < variants; v++ {
		for _, k := range kinds {
			in.Specs = append(in.Specs, mustJSON(k.gen(g, k.cycles)))
		}
	}
	in.Order = g.rng.Perm(len(in.Specs))
	return in
}

// Op sizes. Each kind's cycle budget is set so its operations take
// about the same host time (a unimodal latency distribution keeps the
// median steady), and so a run times several 1000-operation latency
// blocks of engine operations, or at least one block of remote sessions.
var (
	engineRollbackKinds = []poolKind{
		{"multimaster", 500, 30000, func(g *specGen, n int64) spec.Spec { return g.multimaster(g.rng.Uint64()|1, g.cycles(n)) }},
		{"rollback-storm", 900, 30000, func(g *specGen, n int64) spec.Spec { return g.rollbackStorm(g.cycles(n)) }},
		{"split-latency", 900, 30000, func(g *specGen, n int64) spec.Spec { return g.splitLatency(g.cycles(n)) }},
	}
	engineStreamKinds = []poolKind{
		{"quickstart", 2000, 50000, func(g *specGen, n int64) spec.Spec { return g.quickstart("als", 0, g.cycles(n)) }},
		{"dma-stream", 2000, 40000, func(g *specGen, n int64) spec.Spec { return g.dmaStream(g.cycles(n)) }},
		{"gap-48", 5000, 50000, func(g *specGen, n int64) spec.Spec { return g.quickstart("als", 48, g.cycles(n)) }},
		{"conservative", 2250, 50000, func(g *specGen, n int64) spec.Spec { return g.quickstart("conservative", 0, g.cycles(n)) }},
	}
	// The remote kinds are sized for TCP session time, not cut from an
	// example's run.
	remoteKinds = []poolKind{
		{"quickstart", 520, 0, func(g *specGen, n int64) spec.Spec { return g.quickstart("als", 0, g.cycles(n)) }},
		{"multimaster", 80, 0, func(g *specGen, n int64) spec.Spec { return g.multimaster(2024, g.cycles(n)) }},
		{"conservative", 100, 0, func(g *specGen, n int64) spec.Spec { return g.quickstart("conservative", 0, g.cycles(n)) }},
	}
)

func engineRollbackInputs(seed uint64) *Inputs {
	return poolInputs("engine-rollback", seed, engineRollbackKinds, 4)
}

func engineStreamInputs(seed uint64) *Inputs {
	return poolInputs("engine-stream", seed, engineStreamKinds, 3)
}

func remoteInputs(seed uint64) *Inputs {
	return poolInputs("remote-tcp", seed, remoteKinds, 2)
}

// mixSizes are the target-cycle budgets of service-mix requests.
const (
	freshCycles = 2500
	sweepCycles = 1000
)

// serviceInputs builds the hot and stored sets.
func serviceInputs(seed uint64) *Inputs {
	g := newSpecGen(seed, 2)
	in := &Inputs{Workload: "service-mix", Seed: seed}
	for i := 0; i < hotSpecs+storedSpecs; i++ {
		idx := len(in.Specs)
		in.Specs = append(in.Specs, mustJSON(g.fresh(g.cycles(freshCycles))))
		if i < hotSpecs {
			in.Hot = append(in.Hot, idx)
		} else {
			in.Stored = append(in.Stored, idx)
		}
	}
	return in
}

// maxRounds bounds a service-mix run: each round takes its address
// offsets from its own slice of the 32-bit address space.
const (
	roundOffsets = 1200 // > mixBlocks × (blockFresh + blockSweep) + 1
	maxRounds    = 50
)

// addRound appends the next round of mixBlocks blocks to in. Round r
// is generated from (seed, r) alone, so the first k rounds are the same
// for every run of a seed however many rounds it gets through.
func addRound(in *Inputs) []Request {
	r := len(in.Rounds)
	g := newSpecGen(in.Seed, 100+uint64(r))
	g.next = uint64(r+1) * roundOffsets
	reqs := make([]Request, 0, mixBlocks*blockSize)
	for b := 0; b < mixBlocks; b++ {
		block := make([]Request, 0, blockSize)
		for i := 0; i < blockFresh; i++ {
			in.Specs = append(in.Specs, mustJSON(g.fresh(g.cycles(freshCycles))))
			block = append(block, Request{Class: classFresh, Doc: len(in.Specs) - 1})
		}
		for i := 0; i < blockCacheHit; i++ {
			k := (b*blockCacheHit + i) % len(in.Hot)
			block = append(block, Request{Class: classCacheHit, Doc: in.Hot[k]})
		}
		for i := 0; i < blockStoreHit; i++ {
			k := ((r*mixBlocks+b)*blockStoreHit + i) % len(in.Stored)
			block = append(block, Request{Class: classStoreHit, Doc: in.Stored[k]})
		}
		for i := 0; i < blockSweep; i++ {
			in.Sweeps = append(in.Sweeps, mustJSON(g.sweepDoc(g.cycles(sweepCycles))))
			block = append(block, Request{Class: classSweep, Doc: len(in.Sweeps) - 1})
		}
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	in.Rounds = append(in.Rounds, reqs)
	return reqs
}

// inputsFor builds a workload's inputs. Service-mix rounds are added
// by addRound as the run reaches them.
func inputsFor(workload string, seed uint64) (*Inputs, error) {
	switch workload {
	case "engine-rollback":
		return engineRollbackInputs(seed), nil
	case "engine-stream":
		return engineStreamInputs(seed), nil
	case "remote-tcp":
		return remoteInputs(seed), nil
	case "service-mix":
		return serviceInputs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want engine-rollback, engine-stream, service-mix or remote-tcp)", workload)
}
