// Command coemu runs one declarative JSON spec (see internal/spec) and
// prints the full virtual-time report: the Table 2-style per-cycle
// cost breakdown, behavioral counters, channel statistics and
// transition-length distribution.
//
//	coemu -spec examples/quickstart/spec.json
//	coemu -spec examples/presets/duplex.json -trace-out trace.json
//
// The spec carries the design, configuration and cycle budget. The
// presets under examples/presets are the classic scenarios: stream (an
// RTL DMA writing into a TL memory, the canonical ALS configuration),
// readback (the same topology reading, against the ALS leader), duplex
// (a DMA copying between domains beside a CPU and an IRQ peripheral)
// and random (a CPU against a jittery memory). A transfer script runs
// through the spec's inline "script" generator.
//
// With -remote-domain addr, the run goes cross-process: the
// accelerator domain is hosted by a `coemud -domain-serve addr`
// process, the spec ships in the connect handshake, and both processes
// run mirrored lockstep engines over the TCP channel (see
// internal/remote). The printed report is bit-identical to the
// in-process run. If the spec sets run.measured_latency, the client
// also samples the real link RTT and prints a masked-performance
// estimate — what the prediction packetizing would deliver against the
// measured link instead of the modeled channel — to stderr.
//
// With -trace-out trace.json, the run records its protocol events —
// conservative stretches, run-ahead and follow-up spans, rollbacks,
// channel flushes — into a ring buffer (the spec's run.trace_ring
// bounds it) and writes a Chrome trace_event file at exit; load it in
// Perfetto or chrome://tracing to see the engine's cycle-level
// schedule. Tracing is a pure observer: the report is bit-identical
// with and without it.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"

	"coemu"
	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/remote"
	"coemu/internal/trace"
	"coemu/internal/vclock"
)

func main() {
	specPath := flag.String("spec", "", "declarative JSON spec file to run (required; presets in examples/presets)")
	remoteDomain := flag.String("remote-domain", "", "dial a `coemud -domain-serve` accelerator-domain host at this TCP address and run -spec cross-process")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event file (Perfetto-loadable) of the run's protocol events")
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "coemu: -spec is required (presets live in examples/presets)")
		os.Exit(2)
	}
	s, err := coemu.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(s.Run.TraceRing)
	}

	if *remoteDomain != "" {
		res, err := remote.Run(context.Background(), *remoteDomain, s, remote.RunOptions{Tracer: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		print(res.Report)
		st := res.Transport
		fmt.Fprintf(os.Stderr, "transport: %d frames sent, %d received, %d retransmits, %d resyncs, %d reconnects\n",
			st.Sent, st.Received, st.Retransmits, st.Resyncs, st.Reconnects)
		if m := res.Measured; m != nil {
			fmt.Fprintf(os.Stderr, "measured link: rtt mean %v p99 %v (%d samples)\n", m.RTTMean, m.RTTP99, m.Samples)
			fmt.Fprintf(os.Stderr, "masked performance against measured link: %.0f cyc/s\n", m.MaskedPerf)
		}
		if rec != nil {
			// Fold the transport's connect/resync/retransmit events into
			// the protocol trace so the wire shows up as its own track.
			for _, ev := range res.Events {
				rec.Record(ev)
			}
		}
		writeTrace(*traceOut, rec)
		return
	}

	d, cfg, err := s.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Tracer = rec
	rep, err := coemu.Run(d, cfg, s.Run.Cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	print(rep)
	writeTrace(*traceOut, rec)
}

// writeTrace dumps a recorded run as a Chrome trace_event file. A nil
// recorder (no -trace-out) is a no-op.
func writeTrace(path string, rec *trace.Recorder) {
	if rec == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := trace.WriteChromeTrace(f, rec.Events()); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Stderr, so stdout stays byte-identical with and without tracing.
	fmt.Fprintf(os.Stderr, "protocol trace: %d events to %s", rec.Len(), path)
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, " (%d oldest dropped; raise run.trace_ring)", d)
	}
	fmt.Fprintln(os.Stderr)
}

func print(rep *coemu.Report) {
	fmt.Printf("mode: %v\n", rep.Mode)
	fmt.Printf("target cycles: %d\n", rep.Cycles)
	fmt.Printf("virtual wall time: %v\n", rep.Ledger.Total())
	fmt.Printf("simulation performance: %.2f kcycles/s\n\n", rep.Perf()/1e3)

	fmt.Println("per-cycle cost breakdown (Table 2 rows):")
	for _, c := range vclock.Categories() {
		fmt.Printf("  %-9s %12v/cycle  (%d charges)\n",
			c, rep.Ledger.PerCycle(c, rep.Cycles), rep.Ledger.Count(c))
	}

	s := rep.Stats
	fmt.Printf("\nbehavior: %d conservative cycles, %d transitions (sim-led %d, acc-led %d)\n",
		s.ConservativeCycles, s.Transitions, s.TransitionsByLead[0], s.TransitionsByLead[1])
	fmt.Printf("  run-ahead %d, follow-up %d, roll-forth %d cycles; %d rollbacks\n",
		s.RunAheadCycles, s.FollowUpCycles, s.RollForthCycles, s.Rollbacks)
	fmt.Printf("  predictions checked %d, mispredicted %d (injected %d)\n",
		s.ChecksTotal, s.Mispredicts, s.Injected)
	if s.Mispredicts > s.Injected {
		fmt.Print("  organic mispredicts by signal:")
		for sig, n := range s.MispredictsBySignal {
			fmt.Printf(" %v=%d", amba.Signal(sig), n)
		}
		fmt.Println()
	}
	if len(s.Declines) > 0 {
		fmt.Println("  decline reasons:")
		for _, r := range sortedKeys(s.Declines) {
			fmt.Printf("    %-48s %d\n", r, s.Declines[r])
		}
	}

	ch := rep.Channel
	fmt.Printf("\nchannel: %d accesses, %d words (sim->acc %d/%d, acc->sim %d/%d)\n",
		ch.TotalAccesses(), ch.TotalWords(),
		ch.Accesses[channel.SimToAcc], ch.Words[channel.SimToAcc],
		ch.Accesses[channel.AccToSim], ch.Words[channel.AccToSim])
	fmt.Printf("  payload histogram (words): %v buckets sim->acc %v | acc->sim %v\n",
		channel.BucketLabels(), ch.SizeHist[channel.SimToAcc], ch.SizeHist[channel.AccToSim])

	if rep.TransitionLengths.N() > 0 {
		fmt.Printf("\ntransition length: mean %.1f cycles, p50 %d, p95 %d, max %d (LOB peak %d words)\n",
			rep.TransitionLengths.Mean(), rep.TransitionLengths.Quantile(0.5),
			rep.TransitionLengths.Quantile(0.95), rep.TransitionLengths.Quantile(1),
			rep.LOBPeakWords)
	}
	if rep.RollForthLengths.N() > 0 {
		fmt.Printf("roll-forth length: mean %.1f cycles, max %d\n",
			rep.RollForthLengths.Mean(), rep.RollForthLengths.Quantile(1))
	}
}

// sortedKeys returns m's keys in ascending order, so map-backed report
// sections print deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
