package main

import (
	"context"
	"fmt"
	"time"

	"coemu/internal/remote"
	"coemu/internal/spec"
)

// sessionReps is how many minimal-cycle sessions the traced run times
// for remote.session_ms.
const sessionReps = 20

// transportSums accumulates the client side's per-session transport
// statistics and wall time.
type transportSums struct {
	sessions, frames, retransmits, resyncs int64
	rttSamples                             int64
	rttWeighted                            float64 // mean RTT (µs) × samples
	rttP99                                 []float64
	accesses, cycles                       int64
	wallNs                                 int64
}

func (t *transportSums) add(res *remote.Result, wall time.Duration) {
	st := res.Transport
	t.sessions++
	t.frames += st.Sent + st.Received
	t.retransmits += st.Retransmits
	t.resyncs += st.Resyncs
	t.rttSamples += st.RTTSamples
	t.rttWeighted += float64(st.RTTMean.Microseconds()) * float64(st.RTTSamples)
	if st.RTTSamples > 0 {
		t.rttP99 = append(t.rttP99, float64(st.RTTP99.Microseconds()))
	}
	for d := 0; d < 2; d++ {
		t.accesses += res.Report.Channel.Accesses[d]
	}
	t.cycles += res.Report.Cycles
	t.wallNs += wall.Nanoseconds()
}

// remoteSession runs one spec document against the domain host.
func remoteSession(addr string, doc []byte, rec *spans, parent int) (*remote.Result, time.Duration, error) {
	s := rec.begin("spec.parse", parent)
	sp, err := spec.Parse(doc)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	s = rec.begin("remote.run", parent)
	t0 := time.Now()
	res, err := remote.Run(ctx, addr, sp, remote.RunOptions{})
	wall := time.Since(t0)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	rec.setCycles(s, res.Report.Cycles)
	return res, wall, nil
}

// minimalSpec is a 1-cycle quickstart: a session that is all dial,
// handshake and digest exchange.
func minimalSpec(seed uint64) []byte {
	return mustJSON(newSpecGen(seed, 3).quickstart("als", 0, 1))
}

// startDomainHost is the remote-tcp set-up: exec coemud -domain-serve
// until a first minimal session completes.
func startDomainHost(rc *runConfig, minimal []byte) (*daemon, float64, error) {
	return startRepeated(rc, true, nil, func(d *daemon) error {
		_, _, err := remoteSession(d.addr, minimal, nil, -1)
		return err
	})
}

// runRemoteWorkload runs remote-tcp: each operation is one mirrored
// session over loopback TCP through remote.Run. Its layers are measured
// by the engine-stream traced run (remoteLayers).
func runRemoteWorkload(rc *runConfig, in *Inputs) (*outcome, error) {
	minimal := minimalSpec(rc.seed)
	host, setup, err := startDomainHost(rc, minimal)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer host.stop()
	op := func(i int, rec *spans) (opResult, error) {
		res, _, err := remoteSession(host.addr, in.Specs[i], nil, -1)
		if err != nil {
			return opResult{}, err
		}
		return opResult{view: res.View, cycles: res.Report.Cycles}, nil
	}
	o, err := runUntraced(rc, in, op, func() (float64, error) {
		self, err := peakRSSMB("self")
		if err != nil {
			return 0, err
		}
		peer, err := peakRSSMB(host.pid())
		return self + peer, err
	})
	if err != nil {
		return nil, err
	}
	// The sessions set up nothing in-process: the set-up is the domain
	// host's start.
	o.metrics["setup_s"] = setup
	return o, nil
}

// layerMetrics times the minimal sessions and adds the tcpchan and
// remote per-layer metrics of the sessions t summed.
func (t *transportSums) layerMetrics(o *outcome, rec *spans, addr string, minimal []byte) error {
	for r := 0; r < sessionReps; r++ {
		root := rec.begin("remote.session", -1)
		_, _, err := remoteSession(addr, minimal, nil, -1)
		rec.end(root)
		if err != nil {
			return fmt.Errorf("minimal session: %w", err)
		}
	}
	o.metrics["tcpchan.frames_per_kcyc"] = ratio(1000*float64(t.frames), float64(t.cycles))
	o.metrics["tcpchan.rtt_mean_us"] = ratio(t.rttWeighted, float64(t.rttSamples))
	o.metrics["tcpchan.rtt_p99_us"] = median(t.rttP99)
	o.metrics["tcpchan.retransmits"] = float64(t.retransmits)
	o.metrics["tcpchan.resyncs"] = float64(t.resyncs)
	o.metrics["remote.us_per_access"] = ratio(float64(t.wallNs)/1e3, float64(t.accesses))
	o.metrics["remote.session_ms"] = median(durations(rec.list)["remote.session"]) * 1e3
	o.notes = append(o.notes, fmt.Sprintf("remote sessions: %d timed, %d channel accesses, %d RTT samples",
		t.sessions, t.accesses, t.rttSamples))
	return nil
}

// remoteLayerRounds is how many rounds of the remote-tcp pool the
// engine-stream traced run sends over TCP.
const remoteLayerRounds = 10

// remoteLayers measures the tcpchan and remote layers inside the
// engine-stream traced run: it runs remoteLayerRounds rounds of the
// remote-tcp pool against a fresh coemud -domain-serve, checks every
// report against the oracle, and adds the operations, failures and
// layer metrics to o. Its spans go to rec.
func remoteLayers(rc *runConfig, rec *spans, o *outcome) error {
	in := remoteInputs(rc.seed)
	minimal := minimalSpec(rc.seed)
	host, _, err := startDomainHost(rc, minimal)
	if err != nil {
		return err
	}
	defer host.stop()
	t := &transportSums{}
	pr := runPool(in, 0, remoteLayerRounds*len(in.Order), rec, func(i int, rec *spans) (opResult, error) {
		root := rec.begin("op.remote", -1)
		res, wall, err := remoteSession(host.addr, in.Specs[i], rec, root)
		rec.end(root)
		if err != nil {
			return opResult{}, err
		}
		t.add(res, wall)
		return opResult{view: res.View, cycles: res.Report.Cycles}, nil
	})
	pr.verify(oracleAll(docsOf(in)))
	o.attempted += pr.attempted
	o.failed += pr.failed
	o.problems = append(o.problems, pr.problems...)
	return t.layerMetrics(o, rec, host.addr, minimal)
}
