package coemu_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"coemu/internal/channel"
	"coemu/internal/channel/tcpchan"
	"coemu/internal/faultplan"
	"coemu/internal/remote"
	"coemu/internal/spec"
)

// Chaos over sockets: the cross-process split must absorb everything
// the in-process chaos suite absorbs, plus the failure modes only a
// real network has. Two fault surfaces compose here:
//
//   - wire faults (tcpchan Options.Faults): frames corrupted, delayed
//     or duplicated on the socket itself, healed below the engine by
//     the transport's checksum-and-retransmit ARQ — the modeled run
//     never sees them;
//   - modeled faults (spec fault_plan.channel): the FaultEndpoint
//     chaos layer riding above the transport, mirrored identically in
//     both processes by the shared spec seed — survivable plans are
//     absorbed, corruption surfaces as the same typed error in both
//     mirrors.
//
// Every surviving run must stay byte-identical to the fault-free
// in-process run, including across a mid-run connection kill healed by
// reconnect-resync.

// chaosVariant is remoteVariant for the chaos suite, with an optional
// modeled channel fault plan attached to the spec (so both mirrors
// derive the identical fault schedule from the handshake meta).
func chaosVariant(t *testing.T, sp *spec.Spec, cf *faultplan.ChannelFault, seed uint64) *spec.Spec {
	t.Helper()
	v := remoteVariant(t, sp, 1)
	if cf != nil {
		v.Run.FaultPlan = &faultplan.Plan{Seed: seed, Channel: cf}
	}
	return v
}

// TestChaosRemoteWireFaultsBitIdentical injects corruption, duplicates
// and delay into the socket frames of both endpoints. The transport's
// ARQ must heal all of it: the reports stay byte-identical to the
// clean in-process run, and the transport counters prove the faults
// actually fired.
func TestChaosRemoteWireFaultsBitIdentical(t *testing.T) {
	wire := &faultplan.ChannelFault{Corrupt: 0.02, Duplicate: 0.05, Delay: 0.02, MaxDelayUS: 30}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			v := chaosVariant(t, sp, nil, 0)
			want, _ := runSpec(t, v, nil)
			res, err := remote.Pair(context.Background(), v,
				remote.RunOptions{Faults: wire, FaultSeed: 1001},
				remote.ServeOptions{Faults: wire, FaultSeed: 2002})
			if err != nil {
				t.Fatal(err)
			}
			if res.ClientErr != nil || res.ServerErr != nil {
				t.Fatalf("wire faults broke the run: client %v, server %v", res.ClientErr, res.ServerErr)
			}
			if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
				t.Errorf("report diverged under wire faults\nclient: %s\nserver: %s\nclean:  %s",
					res.Client.View, res.ServerView, want)
			}
			injected := res.Client.Transport.WireFaults + res.ServerStats.WireFaults
			if injected == 0 {
				t.Fatal("no wire faults injected; test is vacuous")
			}
			healed := res.Client.Transport.CorruptFrames + res.Client.Transport.Dups +
				res.ServerStats.CorruptFrames + res.ServerStats.Dups
			if healed == 0 {
				t.Fatalf("%d faults injected but no receiver ever noticed one", injected)
			}
		})
	}
}

// TestChaosRemoteModeledFaultsBitIdentical runs the in-process chaos
// suite's survivable plan — every modeled frame duplicated, some
// delayed — through the spec's fault_plan over a real socket. Both
// mirrors derive the same fault schedule from the handshake meta, so
// the runs stay bit-identical to the fault-free baseline.
func TestChaosRemoteModeledFaultsBitIdentical(t *testing.T) {
	plan := &faultplan.ChannelFault{Duplicate: 1, Delay: 0.01, MaxDelayUS: 5}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			clean := chaosVariant(t, sp, nil, 0)
			want, _ := runSpec(t, clean, nil)
			v := chaosVariant(t, sp, plan, 7)
			res, err := remote.Pair(context.Background(), v, remote.RunOptions{}, remote.ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.ClientErr != nil || res.ServerErr != nil {
				t.Fatalf("modeled faults broke the run: client %v, server %v", res.ClientErr, res.ServerErr)
			}
			if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
				t.Errorf("report diverged under modeled faults\nclient: %s\nserver: %s\nclean:  %s",
					res.Client.View, res.ServerView, want)
			}
		})
	}
}

// TestChaosRemoteCorruptionSurfacesBothMirrors forces modeled frame
// corruption and requires the identical typed error in both processes:
// a FaultEndpoint bit flip is injected identically by both mirrors, so
// both must fail with channel.ErrFrameCorrupt — clean symmetric
// failure, not divergence or hang.
func TestChaosRemoteCorruptionSurfacesBothMirrors(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	v := chaosVariant(t, sp, &faultplan.ChannelFault{Corrupt: 1}, 0)
	res, err := remote.Pair(context.Background(), v, remote.RunOptions{}, remote.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.ClientErr, channel.ErrFrameCorrupt) {
		t.Errorf("client err = %v, want channel.ErrFrameCorrupt", res.ClientErr)
	}
	if !errors.Is(res.ServerErr, channel.ErrFrameCorrupt) {
		t.Errorf("server err = %v, want channel.ErrFrameCorrupt", res.ServerErr)
	}
}

// TestChaosRemoteKillMidRunBitIdentical severs the TCP connection
// while the run is in flight. The client transport must redial, resume
// via the handshake's expect position, replay its retransmission
// window, and finish with the byte-identical report.
func TestChaosRemoteKillMidRunBitIdentical(t *testing.T) {
	sp := exampleSpecs(t)["dma-stream"]
	v := chaosVariant(t, sp, nil, 0)
	want, _ := runSpec(t, v, nil)

	res, err := remote.Pair(context.Background(), v,
		remote.RunOptions{OnTransport: func(tr *tcpchan.Transport) {
			time.AfterFunc(3*time.Millisecond, tr.Kill)
			time.AfterFunc(9*time.Millisecond, tr.Kill)
		}},
		remote.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientErr != nil || res.ServerErr != nil {
		t.Fatalf("killed run never healed: client %v, server %v", res.ClientErr, res.ServerErr)
	}
	if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
		t.Errorf("report diverged across reconnect\nclient: %s\nserver: %s\nclean:  %s",
			res.Client.View, res.ServerView, want)
	}
	if res.Client.Transport.Reconnects == 0 {
		t.Fatalf("no reconnect recorded (%+v); kill never landed mid-run", res.Client.Transport)
	}
}
