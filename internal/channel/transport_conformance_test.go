// Transport conformance: every Transport implementation — in-memory
// queues, the bounded loopback ring, the fault endpoint wrapper, and a
// real TCP socket pair — must honor the same contract the engine
// depends on: per-direction FIFO delivery (zero-length packets
// included), payload ownership on Send, Release safety, Pending
// accounting, and a typed ErrChannelDown when no packet can be
// produced. This file lives in package channel_test so it can exercise
// tcpchan without an import cycle.
package channel_test

import (
	"errors"
	"testing"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/channel/tcpchan"
	"coemu/internal/faultplan"
)

// link resolves, for one direction, which endpoint transmits and which
// receives. In-process transports are both ends at once; a TCP pair
// maps the authoritative sender per direction.
type link func(d channel.Dir) (tx, rx channel.Transport)

type conformanceCase struct {
	name string
	open func(t *testing.T) link
	// maxInFlight caps packets sent before draining (the loopback ring
	// holds 4).
	maxInFlight int
	// asyncDelivery marks transports whose Pending fills asynchronously
	// (the TCP pair's wire side).
	asyncDelivery bool
	// inexactPending marks transports whose Pending may overcount
	// logical packets (fault duplication enqueues physical frames).
	inexactPending bool
	// emptyRecvBudget bounds how long an empty Recv may take to fail
	// (the TCP wire side waits out its receive timeout first).
	emptyRecvBudget time.Duration
}

func same(tr channel.Transport) link {
	return func(channel.Dir) (channel.Transport, channel.Transport) { return tr, tr }
}

func tcpPair(t *testing.T) link {
	t.Helper()
	l, err := tcpchan.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type accepted struct {
		tr  *tcpchan.Transport
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		tr, _, err := l.Accept(tcpchan.Options{Role: tcpchan.RoleAcc, RecvTimeout: 300 * time.Millisecond})
		ch <- accepted{tr, err}
	}()
	sim, err := tcpchan.Dial(l.Addr().String(), tcpchan.Options{Role: tcpchan.RoleSim, RecvTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Close() })
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { acc.tr.Close() })
	return func(d channel.Dir) (channel.Transport, channel.Transport) {
		if d == channel.SimToAcc {
			return sim, acc.tr
		}
		return acc.tr, sim
	}
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{
			name:        "queues",
			open:        func(t *testing.T) link { return same(channel.NewQueues()) },
			maxInFlight: 16,
		},
		{
			name:        "loopback",
			open:        func(t *testing.T) link { return same(channel.NewLoopback()) },
			maxInFlight: 4,
		},
		{
			name: "fault-endpoint-clean",
			open: func(t *testing.T) link {
				return same(channel.NewFaultEndpoint(channel.NewQueues(), nil, 1))
			},
			maxInFlight: 16,
		},
		{
			name: "fault-endpoint-duplicating",
			open: func(t *testing.T) link {
				plan := &faultplan.ChannelFault{Duplicate: 0.5, Delay: 0.2, MaxDelayUS: 3}
				return same(channel.NewFaultEndpoint(channel.NewQueues(), plan, 7))
			},
			maxInFlight:    16,
			inexactPending: true,
		},
		{
			name:            "tcp-pair",
			open:            func(t *testing.T) link { return tcpPair(t) },
			maxInFlight:     16,
			asyncDelivery:   true,
			emptyRecvBudget: 2 * time.Second,
		},
	}
}

// payloadFor builds a distinct packet per (direction, index), with
// index 0 zero-length to pin empty-packet transit.
func payloadFor(d channel.Dir, i int) []amba.Word {
	if i == 0 {
		return nil
	}
	p := make([]amba.Word, i)
	for j := range p {
		p[j] = amba.Word(uint32(d)<<28 | uint32(i)<<16 | uint32(j))
	}
	return p
}

func waitPending(t *testing.T, rx channel.Transport, d channel.Dir, want int, async bool) int {
	t.Helper()
	if !async {
		return rx.Pending(d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := rx.Pending(d); n >= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTransportConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("fifo-both-directions", func(t *testing.T) {
				lk := tc.open(t)
				for _, d := range []channel.Dir{channel.SimToAcc, channel.AccToSim} {
					tx, rx := lk(d)
					n := tc.maxInFlight
					for i := 0; i < n; i++ {
						if err := tx.Send(d, payloadFor(d, i)); err != nil {
							t.Fatalf("%v send %d: %v", d, i, err)
						}
					}
					got := waitPending(t, rx, d, n, tc.asyncDelivery)
					switch {
					case tc.inexactPending:
						if got < n {
							t.Fatalf("%v pending = %d, want >= %d", d, got, n)
						}
					case got != n:
						t.Fatalf("%v pending = %d, want %d", d, got, n)
					}
					for i := 0; i < n; i++ {
						pkt, err := rx.Recv(d)
						if err != nil {
							t.Fatalf("%v recv %d: %v", d, i, err)
						}
						want := payloadFor(d, i)
						if len(pkt) != len(want) {
							t.Fatalf("%v recv %d: %d words, want %d", d, i, len(pkt), len(want))
						}
						for j := range want {
							if pkt[j] != want[j] {
								t.Fatalf("%v recv %d word %d = %#x, want %#x", d, i, j, pkt[j], want[j])
							}
						}
						rx.Release(pkt)
						if left := rx.Pending(d); !tc.inexactPending && left != n-i-1 {
							t.Fatalf("%v pending after recv %d = %d, want %d", d, i, left, n-i-1)
						}
					}
				}
			})

			t.Run("send-does-not-retain-payload", func(t *testing.T) {
				lk := tc.open(t)
				d := channel.SimToAcc
				tx, rx := lk(d)
				p := []amba.Word{1, 2, 3}
				if err := tx.Send(d, p); err != nil {
					t.Fatal(err)
				}
				p[0], p[1], p[2] = 9, 9, 9 // transport must have copied or encoded
				waitPending(t, rx, d, 1, tc.asyncDelivery)
				pkt, err := rx.Recv(d)
				if err != nil {
					t.Fatal(err)
				}
				if len(pkt) != 3 || pkt[0] != 1 || pkt[1] != 2 || pkt[2] != 3 {
					t.Fatalf("received %v: transport aliased the caller's payload", pkt)
				}
				rx.Release(pkt)
			})

			t.Run("empty-recv-is-channel-down", func(t *testing.T) {
				lk := tc.open(t)
				for _, d := range []channel.Dir{channel.SimToAcc, channel.AccToSim} {
					_, rx := lk(d)
					start := time.Now()
					_, err := rx.Recv(d)
					if !errors.Is(err, channel.ErrChannelDown) {
						t.Fatalf("%v empty recv err = %v, want ErrChannelDown", d, err)
					}
					budget := tc.emptyRecvBudget
					if budget == 0 {
						budget = 100 * time.Millisecond
					}
					if took := time.Since(start); took > budget {
						t.Fatalf("%v empty recv took %v, budget %v", d, took, budget)
					}
				}
			})

			t.Run("release-then-reuse", func(t *testing.T) {
				lk := tc.open(t)
				d := channel.AccToSim
				tx, rx := lk(d)
				for round := 0; round < 3; round++ {
					if err := tx.Send(d, []amba.Word{amba.Word(round), 0xF00D}); err != nil {
						t.Fatal(err)
					}
					waitPending(t, rx, d, 1, tc.asyncDelivery)
					pkt, err := rx.Recv(d)
					if err != nil {
						t.Fatal(err)
					}
					if len(pkt) != 2 || pkt[0] != amba.Word(round) || pkt[1] != 0xF00D {
						t.Fatalf("round %d: got %v", round, pkt)
					}
					rx.Release(pkt)
				}
			})
		})
	}
}
