package channel

import (
	"errors"
	"fmt"

	"coemu/internal/amba"
)

// ErrChannelDown reports that a transport could not produce a packet:
// the in-memory queue was empty where the engine's protocol guarantees
// a packet, or a remote peer stopped answering within the receive
// timeout. Engine call sites propagate it as a typed run failure
// instead of blocking forever on a dead peer.
var ErrChannelDown = errors.New("channel: transport down")

// Transport moves materialized wire packets between the two
// verification domains. It is the physical layer under the engine's
// packed codec: implementations range from same-process queues
// (Queues, Loopback) to a real TCP socket (package tcpchan), with
// FaultEndpoint wrapping any of them for seeded fault injection.
//
// Transports carry bits only — they never touch the virtual-clock
// ledger or channel Stats. The engine charges every access explicitly
// through Channel.Account before handing the packet to the transport,
// so the modeled economics are bit-identical across implementations.
//
// Ownership: the caller may reuse its payload slice after Send
// returns (the transport copies or encodes), and a slice returned by
// Recv belongs to the caller until handed back via Release.
type Transport interface {
	// Send ships one packet in direction d.
	Send(d Dir, payload []amba.Word) error
	// Recv returns the oldest undelivered packet in direction d, or an
	// error wrapping ErrChannelDown when none can be produced.
	Recv(d Dir) ([]amba.Word, error)
	// Release recycles a packet obtained from Recv.
	Release(pkt []amba.Word)
	// Pending reports how many packets are queued for delivery in
	// direction d on this endpoint.
	Pending(d Dir) int
	// Close releases transport resources. The in-memory transports
	// treat it as a no-op.
	Close() error
}

// Queues is the in-memory packet transport: a pair of FIFO queues with
// a shared buffer free-list, usable alone or under FaultEndpoint. Like
// Channel it is single-threaded by design — the engine interleaves the
// domains deterministically.
type Queues struct {
	queues [2]queue
	free   [][]amba.Word
}

// queue is a FIFO of packets. Dequeuing advances head instead of
// reslicing so the backing array is reused once the queue drains
// (reslicing q[1:] forever walks the buffer forward and forces append
// to reallocate).
type queue struct {
	pkts [][]amba.Word
	head int
}

func (q *queue) push(pkt []amba.Word) {
	q.pkts = append(q.pkts, pkt)
}

// pop removes and returns the oldest packet, or (nil, false) when the
// queue is empty. The nil-out keeps drained buffers collectable.
func (q *queue) pop() ([]amba.Word, bool) {
	if q.head >= len(q.pkts) {
		return nil, false
	}
	pkt := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return pkt, true
}

func (q *queue) len() int { return len(q.pkts) - q.head }

// NewQueues creates an empty in-memory transport.
func NewQueues() *Queues {
	return &Queues{}
}

// Send copies payload into a pooled buffer and enqueues it. It never
// fails.
func (t *Queues) Send(d Dir, payload []amba.Word) error {
	var pkt []amba.Word
	if n := len(t.free); n > 0 {
		pkt = t.free[n-1][:0]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	pkt = append(pkt, payload...)
	if pkt == nil {
		pkt = []amba.Word{} // keep zero-length packets non-nil
	}
	t.queues[d].push(pkt)
	return nil
}

// Recv dequeues the oldest packet in direction d. An empty queue
// returns an error wrapping ErrChannelDown: with both endpoints in one
// process there is no peer to wait for, so a missing packet is a
// protocol violation, surfaced immediately instead of blocking.
func (t *Queues) Recv(d Dir) ([]amba.Word, error) {
	pkt, ok := t.queues[d].pop()
	if !ok {
		return nil, fmt.Errorf("channel: recv on empty %v queue: %w", d, ErrChannelDown)
	}
	return pkt, nil
}

// Release returns a packet obtained from Recv to the free-list. The
// caller must not touch the slice afterwards: the next Send will
// overwrite it.
func (t *Queues) Release(pkt []amba.Word) {
	if cap(pkt) == 0 {
		return
	}
	t.free = append(t.free, pkt)
}

// Pending returns the number of queued packets in direction d.
func (t *Queues) Pending(d Dir) int { return t.queues[d].len() }

// Close is a no-op for the in-memory transport.
func (t *Queues) Close() error { return nil }

// loopbackDepth bounds the packets in flight per direction on the
// Loopback transport. The engine's exchange protocol never holds more
// than one packet per direction; the small fixed ring keeps steady
// state allocation-free while still catching protocol violations that
// an unbounded queue would silently absorb.
const loopbackDepth = 4

// Loopback is the same-process fast-path transport, tuned for the
// engine's strictly alternating exchange pattern: a fixed ring of
// reusable buffers per direction instead of a growable queue and
// shared pool. Unlike Queues it is bounded — sending more than
// loopbackDepth packets into one direction without receiving reports
// ErrChannelDown rather than growing, turning an engine protocol bug
// into an immediate failure.
type Loopback struct {
	rings [2]loopRing
}

// loopRing is a fixed circular buffer of packet slots. Buffers are
// recycled in place on wrap-around, so the steady state allocates
// nothing without any Release bookkeeping.
type loopRing struct {
	slots [loopbackDepth][]amba.Word
	head  int // next slot to deliver
	n     int // occupied slots
}

// NewLoopback creates an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{}
}

// Send copies payload into the next free ring slot.
func (t *Loopback) Send(d Dir, payload []amba.Word) error {
	r := &t.rings[d]
	if r.n == loopbackDepth {
		return fmt.Errorf("channel: loopback %v ring full (%d in flight): %w", d, r.n, ErrChannelDown)
	}
	slot := (r.head + r.n) % loopbackDepth
	buf := append(r.slots[slot][:0], payload...)
	if buf == nil {
		buf = []amba.Word{}
	}
	r.slots[slot] = buf
	r.n++
	return nil
}

// Recv returns the oldest in-flight packet in direction d. The slice
// remains ring-owned: it is valid until loopbackDepth further Sends in
// the same direction, which covers the engine's receive-decode-release
// pattern with room to spare.
func (t *Loopback) Recv(d Dir) ([]amba.Word, error) {
	r := &t.rings[d]
	if r.n == 0 {
		return nil, fmt.Errorf("channel: recv on empty %v loopback ring: %w", d, ErrChannelDown)
	}
	pkt := r.slots[r.head]
	r.head = (r.head + 1) % loopbackDepth
	r.n--
	return pkt, nil
}

// Release is a no-op: ring slots recycle on wrap-around.
func (t *Loopback) Release(pkt []amba.Word) {}

// Pending returns the number of in-flight packets in direction d.
func (t *Loopback) Pending(d Dir) int { return t.rings[d].n }

// Close is a no-op for the loopback transport.
func (t *Loopback) Close() error { return nil }
