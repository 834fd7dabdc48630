package predict

import (
	"fmt"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/rng"
)

// failingSlave is the slave surface a ReplyModel mirrors.
type failingSlave interface {
	bus.Slave
	Store()
	Restore()
}

// TestReplyModelMirrorsSlaves runs each model in lockstep with the
// memory it mirrors, under a random stream of beats from three masters
// with idle gaps, the way the bus drives the slave: Respond and Commit
// while a beat holds the data phase, NotifySplit on a ready SPLIT, and
// a Tick every cycle. Every predicted reply and HSPLITx line must match,
// across a store, a stretch of cycles and a restore.
func TestReplyModelMirrorsSlaves(t *testing.T) {
	for _, waits := range []int{0, 1, 3} {
		for _, every := range []int{1, 2, 4} {
			for _, release := range []int{-1, 0, 3, 12} { // -1: RETRY
				name := fmt.Sprintf("waits=%d/every=%d/release=%d", waits, every, release)
				t.Run(name, func(t *testing.T) {
					var slave failingSlave
					var model *ReplyModel
					if release < 0 {
						slave, model = ip.NewRetryMemory("m", waits, every), NewRetryModel(waits, every)
					} else {
						slave, model = ip.NewSplitMemory("m", waits, every, release), NewSplitModel(waits, every, release)
					}
					split, _ := slave.(*ip.SplitMemory)
					r := rng.New(uint64(waits*100 + every*10 + release + 1))
					inBeat, master := false, 0
					for cycle := int64(0); cycle < 3000; cycle++ {
						switch cycle {
						case 1000:
							slave.Store()
							model.Store()
						case 1500:
							slave.Restore()
							model.Restore()
							inBeat = false
						}
						if split != nil {
							if got, want := model.Split(), split.SplitRelease(); got != want {
								t.Fatalf("cycle %d: predicted HSPLITx %b, slave raised %b", cycle, got, want)
							}
						}
						if !inBeat && r.Bool(0.6) {
							inBeat, master = true, r.Intn(3)
						}
						var reply amba.SlaveReply
						if inBeat {
							pred := model.Predict()
							reply = slave.Respond(amba.AddrPhase{Trans: amba.TransNonSeq, Write: true, Size: amba.Size32})
							if pred != reply {
								t.Fatalf("cycle %d: predicted %v, slave replied %v", cycle, pred, reply)
							}
							if split != nil && reply.Ready && reply.Resp == amba.RespSplit {
								split.NotifySplit(master)
							}
							slave.Commit(reply.Ready)
						}
						if split != nil {
							split.Tick(cycle)
						}
						model.Observe(inBeat, reply, master)
						if reply.Ready {
							inBeat = false
						}
					}
				})
			}
		}
	}
}

// TestReplyModelSkipIdleMatchesObserves pins SkipIdle against n idle
// Observe calls from every point of an armed release countdown.
func TestReplyModelSkipIdleMatchesObserves(t *testing.T) {
	const release = 5
	for start := 0; start <= release+2; start++ {
		for n := int64(0); n <= release+3; n++ {
			seq := NewSplitModel(0, 1, release)
			seq.Observe(true, amba.SlaveReply{Ready: false, Resp: amba.RespSplit}, 2)
			seq.Observe(true, amba.SlaveReply{Ready: true, Resp: amba.RespSplit}, 2)
			for i := 0; i < start; i++ {
				seq.Observe(false, amba.SlaveReply{}, 0)
			}
			bat := *seq
			if h := bat.IdleStableFor(); h != Unbounded && h < 0 {
				t.Fatalf("negative horizon %d", h)
			}
			for i := int64(0); i < n; i++ {
				seq.Observe(false, amba.SlaveReply{}, 0)
			}
			bat.SkipIdle(n)
			if *seq != bat {
				t.Fatalf("start %d, n %d: SkipIdle state %+v, Observes %+v", start, n, bat.st, seq.st)
			}
		}
	}
}

// TestBurstTrackerRebuildsLostBurst walks a WRAP4 burst that loses the
// grant after its first beat: the remainder is predicted as the
// master re-issues it — NONSEQ INCR from the next address, a fresh
// NONSEQ at the original burst's wrap point, SEQ after it — and the
// beat count survives, so the burst ends on time.
func TestBurstTrackerRebuildsLostBurst(t *testing.T) {
	var b BurstTracker
	ap := amba.AddrPhase{Addr: 0x108, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstWrap4, Write: true}
	b.Observe(ap)
	b.LoseGrant()
	b.Observe(amba.AddrPhase{}) // another master's turn leaves this one idle
	want := []amba.AddrPhase{
		{Addr: 0x10c, Trans: amba.TransNonSeq},
		{Addr: 0x100, Trans: amba.TransNonSeq}, // wrap point of the original burst
		{Addr: 0x104, Trans: amba.TransSeq},
	}
	for i, w := range want {
		w.Size, w.Burst, w.Write = amba.Size32, amba.BurstIncr, true
		got, ok := b.Predict()
		if !ok || got != w {
			t.Fatalf("beat %d: predicted %v (ok=%v), want %v", i+1, got, ok, w)
		}
		b.Observe(got)
	}
	if got, ok := b.Predict(); !ok || got.Trans != amba.TransIdle {
		t.Fatalf("after the last beat predicted %v (ok=%v), want IDLE", got, ok)
	}
}

// TestBurstTrackerReissuesFailedBeat checks the RETRY/SPLIT rule: the
// failed beat comes back NONSEQ INCR at its own address, and the
// beats after it continue the count.
func TestBurstTrackerReissuesFailedBeat(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x200, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4})
	b.Observe(amba.AddrPhase{Addr: 0x204, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr4})
	b.Reissue()
	b.Observe(amba.AddrPhase{}) // the cancelled beat
	b.LoseGrant()               // a pending re-issue is not moved by the grant
	for _, w := range []amba.AddrPhase{
		{Addr: 0x204, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr},
		{Addr: 0x208, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr},
		{Addr: 0x20c, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr},
	} {
		got, ok := b.Predict()
		if !ok || got != w {
			t.Fatalf("predicted %v (ok=%v), want %v", got, ok, w)
		}
		b.Observe(got)
	}
	if got, _ := b.Predict(); got.Trans != amba.TransIdle {
		t.Fatalf("after the last beat predicted %v, want IDLE", got)
	}
}
