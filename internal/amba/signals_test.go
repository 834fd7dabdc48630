package amba

import (
	"strings"
	"testing"
)

// merge is MergeInto by value, for test readability.
func merge(a, b PartialState) CycleState {
	var c CycleState
	MergeInto(&c, &a, &b)
	return c
}

func TestMergeDisjointOwnership(t *testing.T) {
	a := PartialState{
		Req: 0b01, ReqMask: 0b01,
		HasAP: true,
		AP:    AddrPhase{Addr: 0x100, Trans: TransNonSeq, Write: true, Size: Size32, Burst: BurstSingle},
		IRQ:   0x1, IRQMask: 0x3,
	}
	b := PartialState{
		Req: 0b10, ReqMask: 0b10,
		HasReply: true,
		Reply:    SlaveReply{Ready: true, Resp: RespOkay, RData: 0xdead},
		IRQ:      0x8, IRQMask: 0xc,
	}
	c := merge(a, b)
	if c.Req != 0b11 {
		t.Errorf("merged Req = %04b", c.Req)
	}
	if c.AP != a.AP {
		t.Errorf("merged AP = %v", c.AP)
	}
	if c.Reply != b.Reply {
		t.Errorf("merged Reply = %v", c.Reply)
	}
	if c.IRQ != 0x9 {
		t.Errorf("merged IRQ = %x, want 9", c.IRQ)
	}
}

func TestMergeDefaultsToIdleResponse(t *testing.T) {
	a := PartialState{ReqMask: 0b01}
	b := PartialState{ReqMask: 0b10}
	c := merge(a, b)
	if !c.Reply.Ready || c.Reply.Resp != RespOkay {
		t.Fatalf("idle merge must give OKAY/ready, got %v", c.Reply)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestMergeConflictsPanic(t *testing.T) {
	mustPanic(t, "req overlap", func() {
		merge(PartialState{ReqMask: 1}, PartialState{ReqMask: 1})
	})
	mustPanic(t, "double AP", func() {
		merge(PartialState{HasAP: true, ReqMask: 1}, PartialState{HasAP: true, ReqMask: 2})
	})
	mustPanic(t, "double wdata", func() {
		merge(PartialState{HasWData: true, ReqMask: 1}, PartialState{HasWData: true, ReqMask: 2})
	})
	mustPanic(t, "double reply", func() {
		merge(PartialState{HasReply: true, ReqMask: 1}, PartialState{HasReply: true, ReqMask: 2})
	})
}

func TestCycleStateString(t *testing.T) {
	cs := CycleState{Grant: 2, Req: 0b0110}
	s := cs.String()
	if !strings.Contains(s, "grant=2") {
		t.Errorf("String() = %q", s)
	}
}

func TestCycleStateEqual(t *testing.T) {
	a := CycleState{Grant: 1, Req: 3, WData: 7}
	b := a
	if !a.Equal(b) {
		t.Error("identical states must be equal")
	}
	b.WData = 8
	if a.Equal(b) {
		t.Error("different states must not be equal")
	}
}

func TestFirstDiffAttributionOrder(t *testing.T) {
	base := PartialState{
		Req: 0b01, ReqMask: 0b01,
		HasAP: true, AP: AddrPhase{Addr: 0x100, Trans: TransSeq, Write: true, Size: Size32, Burst: BurstIncr4},
		HasReply: true, Reply: SlaveReply{Ready: true, Resp: RespOkay},
		SplitMask: 0b11,
	}
	if _, ok := base.FirstDiff(&base); ok {
		t.Fatal("FirstDiff of equal states reported a class")
	}
	cases := []struct {
		want Signal
		mut  func(*PartialState)
	}{
		{SigRequest, func(p *PartialState) { p.Req = 0; p.AP.Trans = TransIdle }},
		{SigTrans, func(p *PartialState) { p.AP.Trans = TransNonSeq; p.AP.Addr = 0x104 }},
		{SigAddr, func(p *PartialState) { p.AP.Burst = BurstIncr; p.Reply.Ready = false }},
		{SigWData, func(p *PartialState) { p.HasWData = true }},
		{SigReady, func(p *PartialState) { p.Reply = SlaveReply{Ready: false, Resp: RespSplit} }},
		{SigResp, func(p *PartialState) { p.Reply.Resp = RespRetry; p.Split = 1 }},
		{SigRData, func(p *PartialState) { p.Reply.RData = 7 }},
		{SigIRQ, func(p *PartialState) { p.IRQMask = 1; p.Split = 1 }},
		{SigSplit, func(p *PartialState) { p.Split = 0b10 }},
	}
	for _, c := range cases {
		o := base
		c.mut(&o)
		got, ok := base.FirstDiff(&o)
		if !ok || got != c.want {
			t.Errorf("FirstDiff = %v, %v; want %v", got, ok, c.want)
		}
	}
	if s := SigSplit.String(); s != "hsplit" {
		t.Errorf("SigSplit.String() = %q", s)
	}
}
