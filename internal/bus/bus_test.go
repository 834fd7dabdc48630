package bus

import (
	"testing"

	"coemu/internal/amba"
)

// scriptMaster drives a fixed per-cycle script and records feedback.
type scriptMaster struct {
	name   string
	drives []MasterDrive
	i      int
	fbs    []MasterFeedback
	hold   MasterDrive
}

func (m *scriptMaster) Name() string { return m.name }

func (m *scriptMaster) Drive() MasterDrive {
	if m.i < len(m.drives) {
		m.hold = m.drives[m.i]
		m.i++
	} else {
		m.hold = MasterDrive{}
	}
	return m.hold
}

func (m *scriptMaster) Commit(fb MasterFeedback) { m.fbs = append(m.fbs, fb) }

// stubSlave replies ready with a fixed data word after a fixed number of
// wait states per beat.
type stubSlave struct {
	name     string
	waits    int
	left     int
	fresh    bool
	rdata    amba.Word
	writes   []amba.Word
	respond  int
	commits  int
	readyCnt int
}

func (s *stubSlave) Name() string { return s.name }

func (s *stubSlave) Respond(ap amba.AddrPhase) amba.SlaveReply {
	s.respond++
	if !s.fresh {
		s.left = s.waits
		s.fresh = true
	}
	if s.left > 0 {
		s.left--
		return amba.SlaveReply{Ready: false, Resp: amba.RespOkay}
	}
	return amba.SlaveReply{Ready: true, Resp: amba.RespOkay, RData: s.rdata}
}

func (s *stubSlave) WriteCommit(ap amba.AddrPhase, wdata amba.Word) {
	s.writes = append(s.writes, wdata)
}

func (s *stubSlave) Commit(ready bool) {
	s.commits++
	if ready {
		s.fresh = false
		s.readyCnt++
	}
}

func singleBeat(addr amba.Addr, write bool) MasterDrive {
	return MasterDrive{
		Req: true,
		AP:  amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Write: write, Size: amba.Size32, Burst: amba.BurstSingle},
	}
}

func TestBusGrantParksOnCurrentOwner(t *testing.T) {
	b := New("t")
	m0 := &scriptMaster{name: "m0"}
	b.AddMaster(m0)
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)
	res := b.Step()
	if res.State.Grant != 0 {
		t.Fatalf("grant = %d, want 0", res.State.Grant)
	}
	if !res.State.Reply.Ready {
		t.Fatal("idle bus must be ready")
	}
}

func TestBusPriorityArbitration(t *testing.T) {
	b := New("t")
	m0 := &scriptMaster{name: "m0"} // never requests
	m1 := &scriptMaster{name: "m1", drives: []MasterDrive{{Req: true}, {Req: true}}}
	m2 := &scriptMaster{name: "m2", drives: []MasterDrive{{Req: true}, {Req: true}}}
	b.AddMaster(m0)
	b.AddMaster(m1)
	b.AddMaster(m2)
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)

	b.Step() // both m1 and m2 request; m1 has priority
	if !m1.fbs[0].GrantNext {
		t.Error("m1 must be granted next")
	}
	if m2.fbs[0].GrantNext {
		t.Error("m2 must not be granted while m1 requests")
	}
	res := b.Step()
	if res.State.Grant != 1 {
		t.Errorf("cycle 1 grant = %d, want 1", res.State.Grant)
	}
}

func TestBusPipelinedWriteReachesSlave(t *testing.T) {
	b := New("t")
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		{Req: true}, // cycle 0: request, not yet granted... grant parks on 0 though
	}}
	// Master 0 is parked-granted from reset, so it can present
	// immediately; craft the script accordingly.
	m.drives = []MasterDrive{
		singleBeat(0x40, true), // cycle 0: address phase
		{WData: 0xCAFEBABE},    // cycle 1: data phase
		{},                     // cycle 2: idle
	}
	s := &stubSlave{name: "s"}
	b.AddMaster(m)
	b.MapSlave(s, Region{0, 0x1000}, 0)

	r0 := b.Step()
	if !r0.State.AP.Trans.Active() {
		t.Fatal("cycle 0 must carry the address phase")
	}
	if r0.DataValid {
		t.Fatal("cycle 0 has no data phase")
	}
	r1 := b.Step()
	if !r1.DataValid || r1.DataMaster != 0 || r1.DataSlave != 0 {
		t.Fatalf("cycle 1 data phase = %+v", r1)
	}
	if r1.State.WData != 0xCAFEBABE {
		t.Fatalf("wdata = %x", uint32(r1.State.WData))
	}
	if len(s.writes) != 1 || s.writes[0] != 0xCAFEBABE {
		t.Fatalf("slave saw writes %v", s.writes)
	}
	if !m.fbs[1].OwnsData || m.fbs[1].Resp != amba.RespOkay {
		t.Fatalf("master feedback %+v", m.fbs[1])
	}
}

func TestBusWaitStatesFreezeGrantAndPhase(t *testing.T) {
	b := New("t")
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		singleBeat(0x40, false),
		{}, {}, {},
	}}
	hungry := &scriptMaster{name: "h", drives: []MasterDrive{
		{Req: true}, {Req: true}, {Req: true}, {Req: true},
	}}
	s := &stubSlave{name: "s", waits: 2, rdata: 0x1234}
	b.AddMaster(m)
	b.AddMaster(hungry)
	b.MapSlave(s, Region{0, 0x1000}, 0)

	b.Step() // addr phase accepted (m has priority); hungry requests
	r1 := b.Step()
	if r1.State.Reply.Ready {
		t.Fatal("cycle 1 should be a wait state")
	}
	r2 := b.Step()
	if r2.State.Reply.Ready {
		t.Fatal("cycle 2 should still wait")
	}
	// Grant must not move to the hungry master during wait states.
	if r1.State.Grant != 0 || r2.State.Grant != 0 {
		t.Fatalf("grant moved during wait states: %d, %d", r1.State.Grant, r2.State.Grant)
	}
	r3 := b.Step()
	if !r3.State.Reply.Ready {
		t.Fatal("cycle 3 should complete")
	}
	if r3.State.Reply.RData != 0x1234 {
		t.Fatalf("rdata = %x", uint32(r3.State.Reply.RData))
	}
	if got := m.fbs[3]; !got.OwnsData || !got.Ready {
		t.Fatalf("master completion feedback %+v", got)
	}
	// Only after the completing edge does the hungry master get the bus.
	r4 := b.Step()
	if r4.State.Grant != 1 {
		t.Fatalf("cycle 4 grant = %d, want 1", r4.State.Grant)
	}
}

func TestBusDefaultSlaveTwoCycleError(t *testing.T) {
	b := New("t")
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		singleBeat(0x9000, false), // unmapped address
		{}, {}, {},
	}}
	b.AddMaster(m)
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)

	b.Step()
	r1 := b.Step()
	if r1.State.Reply.Ready || r1.State.Reply.Resp != amba.RespError {
		t.Fatalf("cycle 1 = %v, want first ERROR cycle", r1.State.Reply)
	}
	if r1.DataSlave != DefaultSlaveIndex {
		t.Fatalf("data slave = %d, want default", r1.DataSlave)
	}
	r2 := b.Step()
	if !r2.State.Reply.Ready || r2.State.Reply.Resp != amba.RespError {
		t.Fatalf("cycle 2 = %v, want second ERROR cycle", r2.State.Reply)
	}
}

func TestBusDecode(t *testing.T) {
	b := New("t")
	b.AddMaster(&scriptMaster{name: "m"})
	s0 := b.MapSlave(&stubSlave{name: "a"}, Region{0x0000, 0x1000}, 0)
	s1 := b.MapSlave(&stubSlave{name: "b"}, Region{0x1000, 0x2000}, 0)
	if got := b.Decode(0x0800); got != s0 {
		t.Errorf("decode 0x800 = %d, want %d", got, s0)
	}
	if got := b.Decode(0x1000); got != s1 {
		t.Errorf("decode 0x1000 = %d, want %d", got, s1)
	}
	if got := b.Decode(0x5000); got != DefaultSlaveIndex {
		t.Errorf("decode 0x5000 = %d, want default", got)
	}
}

func TestBusRejectsOverlappingRegions(t *testing.T) {
	b := New("t")
	b.MapSlave(&stubSlave{name: "a"}, Region{0x0000, 0x1000}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping region must panic")
		}
	}()
	b.MapSlave(&stubSlave{name: "b"}, Region{0x0800, 0x1800}, 0)
}

func TestBusSnapshotRestore(t *testing.T) {
	b := New("t")
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		singleBeat(0x40, true), {WData: 1}, {},
	}}
	b.AddMaster(m)
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)

	b.Step()
	b.Store()
	cycleAt := b.Cycle()
	b.Step()
	b.Step()
	b.Restore()
	if b.Cycle() != cycleAt {
		t.Fatalf("restored cycle = %d, want %d", b.Cycle(), cycleAt)
	}
}

func TestBusPanicsWithoutMasters(t *testing.T) {
	b := New("t")
	defer func() {
		if recover() == nil {
			t.Fatal("Step without masters must panic")
		}
	}()
	b.Step()
}

func TestRegionContains(t *testing.T) {
	r := Region{0x100, 0x200}
	if !r.Contains(0x100) || r.Contains(0x200) || r.Contains(0xFF) || !r.Contains(0x1FF) {
		t.Fatal("region bounds wrong")
	}
}
