package workload

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/ip"
)

func drain(g ip.Generator, max int) []ip.Xfer {
	var out []ip.Xfer
	for i := 0; i < max; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, x)
	}
	return out
}

func TestSequence(t *testing.T) {
	s := NewSequence(
		ip.Xfer{Addr: 1},
		ip.Xfer{Addr: 2},
	)
	xs := drain(s, 10)
	if len(xs) != 2 || xs[0].Addr != 1 || xs[1].Addr != 2 {
		t.Fatalf("sequence gave %+v", xs)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted sequence must end")
	}
}

func TestSequenceSnapshot(t *testing.T) {
	s := NewSequence(ip.Xfer{Addr: 1}, ip.Xfer{Addr: 2}, ip.Xfer{Addr: 3})
	s.Next()
	s.Store()
	a, _ := s.Next()
	s.Restore()
	b, _ := s.Next()
	if a.Addr != b.Addr {
		t.Fatal("snapshot replay diverged")
	}
}

func TestStreamMarchesAndWraps(t *testing.T) {
	win := Window{Lo: 0x100, Hi: 0x140} // room for two 8-beat word bursts
	s := NewStream(win, true, amba.BurstIncr8, amba.Size32, 0, 0, 0)
	x0, _ := s.Next()
	x1, _ := s.Next()
	x2, _ := s.Next()
	if x0.Addr != 0x100 || x1.Addr != 0x120 {
		t.Fatalf("stream addrs %x %x", x0.Addr, x1.Addr)
	}
	if x2.Addr != 0x100 {
		t.Fatalf("stream did not wrap: %x", x2.Addr)
	}
	if len(x0.Data) != 8 {
		t.Fatalf("write stream carries %d data words", len(x0.Data))
	}
	if x0.Data[0] == x0.Data[1] {
		t.Fatal("data pattern is degenerate")
	}
}

func TestStreamBounded(t *testing.T) {
	s := NewStream(Window{0, 0x1000}, false, amba.BurstSingle, amba.Size32, 0, 0, 3)
	if got := len(drain(s, 100)); got != 3 {
		t.Fatalf("bounded stream gave %d transfers", got)
	}
}

func TestStreamReadCarriesNoData(t *testing.T) {
	s := NewStream(Window{0, 0x1000}, false, amba.BurstIncr4, amba.Size32, 0, 0, 1)
	x, _ := s.Next()
	if x.Data != nil {
		t.Fatal("read stream must not carry data")
	}
	if x.Write {
		t.Fatal("read stream issued a write")
	}
}

func TestStreamSnapshot(t *testing.T) {
	s := NewStream(Window{0, 0x1000}, true, amba.BurstIncr4, amba.Size32, 0, 0, 0)
	s.Next()
	s.Store()
	a, _ := s.Next()
	s.Restore()
	b, _ := s.Next()
	if a.Addr != b.Addr || a.Data[0] != b.Data[0] {
		t.Fatal("stream snapshot replay diverged")
	}
}

func TestDMACopyAlternates(t *testing.T) {
	d := NewDMACopy(Window{0x0, 0x100}, Window{0x200, 0x300}, amba.BurstIncr8, 1, 0)
	x0, _ := d.Next()
	x1, _ := d.Next()
	x2, _ := d.Next()
	if x0.Write || !x1.Write || x2.Write {
		t.Fatalf("DMA direction pattern wrong: %v %v %v", x0.Write, x1.Write, x2.Write)
	}
	if x0.Addr != 0x0 || x1.Addr != 0x200 || x2.Addr != 0x20 {
		t.Fatalf("DMA addresses %x %x %x", x0.Addr, x1.Addr, x2.Addr)
	}
	if x0.Gap != 1 {
		t.Fatalf("gap not propagated")
	}
}

func TestDMACopyRejectsIncr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("INCR DMA must panic")
		}
	}()
	NewDMACopy(Window{0, 0x100}, Window{0x200, 0x300}, amba.BurstIncr, 0, 0)
}

func TestDMASnapshot(t *testing.T) {
	d := NewDMACopy(Window{0x0, 0x100}, Window{0x200, 0x300}, amba.BurstIncr4, 0, 0)
	d.Next()
	d.Store()
	a, _ := d.Next()
	d.Restore()
	b, _ := d.Next()
	if a.Addr != b.Addr || a.Write != b.Write {
		t.Fatal("DMA snapshot replay diverged")
	}
}

func TestCPUDeterminismAndLegality(t *testing.T) {
	mk := func() *CPU {
		return NewCPU([]Window{{0x0, 0x400}, {0x1000, 0x1400}}, 0.5, 4, 0, 9)
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		xa, _ := a.Next()
		xb, _ := b.Next()
		if xa.Addr != xb.Addr || xa.Write != xb.Write || xa.Burst != xb.Burst {
			t.Fatalf("CPU generators diverged at %d", i)
		}
		if !amba.Aligned(xa.Addr, xa.Size) {
			t.Fatalf("unaligned CPU address %x", xa.Addr)
		}
		// Every beat must stay inside one of the windows.
		for _, beat := range amba.BurstAddrs(xa.Addr, xa.Size, xa.Burst, xa.Beats()) {
			in := false
			for _, w := range []Window{{0x0, 0x400}, {0x1000, 0x1400}} {
				if beat >= w.Lo && beat < w.Hi {
					in = true
				}
			}
			if !in {
				t.Fatalf("beat %x escapes windows (xfer %+v)", beat, xa)
			}
		}
		if xa.Write && len(xa.Data) != xa.Beats() {
			t.Fatalf("write data count %d != beats %d", len(xa.Data), xa.Beats())
		}
	}
}

func TestCPUSnapshot(t *testing.T) {
	c := NewCPU([]Window{{0, 0x1000}}, 0.3, 2, 0, 4)
	for i := 0; i < 10; i++ {
		c.Next()
	}
	c.Store()
	var first []ip.Xfer
	for i := 0; i < 20; i++ {
		x, _ := c.Next()
		first = append(first, x)
	}
	c.Restore()
	for i := 0; i < 20; i++ {
		x, _ := c.Next()
		if x.Addr != first[i].Addr || x.Write != first[i].Write {
			t.Fatalf("CPU snapshot replay diverged at %d", i)
		}
	}
}

func TestWindowSpan(t *testing.T) {
	if (Window{0x100, 0x180}).Span() != 0x80 {
		t.Fatal("span wrong")
	}
}
