package predict

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/ip"
)

func TestLastValue(t *testing.T) {
	var l LastValue
	if l.Predict() != 0 {
		t.Fatal("initial prediction must be 0")
	}
	l.Observe(0b101)
	if l.Predict() != 0b101 {
		t.Fatal("last value not tracked")
	}
	l.Store()
	l.Observe(0b111)
	l.Restore()
	if l.Predict() != 0b101 {
		t.Fatal("restore failed")
	}
}

func TestBurstTrackerPredictsSeqChain(t *testing.T) {
	var b BurstTracker
	ap := amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true}
	b.Observe(ap)
	for i := 1; i < 4; i++ {
		pred, ok := b.Predict()
		if !ok {
			t.Fatalf("no prediction at beat %d", i)
		}
		want := amba.Addr(0x100 + 4*i)
		if pred.Trans != amba.TransSeq || pred.Addr != want {
			t.Fatalf("beat %d predicted %v, want SEQ@%x", i, pred, want)
		}
		if !pred.Write || pred.Burst != amba.BurstIncr4 {
			t.Fatalf("control not held: %v", pred)
		}
		b.Observe(pred)
	}
	// Burst exhausted: tracker predicts IDLE.
	pred, ok := b.Predict()
	if !ok || !pred.Idle() {
		t.Fatalf("after burst end: pred=%v ok=%v, want IDLE", pred, ok)
	}
}

func TestBurstTrackerWrap(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x3c, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstWrap4})
	pred, ok := b.Predict()
	if !ok || pred.Addr != 0x30 {
		t.Fatalf("wrap prediction %v ok=%v, want 0x30", pred, ok)
	}
}

func TestBurstTrackerDeclinesWithoutContext(t *testing.T) {
	var b BurstTracker
	if _, ok := b.Predict(); ok {
		t.Fatal("fresh tracker must decline")
	}
	b.Observe(amba.AddrPhase{}) // IDLE
	if _, ok := b.Predict(); ok {
		t.Fatal("idle master must decline")
	}
}

func TestBurstTrackerIncrUnbounded(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x0, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr})
	for i := 1; i <= 20; i++ {
		pred, ok := b.Predict()
		if !ok || pred.Addr != amba.Addr(4*i) {
			t.Fatalf("INCR beat %d: %v ok=%v", i, pred, ok)
		}
		b.Observe(pred)
	}
}

func TestBurstTrackerSnapshot(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x10, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr8})
	b.Store()
	p1, _ := b.Predict()
	b.Observe(p1)
	b.Restore()
	p2, _ := b.Predict()
	if p1 != p2 {
		t.Fatal("snapshot replay diverged")
	}
}

// TestWaitModelMirrorsMemoryProfile drives a WaitModel the way the
// engine does — Predict, then Observe the actual HREADY — in lockstep
// with a real ip.Memory driven Respond/Commit, and requires the
// predicted HREADY to match the memory's on every data-phase cycle, for
// every small wait profile, across back-to-back bursts. Each cycle also
// checks purity: a second Predict agrees with the first and neither
// moves the model's state.
func TestWaitModelMirrorsMemoryProfile(t *testing.T) {
	const bursts, beats = 3, 4
	for first := 0; first <= 4; first++ {
		for next := 0; next <= 4; next++ {
			w := NewWaitModel(first, next)
			m := ip.NewMemory("mem", first, next)
			ap := amba.AddrPhase{Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4}
			for done, cycle := 0, 0; done < bursts*beats; cycle++ {
				before := w.st
				pred := w.Predict()
				if again := w.Predict(); again != pred {
					t.Fatalf("(%d,%d) cycle %d: Predict not repeatable: %v then %v", first, next, cycle, pred, again)
				}
				if after := w.st; after != before {
					t.Fatalf("(%d,%d) cycle %d: Predict moved the model: %+v -> %+v", first, next, cycle, before, after)
				}
				ready := m.Respond(ap).Ready
				if pred != ready {
					t.Fatalf("(%d,%d) cycle %d (beat %d): predicted HREADY %v, memory drove %v", first, next, cycle, done, pred, ready)
				}
				m.Commit(ready)
				w.Observe(ready)
				if ready {
					done++
					ap.Addr += 4
					ap.Trans = amba.TransSeq
					if done%beats == 0 {
						ap.Trans = amba.TransNonSeq
					}
				}
			}
		}
	}
}

func TestWaitModelObserveRealigns(t *testing.T) {
	w := NewWaitModel(0, 0)
	// Model expects ready immediately, but the real slave waited twice.
	w.Observe(false)
	w.Observe(false)
	w.Observe(true)
	// After the beat completes, the model starts the next beat cleanly.
	if !w.Predict() {
		t.Fatal("zero-wait model must predict ready on a fresh beat")
	}
}

func TestWaitModelSnapshot(t *testing.T) {
	w := NewWaitModel(3, 1)
	w.Observe(false)
	w.Store()
	a := w.Predict()
	w.Observe(false)
	w.Observe(false)
	w.Restore()
	b := w.Predict()
	if a != b {
		t.Fatal("snapshot replay diverged")
	}
}

func TestFaultInjectorExtremes(t *testing.T) {
	f := NewFaultInjector(1, 1)
	for i := 0; i < 1000; i++ {
		if f.Mispredict() {
			t.Fatal("p=1 must never mispredict")
		}
	}
	g := NewFaultInjector(0, 1)
	for i := 0; i < 1000; i++ {
		if !g.Mispredict() {
			t.Fatal("p=0 must always mispredict")
		}
	}
	checks, faults := g.Stats()
	if checks != 1000 || faults != 1000 {
		t.Fatalf("stats %d/%d", checks, faults)
	}
}

func TestFaultInjectorRate(t *testing.T) {
	f := NewFaultInjector(0.9, 7)
	const n = 100000
	faults := 0
	for i := 0; i < n; i++ {
		if f.Mispredict() {
			faults++
		}
	}
	rate := float64(faults) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("fault rate %g, want ~0.10", rate)
	}
	if f.Accuracy() != 0.9 {
		t.Fatal("accuracy accessor")
	}
}

func TestFaultInjectorBadAccuracyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accuracy > 1 must panic")
		}
	}()
	NewFaultInjector(1.5, 1)
}
