package workload

import (
	"testing"

	"coemu/internal/amba"
)

// Tests for the generator-owned data pool: recycled per-burst Data
// slices must never change contents under a live reference (the
// master's current transfer or the rollback snapshot), and a
// save/restore/replay cycle must regenerate bit-identical data.

func poolStream() *Stream {
	return NewStream(Window{Lo: 0, Hi: 0x10000}, true, amba.BurstIncr8, amba.Size32, 0, 0, 0)
}

func cloneWords(w []amba.Word) []amba.Word {
	out := make([]amba.Word, len(w))
	copy(out, w)
	return out
}

func TestStreamPoolSnapshotPinsLiveSlice(t *testing.T) {
	s := poolStream()
	for i := 0; i < 4; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended")
		}
	}
	// cur models the master's active transfer at snapshot time: its Data
	// slice must survive arbitrarily many post-snapshot fetches.
	cur, _ := s.Next()
	golden := cloneWords(cur.Data)
	s.Store()

	var replayGolden [][]amba.Word
	for i := 0; i < 40; i++ {
		x, _ := s.Next()
		replayGolden = append(replayGolden, cloneWords(x.Data))
	}
	for i, w := range cur.Data {
		if w != golden[i] {
			t.Fatalf("snapshot-pinned slice overwritten at beat %d: %#x != %#x", i, w, golden[i])
		}
	}

	// Roll back and replay: contents must be bit-identical to the first
	// pass even though the pool may hand out different buffers.
	s.Restore()
	for i := range replayGolden {
		x, _ := s.Next()
		if len(x.Data) != len(replayGolden[i]) {
			t.Fatalf("replay %d: %d beats, want %d", i, len(x.Data), len(replayGolden[i]))
		}
		for j := range x.Data {
			if x.Data[j] != replayGolden[i][j] {
				t.Fatalf("replay %d beat %d: %#x != %#x", i, j, x.Data[j], replayGolden[i][j])
			}
		}
	}
}

func TestStreamPoolBounded(t *testing.T) {
	s := poolStream()
	for i := 0; i < 10000; i++ {
		if i%50 == 0 {
			s.Store()
		}
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended")
		}
	}
	if n := len(s.pool.out) + len(s.pool.free); n > 64 {
		t.Fatalf("pool holds %d buffers after 10k transfers, want a small bound", n)
	}
}

func TestStreamNextAllocFree(t *testing.T) {
	s := poolStream()
	// Engine-shaped consumption: a snapshot every few transfers, an
	// occasional rollback, continuous fetching in between.
	step := func() {
		s.Store()
		for i := 0; i < 5; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatal("stream ended")
			}
		}
		s.Restore()
		for i := 0; i < 7; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatal("stream ended")
			}
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state Stream.Next allocated %.1f objects per save/fetch/restore round, want 0", allocs)
	}
}

func TestDMACopyNextAllocFree(t *testing.T) {
	d := NewDMACopy(Window{Lo: 0, Hi: 0x4000}, Window{Lo: 0x8000, Hi: 0xC000}, amba.BurstIncr8, 0, 0)
	step := func() {
		d.Store()
		for i := 0; i < 6; i++ {
			if _, ok := d.Next(); !ok {
				t.Fatal("dma ended")
			}
		}
		d.Restore()
		for i := 0; i < 8; i++ {
			if _, ok := d.Next(); !ok {
				t.Fatal("dma ended")
			}
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state DMACopy.Next allocated %.1f objects per round, want 0", allocs)
	}
}

func TestDMACopyPoolRollbackIdentity(t *testing.T) {
	d := NewDMACopy(Window{Lo: 0, Hi: 0x4000}, Window{Lo: 0x8000, Hi: 0xC000}, amba.BurstIncr4, 0, 0)
	for i := 0; i < 7; i++ {
		d.Next()
	}
	d.Store()
	var golden [][]amba.Word
	for i := 0; i < 30; i++ {
		x, _ := d.Next()
		golden = append(golden, cloneWords(x.Data))
	}
	d.Restore()
	for i := range golden {
		x, _ := d.Next()
		if len(x.Data) != len(golden[i]) {
			t.Fatalf("replay %d: beat count %d != %d", i, len(x.Data), len(golden[i]))
		}
		for j := range x.Data {
			if x.Data[j] != golden[i][j] {
				t.Fatalf("replay %d beat %d: %#x != %#x", i, j, x.Data[j], golden[i][j])
			}
		}
	}
}
