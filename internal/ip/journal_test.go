package ip

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/rollback"
)

func wordWrite(addr amba.Addr, w amba.Word) amba.AddrPhase {
	return amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstSingle}
}

func TestMemoryJournalRestore(t *testing.T) {
	m := NewSRAM("m")
	m.PokeWord(0x100, 0x11111111)

	m.Store()
	// Overwrite an existing word, create a fresh one, and poke a byte.
	m.WriteCommit(wordWrite(0x100, 0), 0x22222222)
	m.WriteCommit(wordWrite(0x200, 0), 0x33333333)
	m.WriteCommit(amba.AddrPhase{Addr: 0x102, Write: true, Size: amba.Size8}, 0x00AB0000)
	if m.PeekWord(0x100) == 0x11111111 {
		t.Fatal("writes did not land")
	}

	m.Restore()
	if got := m.PeekWord(0x100); got != 0x11111111 {
		t.Fatalf("restored 0x100 = %08x", uint32(got))
	}
	if got := m.PeekWord(0x200); got != 0 {
		t.Fatalf("restored 0x200 = %08x, want pristine 0", uint32(got))
	}
	// Never-written cells must read pristine after the undo.
	for i := amba.Addr(0); i < 4; i++ {
		if b := m.Peek(0x200 + i); b != 0 {
			t.Fatalf("journal restore left ghost byte %02x at %x", b, 0x200+i)
		}
	}
}

// TestMemoryRestoreTwiceRewindsAgain restores one store twice with
// writes in between: the first restore must re-arm the copy-on-write
// stash so the second rewinds the later writes too.
func TestMemoryRestoreTwiceRewindsAgain(t *testing.T) {
	m := NewSRAM("m")
	m.PokeWord(0x100, 1)
	m.Store()
	m.WriteCommit(wordWrite(0x100, 0), 2)
	m.Restore()
	m.WriteCommit(wordWrite(0x100, 0), 3)
	m.WriteCommit(wordWrite(0x2000, 0), 4)
	m.Restore()
	if got := m.PeekWord(0x100); got != 1 {
		t.Fatalf("second restore left 0x100 = %d, want 1", got)
	}
	if got := m.PeekWord(0x2000); got != 0 {
		t.Fatalf("second restore left 0x2000 = %d, want 0", got)
	}
}

func TestMemoryJournalRepeatedTransitions(t *testing.T) {
	// The engine's pattern: store, mutate, sometimes restore, store
	// again. The ground truth is a plain word map with a full copy per
	// store.
	m := NewSRAM("m")
	control, saved := map[amba.Addr]amba.Word{}, map[amba.Addr]amba.Word{}
	copyMap := func(dst, src map[amba.Addr]amba.Word) {
		clear(dst)
		for k, v := range src {
			dst[k] = v
		}
	}
	for round := 0; round < 50; round++ {
		m.Store()
		copyMap(saved, control)
		for i := 0; i < 10; i++ {
			a := amba.Addr(0x100 + 4*((round*7+i*3)%64))
			v := amba.Word(round*100 + i)
			m.WriteCommit(wordWrite(a, 0), v)
			control[a] = v
		}
		if round%3 == 0 {
			m.Restore()
			copyMap(control, saved)
		}
	}
	for a := amba.Addr(0x100); a < 0x200; a += 4 {
		if m.PeekWord(a) != control[a] {
			t.Fatalf("journal and full copy diverge at %x: %08x vs %08x",
				a, uint32(m.PeekWord(a)), uint32(control[a]))
		}
	}
}

// TestMemoryJournalStaleRestorePanics: a memory is restored only
// through its domain's registry, which refuses a superseded store.
func TestMemoryJournalStaleRestorePanics(t *testing.T) {
	var r rollback.Registry
	r.Register("m", NewSRAM("m"), 1)
	old := r.Store()
	r.Store() // newer store invalidates old
	defer func() {
		if recover() == nil {
			t.Fatal("stale journal restore must panic")
		}
	}()
	r.Restore(old)
}
