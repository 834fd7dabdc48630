package rollback

import (
	"testing"
	"time"
)

// counter is a Component test double: an integer with its shadow.
type counter struct{ n, saved int }

func (c *counter) Store()   { c.saved = c.n }
func (c *counter) Restore() { c.n = c.saved }

func TestRegistrySaveRestore(t *testing.T) {
	var r Registry
	a, b := &counter{n: 1}, &counter{n: 2}
	r.Register("a", a, 10)
	r.Register("b", b, 20)
	if r.Vars() != 30 {
		t.Fatalf("Vars = %d", r.Vars())
	}
	if r.Components() != 2 {
		t.Fatalf("Components = %d", r.Components())
	}
	snap := r.Store()
	a.n, b.n = 100, 200
	r.Restore(snap)
	if a.n != 1 || b.n != 2 {
		t.Fatalf("restore gave %d,%d", a.n, b.n)
	}
}

func TestRegistryNilPanics(t *testing.T) {
	var r Registry
	defer func() {
		if recover() == nil {
			t.Fatal("nil component must panic")
		}
	}()
	r.Register("x", nil, 0)
}

func TestRegistryNegativeVarsPanics(t *testing.T) {
	var r Registry
	defer func() {
		if recover() == nil {
			t.Fatal("negative vars must panic")
		}
	}()
	r.Register("x", &counter{}, -1)
}

func TestRestoreTopologyMismatchPanics(t *testing.T) {
	var r Registry
	r.Register("a", &counter{}, 1)
	snap := r.Store()
	r.Register("b", &counter{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("topology mismatch must panic")
		}
	}()
	r.Restore(snap)
}

func TestHardwareCostFlat(t *testing.T) {
	m := HardwareCost()
	if m.StoreCost(0) != m.StoreCost(100000) {
		t.Error("hardware store cost must not depend on variable count")
	}
	if m.StoreCost(1000) != 15*time.Nanosecond {
		t.Errorf("hardware store = %v", m.StoreCost(1000))
	}
	if m.RestoreCost(1000) != 29*time.Nanosecond {
		t.Errorf("hardware restore = %v", m.RestoreCost(1000))
	}
}

func TestSoftwareCostLinear(t *testing.T) {
	m := SoftwareCost()
	// 1000 vars at 4.7 ns/var = 4.7 µs + 100 ns base.
	want := 4700*time.Nanosecond + 100*time.Nanosecond
	if got := m.StoreCost(1000); got != want {
		t.Errorf("software store(1000) = %v, want %v", got, want)
	}
	if m.StoreCost(2000) <= m.StoreCost(1000) {
		t.Error("software store cost must grow with variable count")
	}
}

// TestSnapshotIndependent pins the shadow discipline: a store is
// independent of later changes to the live state, so it may be restored
// any number of times, and a store taken after a restore starts a new
// interval that restores to itself.
func TestSnapshotIndependent(t *testing.T) {
	var r Registry
	c := &counter{n: 5}
	r.Register("c", c, 1)
	s1 := r.Store()
	for i := 0; i < 3; i++ {
		c.n = 100 + i
		r.Restore(s1)
		if c.n != 5 {
			t.Fatalf("restore %d gave %d, want 5", i, c.n)
		}
	}
	c.n = 6
	s2 := r.Store()
	c.n = 7
	r.Restore(s2)
	if c.n != 6 {
		t.Fatalf("store after restore gave %d, want 6", c.n)
	}
}

// TestIncrementalStaleRestorePanics: each Store supersedes the one
// before it, whose handle may no longer be restored.
func TestIncrementalStaleRestorePanics(t *testing.T) {
	var r Registry
	r.Register("c", &counter{}, 1)
	old := r.Store()
	r.Store()
	defer func() {
		if recover() == nil {
			t.Fatal("stale restore must panic")
		}
	}()
	r.Restore(old)
}

// TestIncrementalForeignRegistryPanics: a handle restores only into
// the registry that stored it.
func TestIncrementalForeignRegistryPanics(t *testing.T) {
	var r1, r2 Registry
	r1.Register("c", &counter{}, 1)
	r2.Register("c", &counter{}, 1)
	s := r1.Store()
	r2.Store()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-registry restore must panic")
		}
	}()
	r2.Restore(s)
}

func TestZeroSnapshotRestorePanics(t *testing.T) {
	var r Registry
	r.Register("c", &counter{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("restoring a handle no Store produced must panic")
		}
	}()
	r.Restore(Snapshot{})
}
