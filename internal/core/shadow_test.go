package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/core"
	"coemu/internal/ip"
	"coemu/internal/rng"
	"coemu/internal/rollback"
	"coemu/internal/spec"
	"coemu/internal/vclock"
)

// domainState is everything a domain exposes about its registered
// state without running a cycle: clock, bus pipeline, predictor (deep,
// shadows included), every local master's progress and beat log, and
// the quiescence and prediction verdicts derived from all components.
type domainState struct {
	Now, Quiescent, Stable int64
	BusCycle               int64
	Grant                  int
	DPValid                bool
	DPAP                   amba.AddrPhase
	DPMaster, DPSlave      int
	SplitMasked            uint32
	Pred                   any
	Prediction             amba.PartialState
	Decline                core.DeclineReason
	Masters                []masterState
}

type masterState struct {
	Beats, Retries, Errors int64
	Idle                   bool
	Quiescent              int64
	Log                    []ip.BeatResult
}

func captureDomain(d *core.Domain) domainState {
	b := d.Bus()
	s := domainState{
		Now: d.Now(), Quiescent: d.QuiescentCycles(), Stable: d.PredictionStableCycles(),
		BusCycle: b.Cycle(), Grant: b.Grant(), SplitMasked: b.SplitMasked(),
		Pred: d.PredictorSnapshot(),
	}
	s.DPValid, s.DPAP, s.DPMaster, s.DPSlave = b.DataPhase()
	s.Decline = d.PredictInto(&s.Prediction)
	for _, m := range d.Masters() {
		var ms masterState
		ms.Beats, ms.Retries, ms.Errors = m.Stats()
		ms.Idle, ms.Quiescent = m.Idle(), m.QuiescentCycles()
		if log := m.Log(); len(log) > 0 { // an emptied log compares equal to none
			ms.Log = slices.Clone(log)
		}
		s.Masters = append(s.Masters, ms)
	}
	return s
}

// peeker is every example slave with readable storage.
type peeker interface {
	PeekWord(amba.Addr) amba.Word
}

// lockstep is an example design's two domains driven as one unsplit
// system: each cycle both evaluate, then each commits the other's
// contribution. mems collects the design's memories as the engine
// builds them.
type lockstep struct {
	dom  [2]*core.Domain
	mems []peeker
	led  vclock.Ledger
}

func newLockstep(t *testing.T, name string) *lockstep {
	t.Helper()
	s, err := spec.Load(filepath.Join("..", "..", "examples", name, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	l := &lockstep{}
	for i := range d.Slaves {
		build := d.Slaves[i].New
		d.Slaves[i].New = func() bus.Slave {
			s := build()
			if p, ok := s.(peeker); ok {
				l.mems = append(l.mems, p)
			}
			return s
		}
	}
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.dom = [2]*core.Domain{e.Domain(core.SimDomain), e.Domain(core.AccDomain)}
	return l
}

// cycleRecord is one committed lockstep cycle: both contributions and
// the merged MSABS record.
type cycleRecord struct {
	Out  [2]amba.PartialState
	Full amba.CycleState
}

func (l *lockstep) run(t *testing.T, n int) []cycleRecord {
	t.Helper()
	recs := make([]cycleRecord, n)
	for i := range recs {
		r := &recs[i]
		l.dom[0].EvaluateInto(&l.led, &r.Out[0])
		l.dom[1].EvaluateInto(&l.led, &r.Out[1])
		r.Full = *l.dom[0].CommitFrom(&r.Out[1])
		if acc := l.dom[1].CommitFrom(&r.Out[0]); *acc != r.Full {
			t.Fatalf("domains diverged:\nsim: %s\nacc: %s", r.Full, acc)
		}
	}
	return recs
}

func (l *lockstep) store() [2]rollback.Snapshot {
	return [2]rollback.Snapshot{
		l.dom[0].Snapshot(&l.led, l.dom[0].Vars()),
		l.dom[1].Snapshot(&l.led, l.dom[1].Vars()),
	}
}

func (l *lockstep) restore(s [2]rollback.Snapshot) {
	l.dom[0].Rollback(&l.led, l.dom[0].Vars(), s[0])
	l.dom[1].Rollback(&l.led, l.dom[1].Vars(), s[1])
}

func (l *lockstep) capture() [2]domainState {
	return [2]domainState{captureDomain(l.dom[0]), captureDomain(l.dom[1])}
}

// writtenWords returns the word addresses of the write beats in recs.
func writtenWords(recs []cycleRecord) []amba.Addr {
	var as []amba.Addr
	for _, r := range recs {
		if ap := r.Full.AP; ap.Write && ap.Trans.Active() {
			as = append(as, ap.Addr&^3)
		}
	}
	return as
}

// TestShadowStoreRestoreProperty checks the registry's shadow semantics
// on the real components of every example design. Two engines of the
// design run in lockstep, one (ref) never rolling back. The other takes
// random excursions between interleaved stores and restores, and
// checks that:
//   - every restore returns each domain's observable state to exactly
//     what it was at the last store, and every word the excursion wrote
//     to what ref holds;
//   - the cycles committed after a restore equal the excursion's and
//     ref's, so restored state also behaves identically;
//   - one store may be restored repeatedly, and a store taken right
//     after a restore round-trips the same way;
//   - restoring a superseded handle panics and moves nothing.
func TestShadowStoreRestoreProperty(t *testing.T) {
	for _, name := range []string{"dma-stream", "multimaster", "quickstart", "rollback-storm", "split-latency"} {
		t.Run(name, func(t *testing.T) {
			l, ref := newLockstep(t, name), newLockstep(t, name)
			r := rng.New(17)
			checkRestore := func(s [2]rollback.Snapshot, want [2]domainState, excursion []cycleRecord, what string) {
				t.Helper()
				l.restore(s)
				if got := l.capture(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: restored state differs from the store:\ngot:  %+v\nwant: %+v", what, got, want)
				}
				for _, a := range writtenWords(excursion) {
					for i, m := range l.mems {
						if got, want := m.PeekWord(a), ref.mems[i].PeekWord(a); got != want {
							t.Fatalf("%s: memory %d word %#x restored to %#x, want %#x", what, i, a, got, want)
						}
					}
				}
			}
			var stale [2]rollback.Snapshot
			haveStale := false
			for round := 0; round < 40; round++ {
				n := r.Intn(30) // move both engines to a fresh store point
				l.run(t, n)
				ref.run(t, n)
				s := l.store()
				want := l.capture()
				if haveStale {
					mustPanic(t, "restore of a superseded store", func() { l.restore(stale) })
					if got := l.capture(); !reflect.DeepEqual(got, want) {
						t.Fatal("a refused stale restore moved the domains")
					}
				}
				n = 1 + r.Intn(60)
				excursion := l.run(t, n)
				what := fmt.Sprintf("round %d", round)
				checkRestore(s, want, excursion, what)
				if r.Bool(0.5) {
					// Restore the same store again after running on.
					checkRestore(s, want, l.run(t, 1+r.Intn(60)), what+", second restore")
				}
				replay := l.run(t, n)
				checkRestore(s, want, replay, what+", after replay")
				// A store right after a restore round-trips too.
				s2 := l.store()
				want2 := l.capture()
				checkRestore(s2, want2, l.run(t, 1+r.Intn(60)), what+", store after restore")
				truth, again := ref.run(t, n), l.run(t, n)
				if !slices.Equal(replay, excursion) || !slices.Equal(truth, excursion) || !slices.Equal(again, excursion) {
					t.Fatalf("%s: the cycles after a restore differ from the excursion or the reference", what)
				}
				stale, haveStale = s2, true
			}
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	f()
}
