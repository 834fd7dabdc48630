// Package predict implements the signal predictors of the paper's §3:
//
//   - address/control of the active bus master: burst continuation
//     ("their values either increase linearly over time or remain
//     constant throughout a single burst transaction"),
//   - responses of the active bus slave: a producer-consumer wait-state
//     model, or an exact mirror of a RETRY/SPLIT memory (its replies and
//     HSPLITx releases),
//   - arbitration requests and interrupt lines: last-value prediction,
//
// plus a fault injector used by the evaluation harness to pin prediction
// accuracy to an exact probability, the way the paper's Table 2 and
// Figure 4 sweep it.
//
// Read data and write data are deliberately absent: the paper classifies
// them as non-predictable, and the scheme instead chooses the data
// *source* domain as leader so data only flows leader→lagger.
//
// Predictors and injectors are single-goroutine state machines, driven
// by the engine's sequential cycle loop.
package predict

import (
	"fmt"
	"math"

	"coemu/internal/amba"
	"coemu/internal/rng"
)

// Unbounded is the quiescence horizon of a predictor whose output is
// provably stable forever (until something other than the passage of
// idle cycles perturbs it). Callers min it against their own bounds.
const Unbounded = int64(math.MaxInt64)

// LastValue predicts a bitmask signal group (bus requests, interrupt
// lines) as "same as last observed". In SoC designs where data flows in
// long bursts, "the arbitration result tends to change only occasionally
// and we can effectively predict its value from its previous one" (§3).
type LastValue struct {
	v     uint32
	saved uint32 // rollback shadow
}

// Predict returns the predicted value.
func (l *LastValue) Predict() uint32 { return l.v }

// Observe records the actual value.
func (l *LastValue) Observe(v uint32) { l.v = v }

// Store implements rollback.Component.
func (l *LastValue) Store() { l.saved = l.v }

// Restore implements rollback.Component.
func (l *LastValue) Restore() { l.v = l.saved }

// BurstTracker predicts the address/control signals of a remote bus
// master by extrapolating its current burst. A prediction is only
// offered mid-burst; at burst boundaries the tracker declines (the
// start-of-burst values must genuinely cross the channel) — unless the
// extensions below are enabled.
//
// Extensions beyond the paper:
//
//   - PredictIdle: an idle master is predicted to stay idle, letting the
//     leader run ahead through bus-idle stretches at the cost of one
//     rollback whenever the master wakes up.
//   - PredictStarts: after a burst completes, the next burst's start is
//     predicted by stride extrapolation over observed NONSEQ addresses,
//     letting streaming leaders run ahead across burst boundaries.
//
// A master that loses its burst rebuilds it (AMBA 2.0 §3.5.2, §3.12):
// after losing the grant mid-burst it re-issues the remaining beats as
// NONSEQ, burst INCR, from the next address, and after a RETRY or
// SPLIT it re-issues the failed beat the same way. LoseGrant and
// Reissue record those events; the rebuilt remainder keeps the burst's
// beat count and the original burst's address sequence.
type BurstTracker struct {
	// PredictIdle predicts IDLE continuation for an idle master.
	PredictIdle bool
	// PredictStarts predicts the next NONSEQ by stride extrapolation.
	PredictStarts bool

	st    burstState
	saved burstState // rollback shadow
}

type burstState struct {
	Valid     bool
	Last      amba.AddrPhase
	Remaining int // beats after Last; -1 = INCR (unbounded)

	// Burst rebuilds: Restart marks a pending re-issue (of Last itself
	// when RetryLast, else of the beat after it); Restarted marks a
	// burst continuing as a re-issued INCR remainder, whose addresses
	// follow Orig, the burst type its NONSEQ started with.
	Restart   bool
	RetryLast bool
	Restarted bool
	Orig      amba.Burst

	// Stride extrapolation over burst starts.
	LastStart amba.AddrPhase
	HasStart  bool
	Stride    amba.Addr
	HasStride bool

	// Inter-burst gap tracking: how many IDLE cycles the master spends
	// between the last beat of a burst and the next NONSEQ.
	Ended   bool // a burst completed; counting the idle run
	IdleRun int
	GapLen  int
	HasGap  bool
}

// Observe feeds the actual address phase driven by the tracked master on
// a cycle whose HREADY was high (phases only advance on ready cycles;
// during wait states the held value carries no new information).
func (t *BurstTracker) Observe(ap amba.AddrPhase) {
	switch ap.Trans {
	case amba.TransNonSeq:
		if (t.st.Restart || t.st.Restarted) && t.rebuilds(ap) {
			return
		}
		t.st.Valid = true
		t.st.Last = ap
		t.st.Restart, t.st.RetryLast, t.st.Restarted = false, false, false
		t.st.Orig = ap.Burst
		if beats := ap.Burst.Beats(); beats > 0 {
			t.st.Remaining = beats - 1
		} else {
			t.st.Remaining = -1
		}
		if t.st.HasStart {
			// Last-stride predictor: one inter-start distance is
			// enough; a changed stride self-corrects after the
			// rollback the change causes.
			t.st.Stride = ap.Addr - t.st.LastStart.Addr
			t.st.HasStride = true
		}
		t.st.LastStart = ap
		t.st.HasStart = true
		if t.st.Ended {
			t.st.GapLen = t.st.IdleRun
			t.st.HasGap = true
			t.st.Ended = false
		}
		t.st.IdleRun = 0
		if ap.Burst == amba.BurstSingle {
			t.st.Ended = true
		}
	case amba.TransSeq:
		t.st.Last = ap
		t.advance()
	case amba.TransBusy:
		// The burst is paused; nothing advances.
	case amba.TransIdle:
		t.st.Valid = false
		if t.st.Ended {
			t.st.IdleRun++
		}
	}
}

// rebuilds reports whether NONSEQ ap is the predicted beat of a
// rebuilt remainder (or a wrap point inside one) and, if so, observes
// it: the burst goes on with its beat count, a re-issued failed beat
// counting once.
func (t *BurstTracker) rebuilds(ap amba.AddrPhase) bool {
	if next, ok := t.continuation(); !ok || ap != next {
		return false
	}
	if t.st.RetryLast && t.st.Remaining >= 0 {
		t.st.Remaining++
	}
	t.advance()
	t.st.Valid = true
	t.st.Last = ap
	t.st.Restart, t.st.RetryLast, t.st.Restarted = false, false, true
	return true
}

// advance counts one more beat of the current burst.
func (t *BurstTracker) advance() {
	if t.st.Remaining > 0 {
		t.st.Remaining--
	}
	if t.st.Remaining == 0 {
		t.st.Ended = true
		t.st.IdleRun = 0
	}
}

// LoseGrant records a ready edge after which the tracked master no
// longer owns the address phase. With beats of its burst left, the
// master will re-issue them when it is granted again.
func (t *BurstTracker) LoseGrant() {
	if !t.st.Restart && t.st.Valid && t.st.Last.Trans.Active() && t.st.Remaining != 0 {
		t.st.Restart = true
	}
}

// Reissue records a RETRY or SPLIT that failed the tracked master's
// beat in the data phase — the last beat it issued — which it will
// issue again.
func (t *BurstTracker) Reissue() {
	t.st.Restart, t.st.RetryLast = true, true
}

// continuation returns the next beat of the current burst: a pending
// re-issue, or the successor of Last while beats remain. The successor
// of a re-issued remainder is SEQ unless the original burst wraps
// there, where the master must start a fresh NONSEQ.
func (t *BurstTracker) continuation() (amba.AddrPhase, bool) {
	next := t.st.Last
	if t.st.Restart {
		if !t.st.RetryLast {
			next.Addr = amba.NextAddr(next.Addr, next.Size, t.st.Orig)
		}
		next.Trans, next.Burst = amba.TransNonSeq, amba.BurstIncr
		return next, true
	}
	if !t.st.Valid || !t.st.Last.Trans.Active() || t.st.Remaining == 0 {
		return amba.AddrPhase{}, false
	}
	next.Addr = amba.NextAddr(next.Addr, next.Size, t.st.Orig)
	next.Trans = amba.TransSeq
	if t.st.Restarted && next.Addr != t.st.Last.Addr+amba.Addr(next.Size.Bytes()) {
		next.Trans = amba.TransNonSeq
	}
	return next, true
}

// Predict returns the predicted next address phase and whether a
// confident prediction exists. Mid-burst it predicts the SEQ successor,
// and after a lost burst its NONSEQ INCR re-issue.
// After the final beat of a fixed-length burst it predicts the next
// burst start by stride (when PredictStarts is enabled and a stride is
// known) or IDLE. With no burst context it predicts IDLE continuation
// when PredictIdle is enabled; otherwise it declines.
func (t *BurstTracker) Predict() (amba.AddrPhase, bool) {
	// nextStart predicts the upcoming NONSEQ by stride when the
	// observed inter-burst idle gap has elapsed.
	nextStart := func() (amba.AddrPhase, bool) {
		if !t.PredictStarts || !t.st.HasStride || !t.st.HasGap || t.st.IdleRun < t.st.GapLen {
			return amba.AddrPhase{}, false
		}
		next := t.st.LastStart
		next.Addr = t.st.LastStart.Addr + t.st.Stride
		next.Trans = amba.TransNonSeq
		return next, true
	}

	if next, ok := t.continuation(); ok {
		return next, true
	}
	if !t.st.Valid || !t.st.Last.Trans.Active() {
		// Master is idle. Predict the next burst start once the gap is
		// due. While inside a learned gap the IDLE cycles themselves
		// are confident predictions (the gap model covers them), so
		// PredictStarts alone rides through known gaps.
		if ap, ok := nextStart(); ok {
			return ap, true
		}
		if t.PredictStarts && t.st.Ended && t.st.HasGap && t.st.IdleRun < t.st.GapLen {
			return amba.AddrPhase{}, true
		}
		if t.PredictIdle {
			return amba.AddrPhase{}, true
		}
		return amba.AddrPhase{}, false
	}
	// Fixed-length burst exhausted: the only legal continuations are
	// IDLE or a new NONSEQ. With a known zero gap the next start
	// follows immediately; otherwise IDLE is the right call for the
	// boundary cycle.
	if ap, ok := nextStart(); ok {
		return ap, true
	}
	return amba.AddrPhase{}, true
}

// IdleStableFor reports for how many further idle-observed cycles the
// tracker's Predict outcome (both the predicted value and the
// confident/declined verdict) is guaranteed not to change. It is
// meaningful right after an idle observation (the tracked master drove
// TransIdle on the last ready cycle); a tracker still inside a burst
// returns 0. The only idle-time state the tracker evolves is the
// inter-burst gap counter, so the horizon is the remaining learned gap
// when the gap model is armed and Unbounded otherwise.
func (t *BurstTracker) IdleStableFor() int64 {
	if t.st.Valid && t.st.Last.Trans.Active() {
		return 0
	}
	if t.PredictStarts && t.st.Ended && t.st.HasGap {
		r := int64(t.st.GapLen - t.st.IdleRun)
		if r < 0 {
			r = 0
		}
		return r
	}
	return Unbounded
}

// SkipIdle applies n idle observations in one step: the state after
// SkipIdle(n) is bit-identical to n sequential Observe calls with an
// IDLE address phase. Used by the engine's predicted-quiescence
// batching; callers single-step the cycle that wakes the master.
func (t *BurstTracker) SkipIdle(n int64) {
	t.st.Valid = false
	if t.st.Ended {
		t.st.IdleRun += int(n)
	}
}

// Store implements rollback.Component.
func (t *BurstTracker) Store() { t.saved = t.st }

// Restore implements rollback.Component.
func (t *BurstTracker) Restore() { t.st = t.saved }

// WaitModel predicts a slave's HREADY sequence with the same
// producer-consumer wait machinery the deterministic memory slaves run:
// the first beat of a run costs First wait states, later beats cost
// Next. Predict is side-effect-free; Observe is the model's only state
// transition, once per committed data-phase cycle, exactly as the
// slave's own Respond/Commit pair advances it. That keeps the model in
// phase however often the engine predicts a cycle (the leader choice
// probes it, the run-ahead predicts it again) and makes roll-forth,
// which replays only Observe, restore it exactly.
type WaitModel struct {
	First, Next int

	st    waitState
	saved waitState // rollback shadow
}

type waitState struct {
	InBurst  bool
	WaitLeft int // -1 = no beat in progress
}

// NewWaitModel creates a wait model mirroring a slave with the given
// deterministic profile.
func NewWaitModel(first, next int) *WaitModel {
	return &WaitModel{First: first, Next: next, st: waitState{WaitLeft: -1}}
}

// waitLeft returns the wait states the beat in the data phase still
// owes, starting a fresh countdown when no beat is in progress.
func (w *WaitModel) waitLeft() int {
	switch {
	case w.st.WaitLeft >= 0:
		return w.st.WaitLeft
	case w.st.InBurst:
		return w.Next
	default:
		return w.First
	}
}

// Predict returns the predicted HREADY for the beat currently in the
// data phase: ready once the beat owes no more wait states.
func (w *WaitModel) Predict() bool { return w.waitLeft() == 0 }

// Observe advances the model by the actual HREADY of a data-phase cycle.
func (w *WaitModel) Observe(ready bool) {
	if ready {
		w.st.WaitLeft = -1
		w.st.InBurst = true
		return
	}
	w.st.WaitLeft = max(w.waitLeft()-1, 0)
}

// Store implements rollback.Component.
func (w *WaitModel) Store() { w.saved = w.st }

// Restore implements rollback.Component.
func (w *WaitModel) Restore() { w.st = w.saved }

// ReplyModel mirrors a memory slave that answers the first attempt of
// every Every-th beat with a two-cycle RETRY or SPLIT (ip.RetryMemory,
// ip.SplitMemory): the beat count, the two-cycle reply, re-acceptance
// of the reissued beat, the memory's own wait states and, for SPLIT,
// the HSPLITx release countdown. Like WaitModel, Predict and Split are
// side-effect-free and Observe is the only state transition, once per
// committed cycle, mirroring the slave's Respond/Commit pair and its
// clock tick.
type ReplyModel struct {
	// Resp is the failing reply: amba.RespRetry or amba.RespSplit.
	Resp amba.Resp
	// Every is the beat cadence of the failing reply (>= 1).
	Every int
	// ReleaseAfter is the SPLIT release countdown armed by the ready
	// SPLIT cycle.
	ReleaseAfter int

	wait  WaitModel // the memory's HREADY machine, one profile for every beat
	st    replyState
	saved replyState // rollback shadow
}

type replyState struct {
	Beats     int64 // completed beats
	Failing   bool  // the first cycle of the two-cycle reply was driven
	Reissued  bool  // the next beat is a reissue and is accepted
	Countdown int   // cycles until the HSPLITx release; -1 idle
	Master    int   // master the release frees
	Release   uint32
}

// NewRetryModel mirrors ip.NewRetryMemory(_, waits, every).
func NewRetryModel(waits, every int) *ReplyModel {
	return newReplyModel(amba.RespRetry, waits, every, 0)
}

// NewSplitModel mirrors ip.NewSplitMemory(_, waits, every, releaseAfter).
func NewSplitModel(waits, every, releaseAfter int) *ReplyModel {
	return newReplyModel(amba.RespSplit, waits, every, releaseAfter)
}

func newReplyModel(resp amba.Resp, waits, every, releaseAfter int) *ReplyModel {
	if every < 1 || releaseAfter < 0 {
		panic(fmt.Sprintf("predict: reply model every=%d releaseAfter=%d", every, releaseAfter))
	}
	return &ReplyModel{
		Resp: resp, Every: every, ReleaseAfter: releaseAfter,
		wait: *NewWaitModel(waits, waits),
		st:   replyState{Countdown: -1},
	}
}

// Predict returns the predicted reply to the beat in the data phase.
func (m *ReplyModel) Predict() amba.SlaveReply {
	switch {
	case m.st.Failing:
		return amba.SlaveReply{Ready: true, Resp: m.Resp}
	case !m.st.Reissued && (m.st.Beats+1)%int64(m.Every) == 0:
		return amba.SlaveReply{Ready: false, Resp: m.Resp}
	}
	return amba.SlaveReply{Ready: m.wait.Predict(), Resp: amba.RespOkay}
}

// Split returns the HSPLITx lines the slave raises in the upcoming
// cycle: a release pulse lasts exactly the one cycle after the
// countdown expires.
func (m *ReplyModel) Split() uint32 { return m.st.Release }

// Observe advances the model over one committed cycle. owned reports
// that the slave held the data phase, with reply r to master's beat.
func (m *ReplyModel) Observe(owned bool, r amba.SlaveReply, master int) {
	// That cycle's evaluate consumed any raised release line.
	m.st.Release = 0
	if owned {
		switch {
		case r.Resp == m.Resp && !r.Ready:
			m.st.Failing = true
		case r.Resp == m.Resp:
			m.st.Failing = false
			m.st.Reissued = true
			if m.Resp == amba.RespSplit {
				m.st.Countdown, m.st.Master = m.ReleaseAfter, master
			}
		case r.Ready:
			m.st.Beats++
			m.st.Reissued = false
			m.wait.Observe(true)
		default:
			m.wait.Observe(false)
		}
	}
	// The release countdown runs on every target cycle.
	switch {
	case m.st.Countdown < 0:
	case m.st.Countdown == 0:
		m.st.Release |= 1 << uint(m.st.Master)
		m.st.Countdown = -1
	default:
		m.st.Countdown--
	}
}

// IdleStableFor reports for how many further cycles without a data
// phase on the slave Split keeps its current value: none while a
// release is raised, the remaining countdown while one is armed.
func (m *ReplyModel) IdleStableFor() int64 {
	switch {
	case m.st.Release != 0:
		return 0
	case m.st.Countdown < 0:
		return Unbounded
	}
	return int64(m.st.Countdown)
}

// SkipIdle applies n Observe calls for cycles without a data phase on
// the slave in one step, bit-identically.
func (m *ReplyModel) SkipIdle(n int64) {
	if n <= 0 {
		return
	}
	m.st.Release = 0
	switch c := int64(m.st.Countdown); {
	case c < 0:
	case n <= c:
		m.st.Countdown -= int(n)
	case n == c+1:
		m.st.Release = 1 << uint(m.st.Master)
		m.st.Countdown = -1
	default:
		// Raised and consumed inside the stretch.
		m.st.Countdown = -1
	}
}

// Store implements rollback.Component.
func (m *ReplyModel) Store() {
	m.wait.Store()
	m.saved = m.st
}

// Restore implements rollback.Component.
func (m *ReplyModel) Restore() {
	m.wait.Restore()
	m.st = m.saved
}

// FaultInjector pins prediction accuracy for the evaluation sweeps: each
// checked prediction is declared wrong with probability 1-p, regardless
// of its real outcome. Injection happens at the lagger's check, so the
// committed behavior stays correct while the full rollback/roll-forth
// cost is paid — exactly the quantity the paper's model measures.
type FaultInjector struct {
	p      float64
	r      *rng.Source
	checks int64
	faults int64
}

// NewFaultInjector creates an injector with per-check success
// probability p in [0,1]. p=1 never injects; p=0 fails every check.
func NewFaultInjector(p float64, seed uint64) *FaultInjector {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("predict: accuracy %v out of [0,1]", p))
	}
	return &FaultInjector{p: p, r: rng.New(seed)}
}

// Mispredict reports whether the current check must be treated as a
// prediction failure.
func (f *FaultInjector) Mispredict() bool {
	f.checks++
	if f.r.Bool(1 - f.p) {
		f.faults++
		return true
	}
	return false
}

// Stats returns checks performed and faults injected.
func (f *FaultInjector) Stats() (checks, faults int64) { return f.checks, f.faults }

// Accuracy returns the configured success probability.
func (f *FaultInjector) Accuracy() float64 { return f.p }
