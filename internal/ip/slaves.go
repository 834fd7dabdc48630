package ip

import (
	"math"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/rng"
)

// Memory pages. Storage is a sparse table of lazily-allocated 4 KB
// pages rather than a byte map: a word-aligned access never crosses a
// page, so a beat costs one table lookup plus array indexing instead of
// four map operations — the difference between the bus hot loop being
// map-bound and memory access being noise.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// memPage is one 4 KB page plus its stash mark: stamp equals the
// memory's current store sequence exactly when the page has already
// been copy-on-write stashed in the current store interval, so each
// write costs one compare instead of a journal append and only touched
// pages are ever copied.
type memPage struct {
	data  [pageSize]byte
	stamp uint64
}

// Memory is a byte-addressable memory slave with a configurable,
// deterministic wait-state profile: the first beat of a data-phase
// sequence costs firstWait cycles, subsequent back-to-back beats cost
// nextWait. With both zero it behaves as a zero-wait SRAM; with
// firstWait > nextWait it approximates an SDRAM row hit/miss pattern.
//
// Deterministic wait profiles are what makes slave responses
// "predictable" in the paper's sense: the leader-side response predictor
// runs the same producer-consumer model and stays at 100 % accuracy.
type Memory struct {
	name      string
	firstWait int
	nextWait  int

	pages map[amba.Addr]*memPage // key: addr >> pageShift
	memCtrl
	saved memCtrl // rollback shadow of memCtrl

	// The page table's shadow is a copy-on-write journal: the first
	// write to a page after a Store stashes the page's prior content,
	// and Restore copies the stashes back — O(pages touched since the
	// store) rather than O(footprint). Store seals the interval in O(1).
	undo     []pageUndo
	undoFree []*memPage
	storeSeq uint64
}

// pageUndo is one copy-on-write stash: the content a page held when
// the current store interval began.
type pageUndo struct {
	key amba.Addr // page key (addr >> pageShift)
	old *memPage
}

// memCtrl is the memory's non-page registered state.
type memCtrl struct {
	waitLeft int
	inBurst  bool
	reads    int64
	writes   int64
}

var _ bus.Slave = (*Memory)(nil)

// NewMemory creates a memory slave.
func NewMemory(name string, firstWait, nextWait int) *Memory {
	if firstWait < 0 || nextWait < 0 {
		panic("ip: negative wait states")
	}
	return &Memory{
		name:      name,
		firstWait: firstWait,
		nextWait:  nextWait,
		pages:     make(map[amba.Addr]*memPage),
		memCtrl:   memCtrl{waitLeft: -1},
	}
}

// NewSRAM creates a zero-wait memory.
func NewSRAM(name string) *Memory { return NewMemory(name, 0, 0) }

// Name implements bus.Slave.
func (s *Memory) Name() string { return s.name }

// Stats returns completed read and write beats.
func (s *Memory) Stats() (reads, writes int64) { return s.reads, s.writes }

// pageFor returns the page containing a, lazily allocating it when
// create is set (nil otherwise).
func (s *Memory) pageFor(a amba.Addr, create bool) *memPage {
	p := s.pages[a>>pageShift]
	if p == nil && create {
		p = new(memPage)
		s.pages[a>>pageShift] = p
	}
	return p
}

// Peek reads one byte directly, for test inspection.
func (s *Memory) Peek(a amba.Addr) byte {
	p := s.pageFor(a, false)
	if p == nil {
		return 0
	}
	return p.data[a&pageMask]
}

// PokeWord writes a 32-bit word at a word-aligned address.
func (s *Memory) PokeWord(a amba.Addr, w amba.Word) {
	a &^= 3
	p := s.pageFor(a, true)
	s.stash(a, p)
	off := a & pageMask
	for i := 0; i < 4; i++ {
		p.data[off+amba.Addr(i)] = byte(w >> (8 * uint(i)))
	}
}

// PeekWord reads a 32-bit word at a word-aligned address.
func (s *Memory) PeekWord(a amba.Addr) amba.Word {
	a &^= 3
	p := s.pageFor(a, false)
	if p == nil {
		return 0
	}
	off := a & pageMask
	var w amba.Word
	for i := 0; i < 4; i++ {
		w |= amba.Word(p.data[off+amba.Addr(i)]) << (8 * uint(i))
	}
	return w
}

// stash copy-on-write saves page p (holding address a) into the
// current store interval's undo list unless it is already there. It is
// a no-op before the first Store — writes that can never be rolled
// across must not grow an unbounded undo list.
func (s *Memory) stash(a amba.Addr, p *memPage) {
	if s.storeSeq == 0 || p.stamp == s.storeSeq {
		return
	}
	var buf *memPage
	if k := len(s.undoFree); k > 0 {
		buf = s.undoFree[k-1]
		s.undoFree = s.undoFree[:k-1]
	} else {
		buf = new(memPage)
	}
	*buf = *p
	s.undo = append(s.undo, pageUndo{key: a >> pageShift, old: buf})
	p.stamp = s.storeSeq
}

// waits returns the wait-state budget for a new beat.
func (s *Memory) waits() int {
	if s.inBurst {
		return s.nextWait
	}
	return s.firstWait
}

// Respond implements bus.Slave. The reply is a function of the slave's
// own state only (never of write data), which is what makes leader-side
// response prediction sound.
func (s *Memory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if s.waitLeft < 0 {
		s.waitLeft = s.waits()
	}
	if s.waitLeft > 0 {
		s.waitLeft--
		return amba.SlaveReply{Ready: false, Resp: amba.RespOkay}
	}
	// Beat completes this cycle.
	reply := amba.SlaveReply{Ready: true, Resp: amba.RespOkay}
	if ap.Write {
		s.writes++
	} else {
		reply.RData = ExtractLanes(s.PeekWord(ap.Addr&^3), ap.Addr, ap.Size)
		s.reads++
	}
	return reply
}

// WriteCommit implements bus.Slave: the completing write beat's data
// lands in memory at the clock edge.
func (s *Memory) WriteCommit(ap amba.AddrPhase, wdata amba.Word) {
	base := ap.Addr &^ 3
	m := laneMask(ap.Addr, ap.Size)
	p := s.pageFor(base, true)
	s.stash(base, p)
	off := base & pageMask
	for i := 0; i < 4; i++ {
		if m&(0xff<<(8*uint(i))) != 0 {
			p.data[off+amba.Addr(i)] = byte(wdata >> (8 * uint(i)))
		}
	}
}

// recycleUndo empties the undo list, returning page buffers to the
// free list.
func (s *Memory) recycleUndo() {
	for i := range s.undo {
		s.undoFree = append(s.undoFree, s.undo[i].old)
		s.undo[i].old = nil
	}
	s.undo = s.undo[:0]
}

// Commit implements bus.Slave.
func (s *Memory) Commit(ready bool) {
	if ready {
		s.waitLeft = -1
		s.inBurst = true
	}
}

// Store implements rollback.Component: it shadows the control state
// and seals the copy-on-write interval in O(1).
func (s *Memory) Store() {
	s.recycleUndo()
	s.storeSeq++
	s.saved = s.memCtrl
}

// Restore implements rollback.Component: it copies every page stashed
// since the Store back — restoring both content and the pre-interval
// stamp, so later writes stash afresh — and the control state.
func (s *Memory) Restore() {
	for i := range s.undo {
		u := s.undo[i]
		// The page exists: the stash was recorded by the write that
		// dirtied it.
		*s.pages[u.key] = *u.old
	}
	s.recycleUndo()
	s.memCtrl = s.saved
}

// JitterMemory is a memory whose per-beat wait states vary pseudo-
// randomly in [base, base+spread]. Its latency cannot be tracked by a
// static producer-consumer model, so leader-side response predictions
// genuinely miss — the component used to induce organic rollbacks.
type JitterMemory struct {
	Memory
	rng    *rng.Source
	spread int
}

// NewJitterMemory creates a jittery memory with the given base wait
// count, jitter spread and PRNG seed.
func NewJitterMemory(name string, base, spread int, seed uint64) *JitterMemory {
	if spread <= 0 {
		panic("ip: jitter spread must be positive")
	}
	j := &JitterMemory{rng: rng.New(seed), spread: spread}
	j.Memory = *NewMemory(name, base, base)
	return j
}

// Respond implements bus.Slave, rolling fresh jitter for each new beat.
func (j *JitterMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if j.waitLeft < 0 {
		j.waitLeft = j.firstWait + j.rng.Intn(j.spread+1)
	}
	return j.Memory.Respond(ap)
}

// Store implements rollback.Component. Wrappers around Memory must
// define their own Store and Restore: the embedded Memory's would
// otherwise be promoted and shadow only the memory half.
func (j *JitterMemory) Store() {
	j.Memory.Store()
	j.rng.Store()
}

// Restore implements rollback.Component.
func (j *JitterMemory) Restore() {
	j.Memory.Restore()
	j.rng.Restore()
}

// ErrorSlave responds to every active beat with a two-cycle ERROR, the
// behavior of the AHB default slave, packaged as a mappable component.
type ErrorSlave struct {
	name string
	errorState
	saved errorState // rollback shadow
}

// errorState is the error slave's registered state.
type errorState struct {
	second bool
	errors int64
}

var _ bus.Slave = (*ErrorSlave)(nil)

// NewErrorSlave creates an always-erroring slave.
func NewErrorSlave(name string) *ErrorSlave { return &ErrorSlave{name: name} }

// Name implements bus.Slave.
func (e *ErrorSlave) Name() string { return e.name }

// Errors returns the number of ERROR responses issued (counted once per
// two-cycle response).
func (e *ErrorSlave) Errors() int64 { return e.errors }

// Respond implements bus.Slave.
func (e *ErrorSlave) Respond(amba.AddrPhase) amba.SlaveReply {
	if e.second {
		return amba.SlaveReply{Ready: true, Resp: amba.RespError}
	}
	e.errors++
	return amba.SlaveReply{Ready: false, Resp: amba.RespError}
}

// WriteCommit implements bus.Slave; erroring beats never commit data.
func (e *ErrorSlave) WriteCommit(amba.AddrPhase, amba.Word) {}

// Commit implements bus.Slave.
func (e *ErrorSlave) Commit(ready bool) { e.second = !ready }

// Store implements rollback.Component.
func (e *ErrorSlave) Store() { e.saved = e.errorState }

// Restore implements rollback.Component.
func (e *ErrorSlave) Restore() { e.errorState = e.saved }

// RetryMemory wraps a Memory and issues a two-cycle RETRY for the first
// attempt of every retryEvery-th beat, forcing masters through the
// retry/reissue path.
type RetryMemory struct {
	Memory
	retryEvery int
	retryState
	savedRetry retryState // rollback shadow of retryState
}

// retryState is the retry bookkeeping RetryMemory adds to Memory.
type retryState struct {
	beatCount  int64
	retryPhase int // 0 none, 1 first RETRY cycle issued
	retryDone  bool
	retries    int64
}

var _ bus.Slave = (*RetryMemory)(nil)

// NewRetryMemory creates a retrying memory; retryEvery must be >= 1.
func NewRetryMemory(name string, waits, retryEvery int) *RetryMemory {
	if retryEvery < 1 {
		panic("ip: retryEvery must be >= 1")
	}
	r := &RetryMemory{retryEvery: retryEvery}
	r.Memory = *NewMemory(name, waits, waits)
	return r
}

// Retries returns how many RETRY sequences were issued.
func (r *RetryMemory) Retries() int64 { return r.retries }

// Params returns the constructor's parameters.
func (r *RetryMemory) Params() (waits, retryEvery int) { return r.firstWait, r.retryEvery }

// Respond implements bus.Slave.
func (r *RetryMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if r.retryPhase == 1 {
		return amba.SlaveReply{Ready: true, Resp: amba.RespRetry}
	}
	if !r.retryDone && (r.beatCount+1)%int64(r.retryEvery) == 0 {
		r.retries++
		r.retryPhase = 1
		return amba.SlaveReply{Ready: false, Resp: amba.RespRetry}
	}
	return r.Memory.Respond(ap)
}

// Commit implements bus.Slave.
func (r *RetryMemory) Commit(ready bool) {
	if r.retryPhase == 1 {
		if ready {
			// RETRY sequence finished; the retried beat will come back
			// and must then be accepted.
			r.retryPhase = 0
			r.retryDone = true
		}
		return
	}
	if ready {
		r.beatCount++
		r.retryDone = false
	}
	r.Memory.Commit(ready)
}

// SplitMemory is a memory that answers every splitEvery-th beat with a
// two-cycle SPLIT response, releasing the split-masked master via its
// HSPLITx line releaseAfter cycles later — modeling a slave that parks
// long-latency requests and frees the bus meanwhile (AHB §3.12).
type SplitMemory struct {
	Memory
	splitEvery   int
	releaseAfter int

	splitState
	savedSplit splitState // rollback shadow of splitState
}

// splitState is the split bookkeeping SplitMemory adds to Memory.
type splitState struct {
	beatCount     int64
	phase         int // 0 none, 1 first SPLIT cycle issued
	splitDone     bool
	pendingMaster int
	countdown     int // -1 idle
	release       uint32
	splits        int64
}

var (
	_ bus.Slave         = (*SplitMemory)(nil)
	_ bus.SplitSource   = (*SplitMemory)(nil)
	_ bus.SplitNotifiee = (*SplitMemory)(nil)
)

// NewSplitMemory creates a splitting memory; splitEvery >= 1,
// releaseAfter >= 0 (0 releases on the very next cycle).
func NewSplitMemory(name string, waits, splitEvery, releaseAfter int) *SplitMemory {
	if splitEvery < 1 {
		panic("ip: splitEvery must be >= 1")
	}
	if releaseAfter < 0 {
		panic("ip: negative releaseAfter")
	}
	s := &SplitMemory{splitEvery: splitEvery, releaseAfter: releaseAfter, splitState: splitState{countdown: -1}}
	s.Memory = *NewMemory(name, waits, waits)
	return s
}

// Splits returns how many SPLIT responses were issued.
func (s *SplitMemory) Splits() int64 { return s.splits }

// Params returns the constructor's parameters.
func (s *SplitMemory) Params() (waits, splitEvery, releaseAfter int) {
	return s.firstWait, s.splitEvery, s.releaseAfter
}

// Respond implements bus.Slave.
func (s *SplitMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if s.phase == 1 {
		return amba.SlaveReply{Ready: true, Resp: amba.RespSplit}
	}
	if !s.splitDone && (s.beatCount+1)%int64(s.splitEvery) == 0 {
		s.splits++
		s.phase = 1
		return amba.SlaveReply{Ready: false, Resp: amba.RespSplit}
	}
	return s.Memory.Respond(ap)
}

// Commit implements bus.Slave.
func (s *SplitMemory) Commit(ready bool) {
	if s.phase == 1 {
		if ready {
			s.phase = 0
			s.splitDone = true
		}
		return
	}
	if ready {
		s.beatCount++
		s.splitDone = false
	}
	s.Memory.Commit(ready)
}

// NotifySplit implements bus.SplitNotifiee: remember whom to release.
func (s *SplitMemory) NotifySplit(master int) {
	s.pendingMaster = master
	s.countdown = s.releaseAfter
}

// Tick implements sim.Clocked: the release countdown runs on the target
// clock regardless of bus activity.
func (s *SplitMemory) Tick(int64) {
	switch {
	case s.countdown < 0:
	case s.countdown == 0:
		s.release |= 1 << uint(s.pendingMaster)
		s.countdown = -1
	default:
		s.countdown--
	}
}

// QuiescentFor implements sim.Quiescible: a pending (raised but not
// yet consumed) release line blocks batching outright; an armed
// countdown of c permits c pure decrements before the tick that
// raises the HSPLITx line; an idle countdown never acts.
func (s *SplitMemory) QuiescentFor() int64 {
	if s.release != 0 {
		return 0
	}
	if s.countdown < 0 {
		return math.MaxInt64
	}
	return int64(s.countdown)
}

// SkipQuiescent implements sim.Quiescible: n ticks collapse to one
// countdown subtraction. Callers keep n <= QuiescentFor().
func (s *SplitMemory) SkipQuiescent(n int64) {
	if s.countdown >= 0 {
		s.countdown -= int(n)
	}
}

// SplitRelease implements bus.SplitSource: raised lines are consumed by
// the one bus Evaluate of the cycle.
func (s *SplitMemory) SplitRelease() uint32 {
	r := s.release
	s.release = 0
	return r
}

// Store implements rollback.Component (wrappers must override the
// embedded Memory's; see JitterMemory.Store).
func (s *SplitMemory) Store() {
	s.Memory.Store()
	s.savedSplit = s.splitState
}

// Restore implements rollback.Component.
func (s *SplitMemory) Restore() {
	s.Memory.Restore()
	s.splitState = s.savedSplit
}

// Store implements rollback.Component (wrappers must override the
// embedded Memory's; see JitterMemory.Store).
func (r *RetryMemory) Store() {
	r.Memory.Store()
	r.savedRetry = r.retryState
}

// Restore implements rollback.Component.
func (r *RetryMemory) Restore() {
	r.Memory.Restore()
	r.retryState = r.savedRetry
}
