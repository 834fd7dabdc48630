package core

import (
	"fmt"

	"coemu/internal/amba"
)

// Entry is one run-ahead cycle recorded in the Leader Output Buffer: the
// leader's own contribution for the cycle plus, for all but the final
// entry of a transition, the prediction of the lagger's contribution the
// leader committed with.
//
// The paper's footnote 7: "the last leader-to-lagger data does not
// contain prediction. The last unit cycle operation of leading CW does
// not predict the state of lagger as it tries to read it from lagger as
// conventional method does." HasPred is therefore false exactly once,
// for the final entry.
type Entry struct {
	Out     amba.PartialState
	Pred    amba.PartialState
	HasPred bool
}

// LOB is the Leader Output Buffer: during the run-ahead step the leader
// deposits its outputs (and predictions) here instead of paying a
// channel access per cycle; a flush ships the whole buffer as one burst.
// Capacity is measured in 32-bit words, matching the paper's "LOB depth"
// parameter (64 words in Table 2, 8 vs 64 in Figure 4).
type LOB struct {
	depth   int
	entries []Entry
	words   int
	flushes int64
	peak    int
}

// NewLOB creates a buffer holding at most depth words. The flush framing
// costs one extra word (the entry count), reserved out of the depth.
func NewLOB(depth int) *LOB {
	if depth < 1 {
		panic(fmt.Sprintf("core: LOB depth %d < 1", depth))
	}
	// Every entry is at least one word, so depth entries is the most the
	// buffer can ever hold: preallocating that keeps Push allocation-free.
	return &LOB{depth: depth, entries: make([]Entry, 0, depth)}
}

// Depth returns the configured capacity in words.
func (l *LOB) Depth() int { return l.depth }

// Len returns the number of buffered entries.
func (l *LOB) Len() int { return len(l.entries) }

// Words returns the current payload size in words, including framing.
func (l *LOB) Words() int { return l.words + 1 }

// EntryWords returns the wire size of e pushed next: its output packed
// after the last entry's output, its prediction after the last entry's
// prediction (amba.PartialState.PackedWordsAfter). The first entry of a
// flush packs without context.
func (l *LOB) EntryWords(e *Entry) int {
	var prevOut, prevPred *amba.PartialState
	if n := len(l.entries); n > 0 {
		prevOut, prevPred = &l.entries[n-1].Out, &l.entries[n-1].Pred
	}
	w := e.Out.PackedWordsAfter(prevOut)
	if e.HasPred {
		w += e.Pred.PackedWordsAfter(prevPred)
	}
	return w
}

// MaxCycles returns the most cycles one transition can deposit: the
// run-ahead keeps maxPartialWords free for the final entry, and every
// entry before it carries two packed records of at least one header
// word each.
func (l *LOB) MaxCycles() int64 { return int64((l.depth-1-maxPartialWords)/2 + 1) }

// Push appends an entry (by value; the pointer only avoids an argument
// copy) of size w, which the caller took from EntryWords for this same
// push: the run-ahead loop sizes every entry for its stop test first,
// and the sizing showed in profiles. Pushing past capacity panics: the
// leader must check the size first — overflow is a channel-wrapper bug,
// not a condition to absorb.
func (l *LOB) Push(e *Entry, w int) {
	after := l.words + 1 + w // Words() once the entry is in
	if after > l.depth {
		panic(fmt.Sprintf("core: LOB overflow (%d+%d > %d words)", l.words+1, w, l.depth))
	}
	if n := len(l.entries); n > 0 && !l.entries[n-1].HasPred {
		panic("core: push after the final (prediction-less) entry")
	}
	l.entries = append(l.entries, *e)
	l.words += w
	if after > l.peak {
		l.peak = after
	}
}

// Entries returns the buffered entries in deposit order.
func (l *LOB) Entries() []Entry { return l.entries }

// Reset empties the buffer (after a flush).
func (l *LOB) Reset() {
	l.entries = l.entries[:0]
	l.words = 0
	l.flushes++
}

// Flushes returns how many times the buffer was flushed.
func (l *LOB) Flushes() int64 { return l.flushes }

// PeakWords returns the high-water mark of Words() across the run.
func (l *LOB) PeakWords() int { return l.peak }
