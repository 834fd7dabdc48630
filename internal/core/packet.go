package core

import (
	"fmt"

	"coemu/internal/amba"
)

// Wire formats for the three packet kinds the channel wrappers exchange.
//
// Conservative exchange packets carry a single PartialState (amba's wire
// encoding, no context). Flush packets carry the whole LOB: a count word
// followed by count entries, where every entry but the last is an (out,
// pred) pair and the last is a bare out — the prediction presence is
// implied by position, so no per-entry marker words are spent. Each out
// is packed after the previous entry's out and each pred after the
// previous pred (amba.PartialState.PackAfter), so a burst continuation
// or a held reply costs its header word alone. Report packets carry a
// status word (reportSuccess or the zero-based index of the failed
// prediction) followed by the lagger's actual contribution for the
// reported cycle, with no context.

// reportSuccess is the status word of a successful follow-up report.
const reportSuccess = ^amba.Word(0)

// packFlush appends the encoded LOB contents to dst and returns the
// extended slice (pass nil to allocate; the engine passes its scratch).
func packFlush(dst []amba.Word, entries []Entry) []amba.Word {
	out := append(dst, amba.Word(len(entries)))
	var prevOut, prevPred *amba.PartialState
	for i := range entries {
		e := &entries[i]
		if e.HasPred != (i < len(entries)-1) {
			panic(fmt.Sprintf("core: flush entry %d/%d has unexpected prediction presence", i, len(entries)))
		}
		out = e.Out.PackAfter(out, prevOut)
		if e.HasPred {
			out = e.Pred.PackAfter(out, prevPred)
		}
		prevOut, prevPred = &e.Out, &e.Pred
	}
	return out
}

// unpackFlush decodes a flush packet, appending the entries to dst
// (pass nil to allocate; the engine passes its scratch). outStatic is the
// static configuration of the sending (leader) domain for its outs;
// predStatic is the lagger's, for the predictions (a prediction
// describes the lagger's own contribution).
func unpackFlush(dst []Entry, pkt []amba.Word, outStatic, predStatic amba.Static) ([]Entry, error) {
	if len(pkt) == 0 {
		return nil, fmt.Errorf("core: empty flush packet")
	}
	n := int(pkt[0])
	if n < 1 {
		return nil, fmt.Errorf("core: flush packet with %d entries", n)
	}
	rest := pkt[1:]
	entries := dst
	var err error
	for i := 0; i < n; i++ {
		var e Entry
		var prevOut, prevPred *amba.PartialState
		if i > 0 {
			last := &entries[len(entries)-1]
			prevOut, prevPred = &last.Out, &last.Pred
		}
		e.Out, rest, err = amba.UnpackAfter(rest, prevOut, outStatic)
		if err != nil {
			return nil, fmt.Errorf("core: flush entry %d out: %w", i, err)
		}
		if i < n-1 {
			e.HasPred = true
			e.Pred, rest, err = amba.UnpackAfter(rest, prevPred, predStatic)
			if err != nil {
				return nil, fmt.Errorf("core: flush entry %d pred: %w", i, err)
			}
		}
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: flush packet has %d trailing words", len(rest))
	}
	return entries, nil
}

// packReport appends a follow-up report to dst: success (all
// predictions held, actual is the lagger contribution for the final
// entry) or failure at index idx (actual is the lagger contribution for
// that cycle).
func packReport(dst []amba.Word, success bool, idx int, actual amba.PartialState) []amba.Word {
	status := reportSuccess
	if !success {
		status = amba.Word(idx)
	}
	out := append(dst, status)
	return actual.Pack(out)
}

// unpackReport decodes a report packet.
func unpackReport(pkt []amba.Word, s amba.Static) (success bool, idx int, actual amba.PartialState, err error) {
	if len(pkt) == 0 {
		return false, 0, amba.PartialState{}, fmt.Errorf("core: empty report packet")
	}
	status := pkt[0]
	actual, rest, err := amba.Unpack(pkt[1:], s)
	if err != nil {
		return false, 0, amba.PartialState{}, fmt.Errorf("core: report payload: %w", err)
	}
	if len(rest) != 0 {
		return false, 0, amba.PartialState{}, fmt.Errorf("core: report packet has %d trailing words", len(rest))
	}
	if status == reportSuccess {
		return true, 0, actual, nil
	}
	return false, int(status), actual, nil
}
