package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around its own call. Parent is the index of the enclosing
// span (-1 for an operation's root); Op numbers the operation the span
// belongs to, shared by all its spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// Cycles is the target-cycle count of the work the span covers,
	// where that is a useful denominator (engine and reference runs).
	Cycles int64 `json:"cycles,omitempty"`
}

// spans records spans in memory for one goroutine; a nil *spans records
// nothing, which is how untraced runs pay no tracing cost.
type spans struct {
	t0   time.Time
	list []span
	op   int
}

// newSpans starts a recorder timing from t0; its operations are
// numbered from opBase, so recorders of concurrent clients never share
// an operation number.
func newSpans(t0 time.Time, opBase int) *spans { return &spans{t0: t0, op: opBase} }

// merge concatenates recorders, re-basing parent indices.
func merge(recs ...*spans) []span {
	var out []span
	for _, r := range recs {
		out = appendSpans(out, r.list)
	}
	return out
}

// appendSpans appends src to dst, re-basing src's parent indices.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, sp := range src {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		dst = append(dst, sp)
	}
	return dst
}

// begin opens a span and returns its handle (-1 when not tracing).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	if parent < 0 {
		s.op++
	}
	s.list = append(s.list, span{Name: name, Start: int64(time.Since(s.t0)), End: -1, Parent: parent, Op: s.op})
	return len(s.list) - 1
}

// end closes the span opened by begin.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].End = int64(time.Since(s.t0))
}

// setCycles records the target cycles the span covered.
func (s *spans) setCycles(i int, n int64) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].Cycles = n
}

// nsPerCycle is the total duration of the named spans over the cycles
// they covered.
func nsPerCycle(all []span, name string) float64 {
	var ns, cyc int64
	for _, sp := range all {
		if sp.Name == name && sp.End >= sp.Start && sp.Cycles > 0 {
			ns += sp.End - sp.Start
			cyc += sp.Cycles
		}
	}
	return ratio(float64(ns), float64(cyc))
}

// durations returns the closed spans' durations in seconds, by name.
func durations(all []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, sp := range all {
		if sp.End >= sp.Start {
			out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, all []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
