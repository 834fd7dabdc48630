package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"coemu/internal/core"
	"coemu/internal/metrics"
	"coemu/internal/vclock"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least ceil(q·n) samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile is percentile with the reporting rule enforced: at
// least minTail samples must lie beyond the quantile.
func tailPercentile(samples []float64, q float64) (float64, error) {
	if b := beyond(len(samples), q); b < minTail {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (want %d)", q*100, len(samples), b, minTail)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, q), nil
}

// latencyBlock is the operations per fixed-work block for latency
// percentiles: 1000 puts 10 samples beyond each block's p99.
const latencyBlock = 1000

// blockPercentile splits samples, in the order they were taken, into
// consecutive blocks of latencyBlock (a final partial block is dropped),
// takes each block's q-quantile, and returns the median over blocks. A
// host hiccup that slows part of a run then moves one block's tail, not
// the run's.
func blockPercentile(samples []float64, q float64) (float64, error) {
	var per []float64
	for i := 0; i+latencyBlock <= len(samples); i += latencyBlock {
		v, err := tailPercentile(samples[i:i+latencyBlock], q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("%d samples: want at least one block of %d", len(samples), latencyBlock)
	}
	return median(per), nil
}

// p99Note reports the block-median p99 for reading only: on a shared
// host it follows the host's preemptions more than the program, so it is
// not a gated metric.
func p99Note(samples []float64) string {
	p99, err := blockPercentile(samples, 0.99)
	if err != nil {
		return fmt.Sprintf("latency p99: %v", err)
	}
	return fmt.Sprintf("latency p99 (median over %d-operation blocks, not gated): %.3f ms", latencyBlock, p99*1e3)
}

// median returns the middle of xs (the mean of the middle two for even
// counts), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bucket is one cumulative histogram bucket: Count observations at or
// below LE.
type bucket struct {
	LE    float64
	Count float64
}

// histBuckets extracts family name's cumulative buckets from a parsed
// /metrics exposition, sorted by upper bound (+Inf last).
func histBuckets(fams []metrics.ParsedFamily, name string) ([]bucket, error) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		var out []bucket
		for _, s := range f.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			le, ok := labelValue(s.Labels, "le")
			if !ok {
				return nil, fmt.Errorf("%s: bucket without le label", name)
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bucket le %q: %w", name, le, err)
			}
			out = append(out, bucket{LE: v, Count: s.Value})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].LE < out[j].LE })
		return out, nil
	}
	return nil, fmt.Errorf("metric family %s not exposed", name)
}

// labelValue reads one label from a rendered {k="v",...} label set.
func labelValue(labels, key string) (string, bool) {
	labels = strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// bucketDelta subtracts an earlier scrape of the same histogram, giving
// the observations made between the two scrapes.
func bucketDelta(before, after []bucket) ([]bucket, error) {
	if len(before) == 0 {
		return after, nil
	}
	if len(before) != len(after) {
		return nil, fmt.Errorf("histogram bucket layout changed between scrapes")
	}
	out := make([]bucket, len(after))
	for i := range after {
		if before[i].LE != after[i].LE {
			return nil, fmt.Errorf("histogram bucket layout changed between scrapes")
		}
		out[i] = bucket{LE: after[i].LE, Count: after[i].Count - before[i].Count}
	}
	return out, nil
}

// histQuantile estimates the q-quantile of cumulative buckets the way
// Prometheus' histogram_quantile does: find the bucket holding rank
// q·total and interpolate linearly inside it (the first bucket starts at
// 0). A rank in the +Inf bucket reports the largest finite bound. No
// observations give 0.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].Count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.Count >= rank {
			if math.IsInf(b.LE, 1) {
				return prevLE
			}
			if b.Count == prevCount {
				return b.LE
			}
			return prevLE + (b.LE-prevLE)*(rank-prevCount)/(b.Count-prevCount)
		}
		prevLE, prevCount = b.LE, b.Count
	}
	return prevLE
}

// counts accumulates engine Report counters over a set of runs; the
// per-layer ratios are derived from the sums.
type counts struct {
	Committed, Conservative, Transitions            int64
	RunAhead, FollowUp, RollForth, Batched          int64
	Stores, Restores, Checks, Mispredicts, Declines int64
	Accesses, Words                                 int64
	Virtual, VChannel, VStore, VRestore             time.Duration
	LOBPeak                                         int
}

func (c *counts) add(rep *core.Report) {
	st := &rep.Stats
	c.Committed += st.Committed
	c.Conservative += st.ConservativeCycles
	c.Transitions += st.Transitions
	c.RunAhead += st.RunAheadCycles
	c.FollowUp += st.FollowUpCycles
	c.RollForth += st.RollForthCycles
	c.Batched += st.BatchedCycles
	c.Stores += st.Stores
	c.Restores += st.Restores
	c.Checks += st.ChecksTotal
	c.Mispredicts += st.Mispredicts
	for _, n := range st.Declines {
		c.Declines += n
	}
	for d := 0; d < 2; d++ {
		c.Accesses += rep.Channel.Accesses[d]
		c.Words += rep.Channel.Words[d]
	}
	c.Virtual += rep.Ledger.Total()
	c.VChannel += rep.Ledger.Get(vclock.Channel)
	c.VStore += rep.Ledger.Get(vclock.Store)
	c.VRestore += rep.Ledger.Get(vclock.Restore)
	if rep.LOBPeakWords > c.LOBPeak {
		c.LOBPeak = rep.LOBPeakWords
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perKcyc is n per thousand committed cycles.
func (c *counts) perKcyc(n int64) float64 { return ratio(1000*float64(n), float64(c.Committed)) }

// modeledCycPerSec is the paper's metric: target cycles per modeled
// (virtual-clock) second.
func (c *counts) modeledCycPerSec() float64 {
	return ratio(float64(c.Committed), c.Virtual.Seconds())
}

// calls estimates how often a run called each public Domain method
// from its counters. A conservative cycle evaluates and commits both
// domains; run-ahead, follow-up and roll-forth cycles one domain each;
// each transition adds the leader's final, prediction-less evaluation.
// Batched advances replace one evaluate/commit pair per batched
// domain-cycle step. Predict is consulted once per leader choice and
// once per run-ahead cycle.
func (c *counts) calls() (eval, predict, snapshot, restore float64) {
	eval = float64(2*c.Conservative + c.RunAhead + c.FollowUp + c.RollForth + c.Transitions - c.Batched)
	if eval < 0 {
		eval = 0
	}
	predict = float64(c.Conservative + 2*c.Transitions + c.RunAhead - c.Batched)
	if predict < 0 {
		predict = 0
	}
	return eval, predict, float64(c.Stores), float64(c.Restores)
}

// layerRatios derives the count-based per-layer metrics.
func (c *counts) layerRatios() map[string]float64 {
	cyc := float64(c.Committed)
	v := c.Virtual.Seconds()
	return map[string]float64{
		"core.transitions_per_kcyc":  c.perKcyc(c.Transitions),
		"core.rollforth_ratio":       ratio(float64(c.RollForth), cyc),
		"core.batched_ratio":         ratio(float64(c.Batched), cyc),
		"core.conservative_ratio":    ratio(float64(c.Conservative), cyc),
		"core.lob_peak_words":        float64(c.LOBPeak),
		"predict.accuracy":           ratio(float64(c.Checks-c.Mispredicts), float64(c.Checks)),
		"predict.declines_per_kcyc":  c.perKcyc(c.Declines),
		"rollback.stores_per_kcyc":   c.perKcyc(c.Stores),
		"rollback.restores_per_kcyc": c.perKcyc(c.Restores),
		"channel.accesses_per_kcyc":  c.perKcyc(c.Accesses),
		"channel.words_per_access":   ratio(float64(c.Words), float64(c.Accesses)),
		"vclock.channel_share":       ratio(c.VChannel.Seconds(), v),
		"vclock.store_share":         ratio(c.VStore.Seconds(), v),
		"vclock.restore_share":       ratio(c.VRestore.Seconds(), v),
	}
}
