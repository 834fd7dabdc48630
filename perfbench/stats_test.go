package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"coemu/internal/channel"
	"coemu/internal/core"
	"coemu/internal/metrics"
	"coemu/internal/service"
	"coemu/internal/vclock"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailPercentile must sort a copy
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	xs := seq(1000)
	p99, err := tailPercentile(xs, 0.99)
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", p99)
	}
	if b := beyond(1000, 0.99); b != minTail {
		t.Errorf("beyond(1000, p99) = %d, want %d", b, minTail)
	}
	if p50, _ := tailPercentile(xs, 0.5); p50 != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p50)
	}
	if xs[0] != 1000 {
		t.Errorf("tailPercentile reordered its input")
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Errorf("999 samples leave 9 beyond p99; want an error")
	}
	if _, err := tailPercentile(seq(19), 0.5); err == nil {
		t.Errorf("19 samples leave 9 beyond p50; want an error")
	}
	if _, err := tailPercentile(seq(20), 0.5); err != nil {
		t.Errorf("20 samples leave 10 beyond p50: %v", err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// exposition renders a histogram through the real metrics registry and
// parses it back, as the benchmark does with coemud's /metrics.
func exposition(t *testing.T, reg *metrics.Registry) []metrics.ParsedFamily {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

func TestHistogramP50FromExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.NewHistogram("lat_seconds", "test latency", []float64{0.001, 0.002, 0.004, 0.008})
	// Before the measured window: observations the delta must remove.
	for i := 0; i < 50; i++ {
		h.Observe(0.0075)
	}
	before := exposition(t, reg)
	// Window: 10 in (0, 1ms], 30 in (1ms, 2ms], 60 in (2ms, 4ms]. Rank
	// 50 lies 10 observations into the (2ms, 4ms] bucket's 60 → 2ms +
	// 2ms·10/60.
	for i := 0; i < 10; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 30; i++ {
		h.Observe(0.0015)
	}
	for i := 0; i < 60; i++ {
		h.Observe(0.003)
	}
	after := exposition(t, reg)
	b, err := histBuckets(before, "lat_seconds")
	if err != nil {
		t.Fatal(err)
	}
	a, err := histBuckets(after, "lat_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(a[len(a)-1].LE, 1) || a[len(a)-1].Count != 150 {
		t.Fatalf("last bucket = %+v, want +Inf holding all 150", a[len(a)-1])
	}
	d, err := bucketDelta(b, a)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.002 + 0.002*10.0/60.0
	if got := histQuantile(d, 0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("windowed p50 = %v, want %v", got, want)
	}
	// Without the delta the early observations drag the median up.
	if got := histQuantile(a, 0.5); got <= want {
		t.Errorf("cumulative p50 = %v, want above the windowed %v", got, want)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("p50 of no buckets = %v, want 0", got)
	}
	if _, err := histBuckets(after, "missing_seconds"); err == nil {
		t.Errorf("missing family: want an error")
	}
}

func TestHistQuantileInfBucket(t *testing.T) {
	bs := []bucket{{0.1, 1}, {0.2, 1}, {math.Inf(1), 10}}
	if got := histQuantile(bs, 0.5); got != 0.2 {
		t.Errorf("rank in +Inf bucket = %v, want the largest finite bound 0.2", got)
	}
}

func TestLabelValue(t *testing.T) {
	if v, ok := labelValue(`{dir="sim",le="0.25"}`, "le"); !ok || v != "0.25" {
		t.Errorf("labelValue = %q %v", v, ok)
	}
	if _, ok := labelValue(`{dir="sim"}`, "le"); ok {
		t.Errorf("absent label reported present")
	}
}

func testReport(committed int64) *core.Report {
	rep := &core.Report{Cycles: committed, LOBPeakWords: 40}
	rep.Stats = core.Stats{
		Committed: committed, ConservativeCycles: 200, Transitions: 50,
		RunAheadCycles: 700, FollowUpCycles: 800, RollForthCycles: 250, BatchedCycles: 100,
		Stores: 50, Restores: 20, ChecksTotal: 400, Mispredicts: 100,
		Declines: map[core.DeclineReason]int64{core.DeclineBurstStart: 30, "other": 10},
	}
	rep.Channel = channel.Stats{Accesses: [2]int64{300, 100}, Words: [2]int64{1200, 400}}
	rep.Ledger.Charge(vclock.Sim, 600*time.Microsecond)
	rep.Ledger.Charge(vclock.Channel, 300*time.Microsecond)
	rep.Ledger.Charge(vclock.Store, 60*time.Microsecond)
	rep.Ledger.Charge(vclock.Restore, 40*time.Microsecond)
	return rep
}

func TestRatiosFromReportCounters(t *testing.T) {
	var c counts
	c.add(testReport(1000))
	c.add(testReport(1000))
	m := c.layerRatios()
	for name, want := range map[string]float64{
		"core.transitions_per_kcyc":  50,
		"core.rollforth_ratio":       0.25,
		"core.batched_ratio":         0.1,
		"core.conservative_ratio":    0.2,
		"core.lob_peak_words":        40,
		"predict.accuracy":           0.75,
		"predict.declines_per_kcyc":  40,
		"rollback.stores_per_kcyc":   50,
		"rollback.restores_per_kcyc": 20,
		"channel.accesses_per_kcyc":  400,
		"channel.words_per_access":   4,
		"vclock.channel_share":       0.3,
		"vclock.store_share":         0.06,
		"vclock.restore_share":       0.04,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// 2000 cycles over 2 ms of modeled time.
	if got := c.modeledCycPerSec(); math.Abs(got-1e6) > 1e-3 {
		t.Errorf("modeled cycles/s = %v, want 1e6", got)
	}
	eval, predict, snaps, restores := c.calls()
	// Per report: 2·200 + 700 + 800 + 250 + 50 − 100 evaluations and
	// 200 + 2·50 + 700 − 100 predictions.
	if eval != 2*2100 || predict != 2*900 || snaps != 100 || restores != 40 {
		t.Errorf("calls = %v %v %v %v", eval, predict, snaps, restores)
	}
	var empty counts
	for name, v := range empty.layerRatios() {
		if v != 0 {
			t.Errorf("%s of no runs = %v, want 0", name, v)
		}
	}
}

func TestAccountingCheck(t *testing.T) {
	before := &scrape{stats: service.Counters{EngineRuns: 4, StoreHits: 1, CacheHits: 2, CacheMisses: 10}}
	sent := map[string]int{classFresh: 5, classSweep: 2, classStoreHit: 7, classCacheHit: 3}
	good := &scrape{stats: service.Counters{EngineRuns: 4 + 5 + 2*sweepPoints, StoreHits: 1 + 7, CacheHits: 5}}
	notes, problems := accounting(before, good, sent)
	if len(problems) != 0 {
		t.Errorf("consistent counters flagged: %v", problems)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "derived_misses=44") {
		t.Errorf("notes = %v, want derived misses engine_runs+store_hits = 37+7", notes)
	}
	bad := &scrape{stats: service.Counters{EngineRuns: 4 + 5 + 2*sweepPoints + 1, StoreHits: 1 + 6}}
	if _, problems := accounting(before, bad, sent); len(problems) != 2 {
		t.Errorf("an extra engine run and a missing store hit gave problems %v, want 2", problems)
	}
}

func TestBlockPercentileIgnoresOneSlowBlock(t *testing.T) {
	var xs []float64
	for b := 0; b < 3; b++ {
		for i := 1; i <= latencyBlock; i++ {
			v := float64(i)
			if b == 1 {
				v *= 10 // a block taken while the host was slow
			}
			xs = append(xs, v)
		}
	}
	xs = append(xs, 1e9) // a partial block is dropped
	p99, err := blockPercentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Errorf("median block p99 = %v, want 990", p99)
	}
	if _, err := blockPercentile(xs[:latencyBlock-1], 0.99); err == nil {
		t.Errorf("no full block: want an error")
	}
}
