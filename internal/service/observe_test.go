package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coemu/internal/faultplan"
	"coemu/internal/metrics"
	"coemu/internal/spec"
	"coemu/internal/store"
)

// monotoneFields lists the Counters fields that may never decrease
// between two snapshots.
func monotoneFields(c Counters) map[string]int64 {
	return map[string]int64{
		"cache_hits":      c.CacheHits,
		"cache_misses":    c.CacheMisses,
		"engine_runs":     c.EngineRuns,
		"sweeps":          c.Sweeps,
		"sweep_points":    c.SweepPoints,
		"store_hits":      c.StoreHits,
		"store_misses":    c.StoreMisses,
		"store_puts":      c.StorePuts,
		"worker_panics":   c.WorkerPanics,
		"job_timeouts":    c.JobTimeouts,
		"faults_injected": c.FaultsInjected,
	}
}

// TestCountersConsistentUnderLoad hammers Counters while a sweep and a
// stream of duplicate submissions run, asserting every monotone field
// only moves forward and the snapshot is internally consistent. Run
// with -race this also pins that the whole snapshot — cache and store
// statistics included — is taken under the service mutex rather than
// assembled from torn reads.
func TestCountersConsistentUnderLoad(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4, QueueDepth: 64})

	stopc := make(chan struct{})
	var wg sync.WaitGroup
	// Load: distinct and duplicate submissions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopc:
				return
			default:
			}
			job, err := svc.Submit(testSpec(t, int64(1000+i%8*250)), false)
			if err != nil {
				continue
			}
			job.Wait(context.Background())
		}
	}()
	// Scrapers: hammer snapshots and check monotonicity.
	snapErr := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := monotoneFields(svc.Counters())
			for i := 0; i < 500; i++ {
				c := svc.Counters()
				cur := monotoneFields(c)
				for k, v := range cur {
					if v < prev[k] {
						select {
						case snapErr <- fmt.Errorf("counter %s went backwards: %d -> %d", k, prev[k], v):
						default:
						}
						return
					}
				}
				// Internal consistency: every engine run was preceded
				// by a cache miss (runs never outnumber misses).
				if c.EngineRuns > c.CacheMisses {
					select {
					case snapErr <- fmt.Errorf("engine_runs %d > cache_misses %d in one snapshot", c.EngineRuns, c.CacheMisses):
					default:
					}
					return
				}
				prev = cur
			}
		}()
	}
	// One short sweep riding along.
	sw, err := svc.StartSweepPoints(context.Background(),
		[]*spec.Spec{testSpec(t, 1100), testSpec(t, 1200), testSpec(t, 1300)}, false)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	close(stopc)
	wg.Wait()
	select {
	case err := <-snapErr:
		t.Fatal(err)
	default:
	}
}

// TestCacheMissIdentity pins the cache accounting over a scripted
// submission sequence: every counted cache miss is answered by exactly
// one of an engine run, a persistent-store hit or a join onto an
// in-flight duplicate, so
//
//	cache_misses == engine_runs + store_hits + in-flight joins.
//
// The sequence covers fresh runs, memory-cache hits, in-flight joins,
// and — on a second service over the same store — store hits and fresh
// runs whose submission probes the store and re-checks the memory
// layers.
func TestCacheMissIdentity(t *testing.T) {
	dir := t.TempDir()
	totalJoins := int64(0)
	for round, script := range [][]int64{
		{2000, 2000, 150000, 150000, 150000, 3000},
		{2000, 2000, 150000, 4000, 4000},
	} {
		disk, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Workers: 1, Store: disk})
		seen := map[*Job]bool{}
		joins := int64(0)
		var jobs []*Job
		for _, cycles := range script {
			job, err := svc.Submit(testSpec(t, cycles), false)
			if err != nil {
				t.Fatal(err)
			}
			if seen[job] {
				joins++
			}
			seen[job] = true
			jobs = append(jobs, job)
		}
		for _, job := range jobs {
			if _, err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		totalJoins += joins
		c := svc.Counters()
		svc.Close()
		if c.CacheMisses != c.EngineRuns+c.StoreHits+joins {
			t.Fatalf("round %d: cache_misses %d != engine_runs %d + store_hits %d + joins %d",
				round, c.CacheMisses, c.EngineRuns, c.StoreHits, joins)
		}
		if round == 1 && c.StoreHits == 0 {
			t.Fatal("second round served nothing from the store; the script proves less than it claims")
		}
	}
	if totalJoins == 0 {
		t.Fatal("no submission joined an in-flight duplicate; the script proves less than it claims")
	}
}

// TestMetricsObservations wires a Metrics into a service, runs jobs and
// a sweep, and checks that the exposition carries the expected families
// with non-zero observations.
func TestMetricsObservations(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	svc := newTestService(t, Options{Workers: 2, Metrics: m})

	job, err := svc.Submit(testSpec(t, 4000), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sw, err := svc.StartSweepPoints(context.Background(),
		[]*spec.Spec{testSpec(t, 4000), testSpec(t, 4500)}, false)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	fams, err := metrics.ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v\n%s", err, doc)
	}
	byName := map[string]metrics.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	// count sums a counter family's samples, or reads a histogram
	// family's observation count.
	count := func(name string) float64 {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from exposition:\n%s", name, doc)
		}
		var total float64
		for _, s := range f.Samples {
			if f.Type == metrics.KindHistogram {
				if s.Name == name+"_count" {
					total += s.Value
				}
				continue
			}
			total += s.Value
		}
		return total
	}
	if count("coemu_engine_committed_cycles_total") < 4000+4500 {
		t.Errorf("committed cycles not aggregated:\n%s", doc)
	}
	for _, name := range []string{
		"coemu_job_seconds", "coemu_job_queue_seconds", "coemu_sweep_point_seconds",
		"coemu_engine_transitions_total", "coemu_channel_words_total",
	} {
		if count(name) <= 0 {
			t.Errorf("family %s has no observations:\n%s", name, doc)
		}
	}
}

func TestJobWatchLifecycle(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	job, err := svc.Submit(testSpec(t, 3000), false)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Status
	for info := range job.Watch() {
		if len(seen) == 0 || seen[len(seen)-1] != info.Status {
			seen = append(seen, info.Status)
		}
	}
	if len(seen) == 0 || seen[len(seen)-1] != StatusDone {
		t.Fatalf("watch statuses %v, want a sequence ending in done", seen)
	}

	// Watching a finished job yields exactly one terminal snapshot and
	// an immediate close.
	var after []Info
	for info := range job.Watch() {
		after = append(after, info)
	}
	if len(after) != 1 || after[0].Status != StatusDone {
		t.Fatalf("finished-job watch = %+v, want one done snapshot", after)
	}
}

func TestJobTraceCapture(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})

	// Untraced jobs expose no trace.
	plain, err := svc.Submit(testSpec(t, 2000), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Trace(); err == nil {
		t.Fatal("untraced job returned a trace")
	}

	// A traced duplicate of a cached spec still runs fresh and records.
	sp := testSpec(t, 2000)
	sp.Run.Trace = true
	sp.Run.TraceRing = 1 << 14
	traced, err := svc.Submit(sp, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if traced.Info().Cached {
		t.Fatal("traced submission was served from cache; no events could have been recorded")
	}
	rec, err := traced.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced job recorded no events")
	}

	// The trace is unavailable while a job is still queued/running.
	if _, err := (&Job{svc: svc, status: StatusRunning}).Trace(); err == nil {
		t.Fatal("running job returned a trace")
	}

	// And the traced run still fed the shared result cache: an untraced
	// duplicate is now a cache hit.
	dup, err := svc.Submit(testSpec(t, 2000), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dup.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !dup.Info().Cached {
		t.Fatal("untraced duplicate of a traced run missed the cache")
	}
}

func TestFaultsInjectedCounter(t *testing.T) {
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 5, Service: &faultplan.ServiceFault{WorkerPanic: 1}},
	})
	job, err := svc.Submit(testSpec(t, 1500), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Wait err = %v, want ErrWorkerPanic", err)
	}
	c := svc.Counters()
	if c.FaultsInjected != 1 || c.WorkerPanics != 1 {
		t.Fatalf("faults_injected=%d worker_panics=%d, want 1 and 1", c.FaultsInjected, c.WorkerPanics)
	}
}
