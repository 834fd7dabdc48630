package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"coemu/internal/spec"
	"coemu/internal/store"
)

// testSweep builds a sweep document over the canonical stream design
// with the given sweep block.
func testSweep(t *testing.T, cycles int64, sweep string) *spec.SweepSpec {
	t.Helper()
	src := fmt.Sprintf(`{
	  "name": "svc-sweep",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": %d},
	  "sweep": %s
	}`, cycles, sweep)
	ss, err := spec.ParseSweep([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func collect(t *testing.T, sw *SweepJob) []PointResult {
	t.Helper()
	var out []PointResult
	for pr := range sw.Results() {
		out = append(out, pr)
	}
	return out
}

func TestSweepFanOutOrderedResults(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4})
	ss := testSweep(t, 1500, `{"axes": [
		{"field": "run.accuracy", "values": [1, 0.9, 0.5]},
		{"field": "run.lob_depth", "values": [32, 64]}
	]}`)
	sw, err := svc.StartSweepPoints(context.Background(), mustExpand(t, ss), false)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Total() != 6 {
		t.Fatalf("total %d, want 6", sw.Total())
	}
	results := collect(t, sw)
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	for i, pr := range results {
		if pr.Index != i {
			t.Fatalf("result %d has index %d", i, pr.Index)
		}
		if pr.Err != nil || pr.Result == nil {
			t.Fatalf("point %d: %+v", i, pr)
		}
		if pr.Result.Report.Cycles != 1500 {
			t.Fatalf("point %d ran %d cycles", i, pr.Result.Report.Cycles)
		}
	}
	completed, failed, total := sw.Progress()
	if completed != 6 || failed != 0 || total != 6 {
		t.Fatalf("progress %d/%d/%d", completed, failed, total)
	}
	c := svc.Counters()
	if c.Sweeps != 1 || c.SweepPoints != 6 {
		t.Fatalf("counters %+v", c)
	}
	if c.EngineRuns != 6 {
		t.Fatalf("engine runs %d, want 6", c.EngineRuns)
	}
}

func TestSweepDuplicatePointsCoalesce(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	// cycle_batch is excluded from the canonical hash, so the two axis
	// values expand to two points with one canonical identity.
	ss := testSweep(t, 1200, `{"axes": [
		{"field": "run.cycle_batch", "values": [16, 64]}
	]}`)
	sw, err := svc.StartSweepPoints(context.Background(), mustExpand(t, ss), false)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, sw)
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].Hash != results[1].Hash {
		t.Fatal("hash-identical points hashed apart")
	}
	if string(results[0].Result.JSON) != string(results[1].Result.JSON) {
		t.Fatal("coalesced points returned different bytes")
	}
	if c := svc.Counters(); c.EngineRuns != 1 {
		t.Fatalf("engine runs %d, want 1 (dedup)", c.EngineRuns)
	}
}

func TestSweepSurvivesQueueBackpressure(t *testing.T) {
	// Queue depth 1 with 6 points: eager submission must ride out
	// ErrQueueFull and still deliver every point.
	svc := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	ss := testSweep(t, 800, `{"axes": [
		{"field": "run.lob_depth", "values": [8, 16, 32, 64, 128, 256]}
	]}`)
	sw, err := svc.StartSweepPoints(context.Background(), mustExpand(t, ss), false)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, sw)
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
	}
}

func TestSweepCancellationAbandonsPoints(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	ss := testSweep(t, int64(1)<<40, `{"axes": [
		{"field": "run.lob_depth", "values": [32, 64, 128]}
	]}`)
	ctx, cancel := context.WithCancel(context.Background())
	sw, err := svc.StartSweepPoints(ctx, mustExpand(t, ss), true)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	cancel()
	results := collect(t, sw)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, pr := range results {
		if pr.Err == nil {
			t.Fatalf("point %d completed despite cancellation", i)
		}
	}
	// Every ephemeral point must reach a terminal canceled state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		canceled := 0
		for _, info := range svc.Jobs() {
			if info.Status == StatusCanceled {
				canceled++
			}
		}
		if canceled == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 points canceled", canceled)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStoreWriteThroughAndRestart(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Options{Workers: 2, Store: disk})
	job, err := svc.Submit(testSpec(t, 1700), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if disk.Len() != 1 {
		t.Fatalf("store holds %d entries after a run", disk.Len())
	}

	// A "restarted daemon": fresh service, fresh store handle, same
	// directory, cold memory cache.
	disk2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := newTestService(t, Options{Workers: 2, Store: disk2})
	job2, err := svc2.Submit(testSpec(t, 1700), false)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info := job2.Info()
	if !info.Cached || !info.FromStore {
		t.Fatalf("restarted submission info %+v, want cached from store", info)
	}
	if res2.Report != nil {
		t.Fatal("store-served result claims an in-memory report")
	}
	if string(res.JSON) != string(res2.JSON) {
		t.Fatal("store-served bytes differ from the original run")
	}
	c := svc2.Counters()
	if c.EngineRuns != 0 || c.StoreHits != 1 {
		t.Fatalf("restart counters %+v, want zero engine runs and one store hit", c)
	}

	// The store hit was promoted into the memory cache: a third
	// duplicate is a pure memory hit.
	job3, err := svc2.Submit(testSpec(t, 1700), false)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := job3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if job3.Info().FromStore {
		t.Fatal("memory-cache hit attributed to the store")
	}
	if string(res3.JSON) != string(res.JSON) {
		t.Fatal("promoted result bytes differ")
	}
}

func TestSweepAfterRestartServedEntirelyFromStore(t *testing.T) {
	dir := t.TempDir()
	sweepBlock := `{"axes": [
		{"field": "run.accuracy", "values": [1, 0.9]},
		{"field": "run.lob_depth", "values": [32, 64]}
	]}`

	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Options{Workers: 4, Store: disk})
	sw, err := svc.StartSweepPoints(context.Background(), mustExpand(t, testSweep(t, 900, sweepBlock)), false)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(t, sw)

	disk2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := newTestService(t, Options{Workers: 4, Store: disk2})
	sw2, err := svc2.StartSweepPoints(context.Background(), mustExpand(t, testSweep(t, 900, sweepBlock)), false)
	if err != nil {
		t.Fatal(err)
	}
	second := collect(t, sw2)
	if len(second) != len(first) {
		t.Fatalf("point counts differ: %d vs %d", len(second), len(first))
	}
	for i := range second {
		if !second[i].FromStore {
			t.Fatalf("point %d not served from store", i)
		}
		if string(second[i].Result.JSON) != string(first[i].Result.JSON) {
			t.Fatalf("point %d bytes differ across restart", i)
		}
	}
	if c := svc2.Counters(); c.EngineRuns != 0 {
		t.Fatalf("restarted sweep ran %d engine runs, want 0", c.EngineRuns)
	}
}

func mustExpand(t *testing.T, ss *spec.SweepSpec) []*spec.Spec {
	t.Helper()
	points, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}
