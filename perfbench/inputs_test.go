package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"coemu/internal/spec"
)

var workloads = []string{"engine-rollback", "engine-stream", "service-mix", "remote-tcp"}

// generate builds a workload's inputs, with two service-mix rounds.
func generate(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	in, err := inputsFor(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	if workload == "service-mix" {
		addRound(in)
		addRound(in)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOneSeedYieldsByteIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(t, w, 7), generate(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if c := generate(t, w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// TestInputsAreValidAndDistinct checks that every generated document is
// a valid spec or sweep and that no two share a canonical hash, so a
// request meant to run the engine is never answered from a cache.
func TestInputsAreValidAndDistinct(t *testing.T) {
	for _, w := range workloads {
		in, err := inputsFor(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if w == "service-mix" {
			addRound(in)
			addRound(in)
		}
		seen := map[string]bool{}
		note := func(sp *spec.Spec) {
			h, err := sp.CanonicalHash()
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if seen[h] {
				t.Errorf("%s: two generated specs share hash %s", w, h)
			}
			seen[h] = true
		}
		for i, doc := range in.Specs {
			sp, err := spec.Parse(doc)
			if err != nil {
				t.Fatalf("%s spec %d: %v", w, i, err)
			}
			if _, _, err := sp.Compile(); err != nil {
				t.Fatalf("%s spec %d: compile: %v", w, i, err)
			}
			note(sp)
		}
		for i, doc := range in.Sweeps {
			ss, err := spec.ParseSweep(doc)
			if err != nil {
				t.Fatalf("%s sweep %d: %v", w, i, err)
			}
			points, err := ss.Expand()
			if err != nil || len(points) != sweepPoints {
				t.Fatalf("%s sweep %d: %d points, %v", w, i, len(points), err)
			}
			for _, p := range points {
				note(p)
			}
		}
		if len(in.Order) != 0 && len(in.Order) != len(in.Specs) {
			t.Errorf("%s: a round runs %d of %d specs", w, len(in.Order), len(in.Specs))
		}
	}
}

func TestServiceRoundShape(t *testing.T) {
	reqs := addRound(serviceInputs(5))
	if len(reqs) != mixBlocks*blockSize {
		t.Fatalf("round has %d requests", len(reqs))
	}
	per := map[string]int{}
	for _, r := range reqs {
		per[r.Class]++
	}
	want := map[string]int{
		classFresh: mixBlocks * blockFresh, classCacheHit: mixBlocks * blockCacheHit,
		classStoreHit: mixBlocks * blockStoreHit, classSweep: mixBlocks * blockSweep,
	}
	for c, n := range want {
		if per[c] != n {
			t.Errorf("class %s: %d requests, want %d", c, per[c], n)
		}
	}
	// A store-hit spec comes round again only after more distinct
	// results than the daemon's memory cache holds.
	if storedSpecs <= daemonCache {
		t.Errorf("stored set %d fits the %d-entry memory cache", storedSpecs, daemonCache)
	}
	// Between two requests for one hot spec, fewer results enter the
	// memory cache than it holds, so cache-hit requests always hit. A
	// sweep sent earlier may still be inserting its points, so one more
	// sweep's worth counts against the cache.
	last := map[int]int{}
	for i, r := range reqs {
		if r.Class != classCacheHit {
			continue
		}
		if j, ok := last[r.Doc]; ok {
			inserted := 0
			for _, q := range reqs[j+1 : i] {
				switch q.Class {
				case classFresh, classStoreHit:
					inserted++
				case classSweep:
					inserted += sweepPoints
				}
			}
			if inserted+sweepPoints+hotSpecs > daemonCache {
				t.Fatalf("hot spec %d: %d results inserted between requests %d and %d", r.Doc, inserted, j, i)
			}
		}
		last[r.Doc] = i
	}
}
