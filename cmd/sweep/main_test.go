package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"coemu"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

func TestMain(m *testing.M) {
	jobs = 2
	os.Exit(m.Run())
}

// testSpec runs a small stream design; testGrid sweeps the same design
// over six points, so a two-daemon fleet gets a shard on each.
const (
	testDesign = `"design": {
	  "masters": [{"name": "dma", "domain": "acc",
	    "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
	                  "write": true, "burst": "INCR8"}}],
	  "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	    "region": {"lo": 0, "hi": "0x20000"}}]
	}`
	testSpec = `{"name": "sweep-test", ` + testDesign + `, "run": {"mode": "als", "cycles": 4000}}`
	testGrid = `{"name": "grid-test", ` + testDesign + `,
	  "run": {"mode": "als", "cycles": 3000},
	  "sweep": {"axes": [
	    {"field": "run.accuracy", "values": [1, 0.9, 0.5]},
	    {"field": "run.lob_depth", "values": [32, 64]}
	  ]}}`
)

// startDaemons starts n daemons, each serving the three endpoints a
// sweep fleet uses — /v1/healthz, /v1/sweep (a {"specs": [...]} batch)
// and /v1/results/{hash} — from its own in-process service, and
// returns their base URLs.
func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = startDaemon(t)
	}
	return urls
}

func startDaemon(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Options{Workers: 2})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		res, ok := svc.Lookup(r.PathValue("hash"))
		if !ok {
			http.Error(w, `{"error":"no completed result for that hash"}`, http.StatusNotFound)
			return
		}
		_, _ = w.Write(res.JSON)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var batch struct {
			Specs []json.RawMessage `json:"specs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		points := make([]*spec.Spec, len(batch.Specs))
		for i, raw := range batch.Specs {
			sp, err := spec.Parse(raw)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			points[i] = sp
		}
		sw, err := svc.StartSweepPoints(r.Context(), points, true)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		enc := json.NewEncoder(w)
		agg := service.NewSweepAggregator(sw.Total())
		for pr := range sw.Results() {
			if err := enc.Encode(agg.Add(pr)); err != nil {
				return
			}
		}
		_ = enc.Encode(agg.Line())
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL
}

// fleetRunner builds a remoteRunner over a fresh fleet of n daemons.
func fleetRunner(t *testing.T, base *coemu.Spec, n int) *remoteRunner {
	t.Helper()
	fleet, err := sweepclient.NewFleet(fleetOptions(startDaemons(t, n), sweepclient.DefaultRetries))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	return &remoteRunner{base: base, fleet: fleet}
}

func TestRemoteRunnerMatchesLocal(t *testing.T) {
	s, err := coemu.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := desBase{design: func() coemu.Design { return d }, cfg: cfg, cycles: s.Run.Cycles}

	// A small accuracy sweep, shaped like writeDESAccuracy's.
	points := []desPoint{{mode: coemu.Conservative}}
	for _, p := range []float64{1, 0.9, 0.5} {
		points = append(points, desPoint{mode: sweepMode(base), setAccuracy: true,
			accuracy: p, faultSeed: 12345, rollbackVars: 1000})
	}
	want, err := (&localRunner{base: base}).runPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if want[2].rollbacks == 0 {
		t.Fatal("accuracy 0.9 point never rolled back; the sweep exercises nothing")
	}

	for _, members := range []int{1, 2} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			got, err := fleetRunner(t, s, members).runPoints(points)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if *got[i] != *want[i] {
					t.Fatalf("point %d: remote %+v, local %+v", i, *got[i], *want[i])
				}
			}
		})
	}
}

func TestRemoteGridMatchesLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(testGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := runGrid(path, nil, sweepclient.DefaultRetries, "", &local); err != nil {
		t.Fatal(err)
	}

	// One daemon relays its own aggregate line; two daemons shard the
	// grid and the aggregate is rebuilt. Both must match the local
	// stream byte for byte.
	for _, members := range []int{1, 2} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			var remote bytes.Buffer
			if err := runGrid(path, startDaemons(t, members), sweepclient.DefaultRetries, "", &remote); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remote.Bytes(), local.Bytes()) {
				t.Fatalf("remote grid stream differs from local:\nremote: %s\nlocal:  %s", remote.Bytes(), local.Bytes())
			}
		})
	}
}
