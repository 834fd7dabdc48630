package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

func TestMain(m *testing.M) {
	jobs = 2
	os.Exit(m.Run())
}

// testGrid sweeps a small stream design over six points, so a
// two-daemon fleet gets a shard on each.
const (
	testDesign = `"design": {
	  "masters": [{"name": "dma", "domain": "acc",
	    "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
	                  "write": true, "burst": "INCR8"}}],
	  "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	    "region": {"lo": 0, "hi": "0x20000"}}]
	}`
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

// paperDocs are the checked-in paper sweeps. Each sits beside the CSV
// it must reproduce byte for byte: the output of the hand-coded DES
// CSV mode that -csv replaced.
var paperDocs = []string{"des_accuracy", "des_lob"}

func paperPath(name, ext string) string {
	return filepath.Join("..", "..", "examples", "paper", name+ext)
}

func TestPaperCSVsMatchCheckedIn(t *testing.T) {
	defer func(j int) { jobs = j }(jobs)
	for _, name := range paperDocs {
		want, err := os.ReadFile(paperPath(name, ".csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/local/j=%d", name, j), func(t *testing.T) {
				jobs = j
				var got bytes.Buffer
				if err := runGrid(paperPath(name, ".json"), nil, sweepclient.DefaultRetries, "", true, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("local CSV differs from %s.csv:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
				}
			})
		}
		for _, members := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/members=%d", name, members), func(t *testing.T) {
				var got bytes.Buffer
				if err := runGrid(paperPath(name, ".json"), startDaemons(t, members), sweepclient.DefaultRetries, "", true, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("remote CSV differs from %s.csv:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
				}
			})
		}
	}
}

// TestPaperAccuracySweepRollsBack guards the checked-in accuracy CSV
// itself: its 0.9 point must roll back, or the sweep exercises nothing.
func TestPaperAccuracySweepRollsBack(t *testing.T) {
	data, err := os.ReadFile(paperPath("des_accuracy", ".csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(string(data), "\n") {
		if cols := strings.Split(row, ","); cols[0] == "0.90" {
			if len(cols) != 7 || cols[4] == "0" {
				t.Fatalf("accuracy 0.9 row %q never rolled back; the sweep exercises nothing", row)
			}
			return
		}
	}
	t.Fatal("des_accuracy.csv has no 0.90 row")
}

func TestCSVRejectsUnsupportedField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	doc := `{"name": "gap-test", ` + testDesign + `,
	  "run": {"mode": "als", "cycles": 3000},
	  "sweep": {"axes": [
	    {"field": "run.accuracy", "values": [1, 0.9]},
	    {"field": "design.masters[0].generator.gap", "values": [0, 2]}
	  ]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runGrid(path, nil, sweepclient.DefaultRetries, "", true, &out)
	if err == nil || !strings.Contains(err.Error(), `"design.masters[0].generator.gap"`) {
		t.Fatalf("unsupported swept field: got error %v, want one naming the field", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected sweep still wrote %q", out.Bytes())
	}
	// The same document is a valid NDJSON sweep.
	if err := runGrid(path, nil, sweepclient.DefaultRetries, "", false, &out); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteGridMatchesLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(testGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := runGrid(path, nil, sweepclient.DefaultRetries, "", false, &local); err != nil {
		t.Fatal(err)
	}

	// One daemon relays its own aggregate line; two daemons shard the
	// grid and the aggregate is rebuilt. Both must match the local
	// stream byte for byte.
	for _, members := range []int{1, 2} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			var remote bytes.Buffer
			if err := runGrid(path, startDaemons(t, members), sweepclient.DefaultRetries, "", false, &remote); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remote.Bytes(), local.Bytes()) {
				t.Fatalf("remote grid stream differs from local:\nremote: %s\nlocal:  %s", remote.Bytes(), local.Bytes())
			}
		})
	}
}
