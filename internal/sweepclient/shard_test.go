package sweepclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// testPoints builds n tiny distinct expanded points.
func testPoints(t *testing.T, n int) []*spec.Spec {
	t.Helper()
	points := make([]*spec.Spec, n)
	for i := range points {
		src := fmt.Sprintf(`{
		  "name": "pt-%d",
		  "design": {
		    "masters": [{"name": "dma", "domain": "acc",
		      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
		                    "write": true, "burst": "INCR8"}}],
		    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
		      "region": {"lo": 0, "hi": "0x20000"}}]
		  },
		  "run": {"mode": "als", "cycles": %d}
		}`, i, 1000+100*i)
		sp, err := spec.Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		points[i] = sp
	}
	return points
}

// decodeBatch pulls the submitted specs' names out of a request body.
func decodeBatch(t *testing.T, r *http.Request) []string {
	t.Helper()
	var batch struct {
		Specs []json.RawMessage `json:"specs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		t.Errorf("bad batch body: %v", err)
		return nil
	}
	names := make([]string, len(batch.Specs))
	for i, raw := range batch.Specs {
		var s struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Errorf("bad spec in batch: %v", err)
		}
		names[i] = s.Name
	}
	return names
}

// serveLines writes one clean NDJSON line per submitted spec plus an
// aggregate, the way a healthy daemon would.
func serveLines(t *testing.T, w http.ResponseWriter, names []string) {
	t.Helper()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	agg := service.NewSweepAggregator(len(names))
	for i, name := range names {
		pr := pointResult(t, i, name)
		if err := enc.Encode(agg.Add(pr)); err != nil {
			return
		}
	}
	if err := enc.Encode(agg.Line()); err != nil {
		return
	}
}

// pointResult fabricates a deterministic per-point result whose report
// bytes depend only on the point name.
func pointResult(t *testing.T, index int, name string) service.PointResult {
	t.Helper()
	res := &service.Result{JSON: []byte(fmt.Sprintf(`{"perf_cycles_per_sec":%d,"stats":{"committed":%d}}`,
		1000+len(name), 50000))}
	return service.PointResult{Index: index, Name: name, Hash: "h-" + name, Result: res}
}

// newSweepServer starts a daemon stub whose POST /v1/sweep is sweep.
// It answers /v1/healthz like an idle daemon and 404s every
// /v1/results/{hash} lookup, so every retry round re-submits.
func newSweepServer(t *testing.T, sweep http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no completed result for that hash"}`, http.StatusNotFound)
	})
	mux.HandleFunc("POST /v1/sweep", sweep)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// rebuiltAggregate writes lines with WriteNDJSON and no relayed
// aggregate, then decodes the rebuilt aggregate line the stream ends
// with.
func rebuiltAggregate(t *testing.T, lines []service.SweepLine) service.SweepAggregate {
	t.Helper()
	var out bytes.Buffer
	if err := WriteNDJSON(&out, lines, nil); err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimSpace(out.Bytes())
	var aggLine service.SweepAggregateLine
	if err := json.Unmarshal(trimmed[bytes.LastIndexByte(trimmed, '\n')+1:], &aggLine); err != nil {
		t.Fatal(err)
	}
	return aggLine.Aggregate
}

func TestCleanRoundRelaysAggregateVerbatim(t *testing.T) {
	points := testPoints(t, 3)
	var stream bytes.Buffer
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		names := decodeBatch(t, r)
		serveLines(t, &teeWriter{w: w, buf: &stream}, names)
	})

	lines, rawAgg, err := newTestFleet(t, nil, srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || rawAgg == nil {
		t.Fatalf("lines=%d rawAgg=%v, want 3 lines and a relayed aggregate", len(lines), rawAgg != nil)
	}
	for i, ln := range lines {
		if ln.Index != i || ln.Name != points[i].Name || ln.Error != "" {
			t.Fatalf("line %d = %+v", i, ln)
		}
	}

	// The reassembled stream must be byte-identical to what the daemon
	// sent: same encoder, same structs, verbatim aggregate.
	var out bytes.Buffer
	if err := WriteNDJSON(&out, lines, rawAgg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), stream.Bytes()) {
		t.Fatalf("reassembled stream differs:\ngot:  %s\nwant: %s", out.Bytes(), stream.Bytes())
	}
}

// teeWriter tees a ResponseWriter so a test can capture the exact stream.
type teeWriter struct {
	w   http.ResponseWriter
	buf *bytes.Buffer
}

func (t *teeWriter) Header() http.Header { return t.w.Header() }
func (t *teeWriter) WriteHeader(c int)   { t.w.WriteHeader(c) }
func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.w.Write(p)
}

func TestFleetFailoverToSecondDaemon(t *testing.T) {
	points := testPoints(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on

	var hits atomic.Int32
	live := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		serveLines(t, w, decodeBatch(t, r))
	})

	lines, _, err := newTestFleet(t, nil, dead.URL, live.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Fatalf("live daemon hit %d times, want 1", hits.Load())
	}
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("line %d failed after failover: %s", i, ln.Error)
		}
	}
}

func TestFleetMidStreamDisconnectResumesMissingOnly(t *testing.T) {
	points := testPoints(t, 4)
	var round atomic.Int32
	var secondBatch atomic.Value
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		names := decodeBatch(t, r)
		if round.Add(1) == 1 {
			// Serve the first two lines, then die mid-stream.
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			agg := service.NewSweepAggregator(len(names))
			for i := 0; i < 2; i++ {
				if err := enc.Encode(agg.Add(pointResult(t, i, names[i]))); err != nil {
					return
				}
			}
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		secondBatch.Store(strings.Join(names, ","))
		serveLines(t, w, names)
	})

	lines, rawAgg, err := newTestFleet(t, nil, srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if rawAgg != nil {
		t.Fatal("aggregate relayed despite a reassembled stream")
	}
	// Only the two points lost to the disconnect are re-submitted; the
	// two received lines are kept (store-aware resumption).
	if got := secondBatch.Load(); got != "pt-2,pt-3" {
		t.Fatalf("second round submitted %q, want pt-2,pt-3", got)
	}
	for i, ln := range lines {
		if ln.Index != i || ln.Name != points[i].Name || ln.Error != "" {
			t.Fatalf("line %d = %+v", i, ln)
		}
	}
}

func TestFleetRetryAfterHonoredOn503(t *testing.T) {
	points := testPoints(t, 1)
	var round atomic.Int32
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		if round.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		serveLines(t, w, decodeBatch(t, r))
	})

	// The hint must fit under MaxBackoff to be honored in full, so this
	// fleet raises the ceiling above the 1s hint (newTestFleet's 5ms
	// ceiling would clamp it — that behavior has its own test below).
	opts := testFleetOptions(t, srv.URL)
	opts.MaxBackoff = 2 * time.Second
	start := time.Now()
	lines, _, err := startFleet(t, opts).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Error != "" {
		t.Fatalf("line failed: %s", lines[0].Error)
	}
	// The 1s Retry-After must outrank the millisecond backoff.
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retried after %v; Retry-After of 1s not honored", waited)
	}
}

func TestFleetRetryAfterCappedAtMaxBackoff(t *testing.T) {
	points := testPoints(t, 1)
	var round atomic.Int32
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		if round.Add(1) == 1 {
			// A misbehaving daemon advertising an hour must not stall the
			// sweep past the configured backoff ceiling.
			w.Header().Set("Retry-After", "3600")
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		serveLines(t, w, decodeBatch(t, r))
	})

	start := time.Now()
	lines, _, err := newTestFleet(t, nil, srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Error != "" {
		t.Fatalf("line failed: %s", lines[0].Error)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("retried after %v; Retry-After of 1h not capped at the 5ms MaxBackoff", waited)
	}
}

func TestFleetRetryAfterHTTPDateHonored(t *testing.T) {
	points := testPoints(t, 1)
	var round atomic.Int32
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		if round.Add(1) == 1 {
			// RFC 7231's other Retry-After form: an absolute HTTP-date.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		serveLines(t, w, decodeBatch(t, r))
	})

	opts := testFleetOptions(t, srv.URL)
	opts.MaxBackoff = 3 * time.Second
	start := time.Now()
	lines, _, err := startFleet(t, opts).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Error != "" {
		t.Fatalf("line failed: %s", lines[0].Error)
	}
	// http.TimeFormat has second granularity, so a date 2s ahead parses
	// to a delay anywhere in (1s, 2s]; it must outrank the ms backoff.
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Fatalf("retried after %v; HTTP-date Retry-After not honored", waited)
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("delta-seconds: got %v, want 7s", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Fatalf("negative delta: got %v, want 0", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 25*time.Second || d > 30*time.Second {
		t.Fatalf("HTTP-date +30s: got %v, want ~30s", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past HTTP-date: got %v, want 0", d)
	}
	if d := parseRetryAfter("not a date"); d != 0 {
		t.Fatalf("garbage: got %v, want 0", d)
	}
}

func TestFleetBadRequestIsPermanent(t *testing.T) {
	points := testPoints(t, 1)
	var hits atomic.Int32
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	})

	_, _, err := newTestFleet(t, nil, srv.URL).RunPoints(context.Background(), points)
	if err == nil || !strings.Contains(err.Error(), "bad spec") {
		t.Fatalf("err = %v, want the daemon's 400", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("daemon hit %d times for a permanent rejection, want 1", hits.Load())
	}
}

func TestFleetPointErrorRetriesThenSucceeds(t *testing.T) {
	points := testPoints(t, 2)
	var round atomic.Int32
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		names := decodeBatch(t, r)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		agg := service.NewSweepAggregator(len(names))
		for i, name := range names {
			pr := pointResult(t, i, name)
			if round.Add(0) == 0 && name == "pt-1" {
				// First round: fail the point like an injected panic.
				pr = service.PointResult{Index: i, Name: name, Hash: "h-" + name,
					Err: errors.New("service: worker panic")}
			}
			enc.Encode(agg.Add(pr))
		}
		enc.Encode(agg.Line())
		round.Add(1)
	})

	lines, rawAgg, err := newTestFleet(t, nil, srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if rawAgg != nil {
		t.Fatal("aggregate relayed despite a retried point")
	}
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("line %d still failed: %s", i, ln.Error)
		}
		if ln.Index != i || ln.Name != points[i].Name {
			t.Fatalf("line %d = %+v", i, ln)
		}
	}
	if round.Load() != 2 {
		t.Fatalf("daemon served %d rounds, want 2", round.Load())
	}
}

func TestFleetExhaustedBudgetSettlesErrorLines(t *testing.T) {
	points := testPoints(t, 2)
	srv := newSweepServer(t, func(w http.ResponseWriter, r *http.Request) {
		names := decodeBatch(t, r)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		agg := service.NewSweepAggregator(len(names))
		for i, name := range names {
			pr := pointResult(t, i, name)
			if name == "pt-0" {
				pr = service.PointResult{Index: i, Name: name, Err: errors.New("always broken")}
			}
			enc.Encode(agg.Add(pr))
		}
		enc.Encode(agg.Line())
	})

	opts := testFleetOptions(t, srv.URL)
	opts.Retries = 2
	lines, _, err := startFleet(t, opts).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Error != "always broken" {
		t.Fatalf("line 0 error = %q, want the daemon's last error", lines[0].Error)
	}
	if lines[1].Error != "" {
		t.Fatalf("healthy point failed: %s", lines[1].Error)
	}

	// The rebuilt aggregate counts the surviving error.
	if agg := rebuiltAggregate(t, lines); agg.OK != 1 || agg.Errors != 1 || agg.Points != 2 {
		t.Fatalf("rebuilt aggregate = %+v", agg)
	}
}

func TestFleetRejectsEmptyURLs(t *testing.T) {
	if _, err := NewFleet(FleetOptions{}); err == nil {
		t.Fatal("NewFleet accepted an empty URL list")
	}
	if _, err := NewFleet(FleetOptions{URLs: []string{" "}}); err == nil {
		t.Fatal("NewFleet accepted a blank URL")
	}
}
