package sweepclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// fleetStore is the stub daemons' shared content-addressed store:
// canonical hash → report bytes, with engine-run accounting so tests
// can prove a store-held point never re-ran.
type fleetStore struct {
	mu         sync.Mutex
	data       map[string][]byte
	engineRuns map[string]int
}

func newFleetStore() *fleetStore {
	return &fleetStore{data: make(map[string][]byte), engineRuns: make(map[string]int)}
}

func (fs *fleetStore) get(hash string) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.data[hash]
	return data, ok
}

// run serves hash from the store, or "runs the engine" (records the
// run and stores the report) on a miss — the real daemon's dedup. It
// reports whether the store answered.
func (fs *fleetStore) run(hash string, report []byte) (fromStore bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.data[hash]; ok {
		return true
	}
	fs.engineRuns[hash]++
	fs.data[hash] = report
	return false
}

func (fs *fleetStore) totalRuns() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, c := range fs.engineRuns {
		n += c
	}
	return n
}

// reportFor fabricates the deterministic canonical report bytes for a
// point name, so every stub daemon produces identical results.
func reportFor(name string) []byte {
	return []byte(fmt.Sprintf(`{"point":%q,"perf_cycles_per_sec":%d}`, name, 100+len(name)))
}

// stubDaemon speaks just enough of coemud's wire protocol for the
// fleet: /v1/healthz, /v1/sweep, /v1/results/{hash}. Setting down
// makes it drop every connection (a dead process); dieAfter > 0 cuts
// the next sweep stream after that many lines and goes down.
type stubDaemon struct {
	t        *testing.T
	store    *fleetStore
	down     atomic.Bool
	mu       sync.Mutex
	posts    int
	received map[string]int // point name → times received in a batch
	dieAfter int
	stream   []byte // the last complete /v1/sweep response body
	srv      *httptest.Server
}

func startStubDaemon(t *testing.T, fs *fleetStore) *stubDaemon {
	t.Helper()
	d := &stubDaemon{t: t, store: fs, received: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"queue":0,"queue_capacity":8,"saturated":false,"store":{"entries":0,"bytes":0,"quarantined":0}}`)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		if data, ok := fs.get(r.PathValue("hash")); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			return
		}
		http.Error(w, `{"error":"no completed result for that hash"}`, http.StatusNotFound)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		d.mu.Lock()
		d.posts++
		cut := d.dieAfter
		d.dieAfter = 0
		d.mu.Unlock()
		var batch struct {
			Specs []json.RawMessage `json:"specs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			d.t.Errorf("stub daemon: bad batch: %v", err)
			return
		}
		agg := service.NewSweepAggregator(len(batch.Specs))
		var sent bytes.Buffer
		enc := json.NewEncoder(io.MultiWriter(w, &sent))
		for i, raw := range batch.Specs {
			sp, err := spec.Parse(raw)
			if err != nil {
				d.t.Errorf("stub daemon: bad spec in batch: %v", err)
				return
			}
			hash, err := sp.CanonicalHash()
			if err != nil {
				d.t.Errorf("stub daemon: hash: %v", err)
				return
			}
			d.mu.Lock()
			d.received[sp.Name]++
			d.mu.Unlock()
			rep := reportFor(sp.Name)
			fromStore := fs.run(hash, rep)
			pr := service.PointResult{Index: i, Name: sp.Name, Hash: hash, Result: &service.Result{JSON: rep},
				Cached: fromStore, FromStore: fromStore}
			if err := enc.Encode(agg.Add(pr)); err != nil {
				return
			}
			if cut > 0 && i+1 == cut {
				// Die mid-stream: flush what was served, cut the
				// connection, and answer nothing ever again.
				if fl, ok := w.(http.Flusher); ok {
					fl.Flush()
				}
				d.down.Store(true)
				d.drop(w)
				return
			}
		}
		if err := enc.Encode(agg.Line()); err != nil {
			return
		}
		d.mu.Lock()
		d.stream = sent.Bytes()
		d.mu.Unlock()
	})
	d.srv = httptest.NewServer(mux)
	t.Cleanup(d.srv.Close)
	return d
}

// drop severs the client's connection without an HTTP response, the
// way a SIGKILLed daemon would.
func (d *stubDaemon) drop(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (d *stubDaemon) lastStream() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stream
}

func (d *stubDaemon) sweepPosts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.posts
}

func (d *stubDaemon) batchPoints() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.received {
		n += c
	}
	return n
}

// testFleetOptions is the fleet configuration the tests share: fast
// backoff and probing, and eviction on the first failure.
func testFleetOptions(t *testing.T, urls ...string) FleetOptions {
	return FleetOptions{
		URLs:          urls,
		Retries:       8,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
		Logf:          t.Logf,
	}
}

// startFleet builds a fleet that is closed when the test ends.
func startFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func newTestFleet(t *testing.T, journal *Journal, urls ...string) *Fleet {
	t.Helper()
	opts := testFleetOptions(t, urls...)
	opts.Journal = journal
	return startFleet(t, opts)
}

// requireClean asserts every line settled cleanly, in point order.
func requireClean(t *testing.T, points []*spec.Spec, lines []service.SweepLine) {
	t.Helper()
	if len(lines) != len(points) {
		t.Fatalf("got %d lines for %d points", len(lines), len(points))
	}
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("point %d (%s) failed: %s", i, points[i].Name, ln.Error)
		}
		if ln.Index != i || ln.Name != points[i].Name {
			t.Fatalf("line %d is (index %d, %s), want (index %d, %s)", i, ln.Index, ln.Name, i, points[i].Name)
		}
		if string(ln.Report) != string(reportFor(points[i].Name)) {
			t.Fatalf("point %d report bytes differ from the canonical report", i)
		}
	}
}

func TestFleetShardsAcrossDaemons(t *testing.T) {
	fs := newFleetStore()
	daemons := []*stubDaemon{startStubDaemon(t, fs), startStubDaemon(t, fs), startStubDaemon(t, fs)}
	urls := []string{daemons[0].srv.URL, daemons[1].srv.URL, daemons[2].srv.URL}
	points := testPoints(t, 30)

	fleet := newTestFleet(t, nil, urls...)
	lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg != nil {
		t.Fatal("multi-shard sweep relayed a single daemon's aggregate")
	}

	// Every daemon carries a shard, no daemon exceeds the bounded-load
	// cap, and every point was submitted exactly once in total.
	cap := 13 // ceil(1.25 * 30 / 3)
	total := 0
	for i, d := range daemons {
		n := d.batchPoints()
		if n == 0 {
			t.Fatalf("daemon %d received no points; sweep was not sharded", i)
		}
		if n > cap {
			t.Fatalf("daemon %d received %d points, above the bounded-load cap %d", i, n, cap)
		}
		total += n
	}
	if total != len(points) {
		t.Fatalf("daemons received %d submissions for %d points; sharding duplicated or dropped work", total, len(points))
	}
	if runs := fs.totalRuns(); runs != len(points) {
		t.Fatalf("%d engine runs for %d points", runs, len(points))
	}
}

func TestFleetSingleDaemonRelaysAggregateVerbatim(t *testing.T) {
	fs := newFleetStore()
	d := startStubDaemon(t, fs)
	points := testPoints(t, 4)
	fleet := newTestFleet(t, nil, d.srv.URL)

	// The second sweep is answered from the store, so only a relayed
	// aggregate can carry its hit count.
	for round, wantHits := range []int{0, 4} {
		lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, points, lines)
		if rawAgg == nil {
			t.Fatalf("sweep %d: single clean shard must relay the daemon's aggregate verbatim", round)
		}
		var aggLine service.SweepAggregateLine
		if err := json.Unmarshal(rawAgg, &aggLine); err != nil {
			t.Fatalf("sweep %d: relayed aggregate is not an aggregate line: %v", round, err)
		}
		if agg := aggLine.Aggregate; agg.Points != 4 || agg.OK != 4 || agg.StoreHits != wantHits {
			t.Fatalf("sweep %d: relayed aggregate counts %+v, want 4/4 with %d store hits", round, agg, wantHits)
		}

		// The reassembled stream must be byte-identical to what the
		// daemon sent: same encoder, same structs, verbatim aggregate.
		var out bytes.Buffer
		if err := WriteNDJSON(&out, lines, rawAgg); err != nil {
			t.Fatal(err)
		}
		if sent := d.lastStream(); !bytes.Equal(out.Bytes(), sent) {
			t.Fatalf("sweep %d: reassembled stream differs:\ngot:  %s\nwant: %s", round, out.Bytes(), sent)
		}
	}
}

func TestFleetMultiShardStreamMatchesAggregator(t *testing.T) {
	fs := newFleetStore()
	urls := []string{startStubDaemon(t, fs).srv.URL, startStubDaemon(t, fs).srv.URL, startStubDaemon(t, fs).srv.URL}
	points := testPoints(t, 12)

	lines, rawAgg, err := newTestFleet(t, nil, urls...).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg != nil {
		t.Fatal("multi-shard sweep relayed a single daemon's aggregate")
	}
	var got bytes.Buffer
	if err := WriteNDJSON(&got, lines, nil); err != nil {
		t.Fatal(err)
	}

	// The same results through service.SweepAggregator in one process,
	// the way coemud's /v1/sweep and local -grid runs write them.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	agg := service.NewSweepAggregator(len(points))
	for i, p := range points {
		hash, err := p.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		pr := service.PointResult{Index: i, Name: p.Name, Hash: hash, Result: &service.Result{JSON: reportFor(p.Name)}}
		if err := enc.Encode(agg.Add(pr)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(agg.Line()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("rebuilt stream differs from SweepAggregator output:\ngot:  %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}

func TestFleetConcurrentShardDeathNoDoubleCount(t *testing.T) {
	fs := newFleetStore()
	daemons := []*stubDaemon{startStubDaemon(t, fs), startStubDaemon(t, fs), startStubDaemon(t, fs)}
	urls := []string{daemons[0].srv.URL, daemons[1].srv.URL, daemons[2].srv.URL}
	points := testPoints(t, 30)

	// Two of the three daemons die mid-stream, concurrently, each after
	// serving one line of its shard. Their unfinished points must
	// rebalance onto the survivor; their served points must not re-run.
	daemons[0].dieAfter = 1
	daemons[1].dieAfter = 1

	fleet := newTestFleet(t, nil, urls...)
	lines, _, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)

	// No point is double-counted in the aggregate: exactly one row per
	// point, each index once, totals exact.
	agg := rebuiltAggregate(t, lines)
	if agg.Points != 30 || agg.OK != 30 || agg.Errors != 0 {
		t.Fatalf("aggregate counts %+v, want 30 points / 30 ok / 0 errors", agg)
	}
	seen := make(map[int]bool)
	for _, row := range agg.Table {
		if seen[row.Index] {
			t.Fatalf("point %d double-counted in the aggregate", row.Index)
		}
		seen[row.Index] = true
	}
	if len(seen) != 30 {
		t.Fatalf("aggregate table has %d rows, want 30", len(seen))
	}

	// No engine run was duplicated anywhere in the fleet: a point either
	// ran on its original shard before the cut (and survivors answered
	// from the shared store) or ran exactly once on a survivor.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for hash, runs := range fs.engineRuns {
		if runs != 1 {
			t.Fatalf("hash %s ran the engine %d times, want exactly 1", hash[:8], runs)
		}
	}
	if len(fs.engineRuns) != 30 {
		t.Fatalf("%d hashes ran for 30 points", len(fs.engineRuns))
	}
}

func TestFleetEvictionAndReadmission(t *testing.T) {
	fs := newFleetStore()
	d0, d1 := startStubDaemon(t, fs), startStubDaemon(t, fs)
	all := testPoints(t, 40)
	first, second := all[:20], all[20:]

	// d0 is dead before the fleet starts: the synchronous initial probe
	// round evicts it and the whole first sweep lands on d1.
	d0.down.Store(true)
	fleet := newTestFleet(t, nil, d0.srv.URL, d1.srv.URL)
	lines, _, err := fleet.RunPoints(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, first, lines)
	if d0.sweepPosts() != 0 {
		t.Fatal("evicted daemon still received sweep submissions")
	}

	// d0 recovers; the prober must re-admit it without intervention.
	d0.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := fleet.Health()
		if h[0].Healthy && h[1].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered daemon not re-admitted; health %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh sweep shards across both again...
	lines, _, err = fleet.RunPoints(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, second, lines)
	if d0.sweepPosts() == 0 {
		t.Fatal("re-admitted daemon received no share of the next sweep")
	}

	// ...and re-running the first batch is pure store traffic: the
	// re-admitted daemon serves store-held hashes without engine runs.
	runsBefore := fs.totalRuns()
	lines, _, err = fleet.RunPoints(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, first, lines)
	if runs := fs.totalRuns(); runs != runsBefore {
		t.Fatalf("re-running store-held points cost %d extra engine runs", runs-runsBefore)
	}
}

func TestFleetJournalResumeSkipsSubmission(t *testing.T) {
	fs := newFleetStore()
	d := startStubDaemon(t, fs)
	points := testPoints(t, 6)
	path := filepath.Join(t.TempDir(), "resume.ndjson")

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fleet1 := newTestFleet(t, j1, d.srv.URL)
	firstLines, _, err := fleet1.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, firstLines)
	fleet1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if j1.Len() != len(points) {
		t.Fatalf("journal holds %d hashes after a %d-point sweep", j1.Len(), len(points))
	}

	// A "restarted client": new fleet, same journal. The whole sweep
	// must restore from the store — zero sweep submissions, zero new
	// engine runs, byte-identical lines.
	postsBefore, runsBefore := d.sweepPosts(), fs.totalRuns()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fleet2 := newTestFleet(t, j2, d.srv.URL)
	resumedLines, rawAgg, err := fleet2.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, resumedLines)
	if d.sweepPosts() != postsBefore {
		t.Fatalf("resume re-submitted a sweep (%d posts, had %d)", d.sweepPosts(), postsBefore)
	}
	if fs.totalRuns() != runsBefore {
		t.Fatal("resume caused engine runs for journaled points")
	}
	if rawAgg != nil {
		t.Fatal("journal-restored sweep relayed an aggregate it never received")
	}
	for i := range firstLines {
		a, _ := json.Marshal(firstLines[i])
		b, _ := json.Marshal(resumedLines[i])
		if string(a) != string(b) {
			t.Fatalf("resumed line %d differs:\n%s\n%s", i, a, b)
		}
	}
}
