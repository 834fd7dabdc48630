package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coemu/internal/metrics"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/store"
)

// reqResult is one timed service-mix request.
type reqResult struct {
	Request
	lat    float64 // seconds, send to last body byte
	status int
	body   []byte
	err    error
}

// serviceRound is one timed round of requests.
type serviceRound struct {
	results []reqResult
	wall    time.Duration
}

// scrape is one read of coemud's /v1/stats and /metrics.
type scrape struct {
	stats service.Counters
	fams  []metrics.ParsedFamily
}

type httpDaemon struct {
	*daemon
	client *http.Client
	base   string
}

func (h *httpDaemon) get(path string) ([]byte, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (h *httpDaemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (h *httpDaemon) scrape(rec *spans) (*scrape, error) {
	s := rec.begin("http.stats", -1)
	b, err := h.get("/v1/stats")
	rec.end(s)
	if err != nil {
		return nil, err
	}
	var sc scrape
	if err := json.Unmarshal(b, &sc.stats); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	s = rec.begin("http.metrics", -1)
	b, err = h.get("/metrics")
	rec.end(s)
	if err != nil {
		return nil, err
	}
	if sc.fams, err = metrics.ParseExposition(bytes.NewReader(b)); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &sc, nil
}

// startService is the service-mix set-up: exec coemud over the
// populated store until /v1/healthz answers 200.
func startService(rc *runConfig, storeDir string) (*httpDaemon, float64, error) {
	args := []string{"-j", strconv.Itoa(runtime.NumCPU()), "-cache", strconv.Itoa(daemonCache), "-store", storeDir}
	client := &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}}
	var h *httpDaemon
	_, setup, err := startRepeated(rc, false, args, func(d *daemon) error {
		h = &httpDaemon{daemon: d, client: client, base: "http://" + d.addr}
		_, err := h.get("/v1/healthz")
		return err
	})
	return h, setup, err
}

// runRound sends one round's requests from runtime.NumCPU closed-loop
// clients: each sends its next request when its previous one completes.
func (h *httpDaemon) runRound(in *Inputs, reqs []Request, recs []*spans) serviceRound {
	results := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		var rec *spans
		if recs != nil {
			rec = recs[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := reqs[i]
				path, body := "/v1/run", []byte(in.Specs[rq.Doc])
				if rq.Class == classSweep {
					path, body = "/v1/sweep", in.Sweeps[rq.Doc]
				}
				s := rec.begin("http."+rq.Class, -1)
				t0 := time.Now()
				status, out, err := h.post(path, body)
				results[i] = reqResult{Request: rq, lat: time.Since(t0).Seconds(), status: status, body: out, err: err}
				rec.end(s)
			}
		}()
	}
	wg.Wait()
	return serviceRound{results: results, wall: time.Since(start)}
}

// runRounds runs whole rounds until dur has passed (at least one).
func (h *httpDaemon) runRounds(in *Inputs, dur time.Duration, recs []*spans) []serviceRound {
	var rounds []serviceRound
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < dur {
		if len(in.Rounds) >= maxRounds {
			break
		}
		reqs := addRound(in)
		rounds = append(rounds, h.runRound(in, reqs, recs))
	}
	return rounds
}

// checker verifies service-mix responses against the oracle.
type checker struct {
	specs  []expected   // oracle result per Inputs.Specs entry
	sweeps [][]expected // oracle result per point of each Inputs.Sweeps entry
}

// cover runs the oracle over the spec documents and sweep points of in
// that the checker has not seen yet: the set-up covers the hot and
// stored sets, and each later call the rounds added since.
func (ck *checker) cover(in *Inputs) error {
	docs := docsOf(in)[len(ck.specs):]
	nspecs := len(docs)
	var npoints []int
	for _, sw := range in.Sweeps[len(ck.sweeps):] {
		ss, err := spec.ParseSweep(sw)
		if err != nil {
			return err
		}
		points, err := ss.Expand()
		if err != nil {
			return err
		}
		for _, p := range points {
			docs = append(docs, mustJSON(p))
		}
		npoints = append(npoints, len(points))
	}
	want := oracleAll(docs)
	ck.specs = append(ck.specs, want[:nspecs]...)
	want = want[nspecs:]
	for _, n := range npoints {
		ck.sweeps = append(ck.sweeps, want[:n])
		want = want[n:]
	}
	return nil
}

// check verifies one response and returns the oracle results of the
// reports it carried, or an error describing the mismatch.
func (ck *checker) check(r *reqResult) ([]*expected, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.Class != classSweep {
		w := &ck.specs[r.Doc]
		if w.Err != nil {
			return nil, fmt.Errorf("oracle: %w", w.Err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, r.body); err != nil {
			return nil, err
		}
		if !bytes.Equal(got.Bytes(), w.View) {
			return nil, fmt.Errorf("report bytes differ from the in-process oracle")
		}
		return []*expected{w}, nil
	}
	var out []*expected
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	aggregate := false
	for sc.Scan() {
		var line struct {
			service.SweepLine
			Aggregate *service.SweepAggregate `json:"aggregate"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("sweep line: %w", err)
		}
		if line.Aggregate != nil {
			if line.Aggregate.OK != sweepPoints {
				return nil, fmt.Errorf("sweep aggregate: %d of %d points ok", line.Aggregate.OK, sweepPoints)
			}
			aggregate = true
			continue
		}
		if line.Error != "" || line.Index < 0 || line.Index >= sweepPoints {
			return nil, fmt.Errorf("sweep point %d: %q", line.Index, line.Error)
		}
		w := &ck.sweeps[r.Doc][line.Index]
		if w.Err != nil {
			return nil, fmt.Errorf("oracle: %w", w.Err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, line.Report); err != nil {
			return nil, err
		}
		if !bytes.Equal(got.Bytes(), w.View) {
			return nil, fmt.Errorf("sweep point %d: report bytes differ from the in-process oracle", line.Index)
		}
		out = append(out, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !aggregate || len(out) != sweepPoints {
		return nil, fmt.Errorf("sweep stream: %d point lines, aggregate %v", len(out), aggregate)
	}
	return out, nil
}

// mixTally is the verified outcome of a set of rounds.
type mixTally struct {
	attempted, failed, rejected int
	perClass                    map[string]int
	lat                         []float64
	classLat                    map[string][]float64
	problems                    []string
	cycRate, reqRate            []float64
	// round0 sums each distinct report of the first round once: the
	// modeled metric repeats exactly for a seed however many rounds run.
	round0     counts
	round0Seen map[*expected]bool
}

func (ck *checker) tally(rounds []serviceRound, t *mixTally) {
	if t.perClass == nil {
		t.perClass = map[string]int{}
		t.classLat = map[string][]float64{}
		t.round0Seen = map[*expected]bool{}
	}
	for ri, rd := range rounds {
		var cyc int64
		for i := range rd.results {
			r := &rd.results[i]
			t.attempted++
			t.lat = append(t.lat, r.lat)
			t.perClass[r.Class]++
			t.classLat[r.Class] = append(t.classLat[r.Class], r.lat)
			if r.status == http.StatusServiceUnavailable {
				t.rejected++
			}
			reps, err := ck.check(r)
			if err != nil {
				t.failed++
				if len(t.problems) < 20 {
					t.problems = append(t.problems, fmt.Sprintf("%s request (doc %d): %v", r.Class, r.Doc, err))
				}
				continue
			}
			for _, w := range reps {
				cyc += w.Report.Cycles
				if ri == 0 && !t.round0Seen[w] {
					t.round0Seen[w] = true
					t.round0.add(w.Report)
				}
			}
		}
		t.cycRate = append(t.cycRate, float64(cyc)/rd.wall.Seconds())
		t.reqRate = append(t.reqRate, float64(len(rd.results))/rd.wall.Seconds())
	}
}

// accounting checks coemud's /v1/stats deltas against the requests the
// benchmark sent: every fresh request and sweep point is one engine
// run, every store-hit request one store hit. Misses are derived as
// engine_runs + store_hits, because cache_misses double-counts.
func accounting(before, after *scrape, perClass map[string]int) (notes, problems []string) {
	b, a := before.stats, after.stats
	runs := a.EngineRuns - b.EngineRuns
	hits := a.StoreHits - b.StoreHits
	cacheHits := a.CacheHits - b.CacheHits
	wantRuns := int64(perClass[classFresh] + sweepPoints*perClass[classSweep])
	wantHits := int64(perClass[classStoreHit])
	notes = append(notes, fmt.Sprintf(
		"service accounting (/v1/stats deltas): engine_runs=%d (want %d) store_hits=%d (want %d) cache_hits=%d (cache-hit requests %d) derived_misses=%d cache_misses=%d",
		runs, wantRuns, hits, wantHits, cacheHits, perClass[classCacheHit], runs+hits, a.CacheMisses-b.CacheMisses))
	if runs != wantRuns {
		problems = append(problems, fmt.Sprintf("service accounting: engine_runs delta %d, benchmark sent %d fresh specs and sweep points", runs, wantRuns))
	}
	if hits != wantHits {
		problems = append(problems, fmt.Sprintf("service accounting: store_hits delta %d, benchmark sent %d store-hit requests", hits, wantHits))
	}
	return notes, problems
}

// histP50ms is the p50 of a /metrics histogram between two scrapes, in
// milliseconds.
func histP50ms(before, after *scrape, name string) (float64, error) {
	b, err := histBuckets(before.fams, name)
	if err != nil {
		return 0, err
	}
	a, err := histBuckets(after.fams, name)
	if err != nil {
		return 0, err
	}
	d, err := bucketDelta(b, a)
	if err != nil {
		return 0, err
	}
	return histQuantile(d, 0.5) * 1e3, nil
}

// populateStore writes the stored set's canonical reports into a fresh
// store directory, as a daemon that had run them would have.
func populateStore(dir string, in *Inputs, want []expected) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for _, i := range in.Stored {
		if want[i].Err != nil {
			return fmt.Errorf("stored spec %d: oracle: %w", i, want[i].Err)
		}
		sp, err := spec.Parse(in.Specs[i])
		if err != nil {
			return err
		}
		hash, err := sp.CanonicalHash()
		if err != nil {
			return err
		}
		if err := st.Put(hash, want[i].View); err != nil {
			return err
		}
	}
	return nil
}

// setUpService runs the oracle over the hot and stored sets, populates
// a fresh store with the stored set, starts coemud over it (the timed
// set-up) and warms the hot set. The returned stop function ends the
// daemon and removes the store.
func setUpService(rc *runConfig, in *Inputs) (*httpDaemon, *checker, float64, func(), error) {
	ck := &checker{}
	if err := ck.cover(in); err != nil {
		return nil, nil, 0, nil, err
	}
	storeDir := filepath.Join(rc.dir, "store")
	if err := populateStore(storeDir, in, ck.specs); err != nil {
		os.RemoveAll(storeDir)
		return nil, nil, 0, nil, fmt.Errorf("populate store: %w", err)
	}
	h, setup, err := startService(rc, storeDir)
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, nil, 0, nil, fmt.Errorf("setup: %w", err)
	}
	stop := func() {
		h.stop()
		os.RemoveAll(storeDir) // the store lives for this run only
	}
	for _, i := range in.Hot {
		if status, body, err := h.post("/v1/run", in.Specs[i]); err != nil || status != http.StatusOK {
			stop()
			return nil, nil, 0, nil, fmt.Errorf("warm hot spec %d: status %d %v %s", i, status, err, body)
		}
	}
	return h, ck, setup, stop, nil
}

// runServiceWorkload runs service-mix against a real coemud. Its
// layers are measured by the engine-stream traced run (daemonLayers).
func runServiceWorkload(rc *runConfig, in *Inputs) (*outcome, error) {
	h, ck, setup, stop, err := setUpService(rc, in)
	if err != nil {
		return nil, err
	}
	defer stop()
	s0, err := h.scrape(nil)
	if err != nil {
		return nil, err
	}
	rounds := h.runRounds(in, rc.duration, nil)
	s1, err := h.scrape(nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(h.pid())
	if err != nil {
		return nil, err
	}
	if err := ck.cover(in); err != nil {
		return nil, err
	}
	var t mixTally
	ck.tally(rounds, &t)
	notes, probs := accounting(s0, s1, t.perClass)
	p50, err := blockPercentile(t.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := blockPercentile(t.lat, 0.95)
	if err != nil {
		return nil, err
	}
	notes = append(notes, fmt.Sprintf("service-mix: %d rounds, requests by class %v", len(rounds), t.perClass), p99Note(t.lat))
	return &outcome{
		attempted: t.attempted, failed: t.failed, problems: append(t.problems, probs...), notes: notes, lat: t.lat,
		metrics: map[string]float64{
			"setup_s":           setup,
			"cyc_per_s":         median(t.cycRate),
			"modeled_cyc_per_s": t.round0.modeledCycPerSec(),
			"req_per_s":         median(t.reqRate),
			"latency_p50_ms":    p50 * 1e3,
			"latency_p95_ms":    p95 * 1e3,
			"rss_peak_mb":       rss,
		},
	}, nil
}

// daemonLayers measures the service, store, tcpchan and remote layers
// inside the engine-stream traced run: one round of the service-mix
// request schedule from span-recording clients against a fresh coemud,
// then the remote-tcp pool over TCP (remoteLayers). It verifies every
// report, checks the daemon's /v1/stats accounting over the round, and
// returns the operations, failures and per-layer metrics. Its spans go
// to rec.
func daemonLayers(rc *runConfig, rec *spans) (*outcome, error) {
	in := serviceInputs(rc.seed)
	h, ck, _, stop, err := setUpService(rc, in)
	if err != nil {
		return nil, err
	}
	o, err := h.serviceLayers(in, ck, rec)
	stop()
	if err != nil {
		return nil, err
	}
	if err := remoteLayers(rc, rec, o); err != nil {
		return nil, fmt.Errorf("remote layers: %w", err)
	}
	return o, nil
}

// serviceLayers sends one service-mix round and derives the service and
// store per-layer metrics from the client-side latencies and the
// /v1/stats and /metrics deltas around it.
func (h *httpDaemon) serviceLayers(in *Inputs, ck *checker, rec *spans) (*outcome, error) {
	s1, err := h.scrape(rec)
	if err != nil {
		return nil, err
	}
	recs := make([]*spans, runtime.NumCPU())
	for c := range recs {
		recs[c] = newSpans(rec.t0, (c+1)<<24)
	}
	rounds := h.runRounds(in, 0, recs)
	s2, err := h.scrape(rec)
	if err != nil {
		return nil, err
	}
	rec.list = appendSpans(rec.list, merge(recs...))
	if err := ck.cover(in); err != nil {
		return nil, err
	}
	var t mixTally
	ck.tally(rounds, &t)
	notes, probs := accounting(s1, s2, t.perClass)
	o := &outcome{
		attempted: t.attempted, failed: t.failed, problems: append(t.problems, probs...), notes: notes,
		metrics: map[string]float64{},
	}
	o.metrics["service.fresh_p50_ms"] = median(t.classLat[classFresh]) * 1e3
	o.metrics["service.cache_hit_p50_ms"] = median(t.classLat[classCacheHit]) * 1e3
	o.metrics["service.store_hit_p50_ms"] = median(t.classLat[classStoreHit]) * 1e3
	o.metrics["service.sweep_point_ms"] = median(t.classLat[classSweep]) * 1e3 / sweepPoints
	for name, metric := range map[string]string{
		"service.queue_wait_p50_ms": "coemu_job_queue_seconds",
		"service.job_p50_ms":        "coemu_job_seconds",
		"store.read_p50_ms":         "coemu_store_read_seconds",
		"store.write_p50_ms":        "coemu_store_write_seconds",
	} {
		if o.metrics[name], err = histP50ms(s1, s2, metric); err != nil {
			return nil, err
		}
	}
	a, b := s2.stats, s1.stats
	runs, hits := float64(a.EngineRuns-b.EngineRuns), float64(a.StoreHits-b.StoreHits)
	cacheHits := float64(a.CacheHits - b.CacheHits)
	o.metrics["service.engine_runs"] = runs
	o.metrics["service.cache_hit_ratio"] = ratio(cacheHits, cacheHits+runs+hits)
	o.metrics["service.rejected"] = float64(t.rejected)
	o.metrics["store.hit_ratio"] = ratio(hits, hits+float64(a.StoreMisses-b.StoreMisses))
	o.metrics["store.entries"] = float64(a.StoreEntries)
	return o, nil
}
