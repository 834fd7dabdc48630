// Package sweepclient is the client side of coemud's /v1/sweep wire
// protocol. A Fleet runs one sweep's expanded points on one or more
// daemons and keeps going when the transport, a daemon, an individual
// point or the client itself fails:
//
//   - Sharding: each round builds a bounded-load consistent-hash ring
//     over the currently healthy membership (from the prober) and
//     assigns every unfinished point by its canonical spec hash.
//     Saturated daemons get half the load cap. One daemon is simply a
//     one-shard fleet.
//   - Retries: transport errors, 5xx responses and mid-stream
//     disconnects are transient; the fleet backs off exponentially with
//     jitter (honoring a 503's Retry-After, capped at MaxBackoff) and
//     runs another round. A 4xx other than 503 is permanent and aborts
//     the sweep. Per-point failures reported by a daemon (an injected
//     worker panic, a run timeout) are retried too: the daemon draws
//     fresh fault seeds per job, so a retry is not doomed to repeat the
//     fault. Only when the retry budget is exhausted does a point keep
//     its error line.
//   - Failover: a shard whose daemon dies keeps the lines it streamed
//     before the cut; the prober evicts the daemon and the next round's
//     ring rebalances only the unfinished points onto survivors.
//   - Incremental resubmission: after any failure, and for every
//     journaled point on resume, the fleet first probes the daemons'
//     store via GET /v1/results/{hash} and splices the canonical report
//     bytes directly — a point whose result the shared store already
//     holds is never re-submitted, so it can never re-run the engine.
//   - Crash safety: with a Journal attached, every completed point hash
//     is fsync'd before the fleet moves on, so a killed client resumes
//     exactly where it stopped (cmd/sweep -resume).
//
// Bit-identity is preserved: lines carry the daemons' canonical report
// bytes verbatim (whether streamed, store-probed, or journal-restored),
// so the reassembled NDJSON is byte-identical to a local -grid run.
package sweepclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// FleetOptions configures a Fleet.
type FleetOptions struct {
	// URLs are the coemud base URLs forming the fleet membership. At
	// least one is required; with one URL every round is one shard.
	URLs []string
	// Retries bounds how many failed rounds the fleet rides out before
	// settling unfinished points with their last error; 0 means
	// DefaultRetries, negative disables retries.
	Retries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// rounds; zero values take the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// ProbeInterval and FailThreshold tune the health prober (zero takes
	// DefaultProbeInterval / DefaultFailThreshold).
	ProbeInterval time.Duration
	FailThreshold int
	// Journal, when set, durably records completed point hashes; points
	// it already holds are restored from the fleet store, not re-run.
	Journal *Journal
	// Logf, when set, receives one line per membership/rebalance/retry
	// decision.
	Logf func(format string, args ...any)
}

// Fleet shards sweeps across a health-checked set of coemud daemons.
type Fleet struct {
	retries int
	base    time.Duration
	max     time.Duration
	http    *http.Client
	journal *Journal
	logf    func(format string, args ...any)
	prober  *prober
}

// NewFleet builds a fleet and starts its health prober (stop it with
// Close).
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if len(opts.URLs) == 0 {
		return nil, errors.New("sweepclient: no daemon URLs")
	}
	urls := make([]string, len(opts.URLs))
	for i, u := range opts.URLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("sweepclient: empty daemon URL at position %d", i)
		}
		urls[i] = u
	}
	// The sweep client's generous timeout covers a response that
	// streams for the whole shard.
	f := &Fleet{
		retries: opts.Retries,
		base:    opts.BaseBackoff,
		max:     opts.MaxBackoff,
		http:    &http.Client{Timeout: 30 * time.Minute},
		journal: opts.Journal,
		logf:    opts.Logf,
	}
	if f.retries == 0 {
		f.retries = DefaultRetries
	} else if f.retries < 0 {
		f.retries = 0
	}
	if f.base <= 0 {
		f.base = DefaultBaseBackoff
	}
	if f.max <= 0 {
		f.max = DefaultMaxBackoff
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	// Probes get their own short-deadline client: a healthz poll that
	// hangs is itself a health signal, and it must not inherit the
	// sweep transport's streaming-scale timeout.
	probeClient := &http.Client{Timeout: 5 * time.Second}
	f.prober = newProber(urls, probeClient, opts.ProbeInterval, opts.FailThreshold, f.logf)
	return f, nil
}

// Close stops the health prober. The journal (if any) is the caller's
// to close.
func (f *Fleet) Close() { f.prober.Close() }

// Health reports every member's current health state, in the order the
// URLs were given.
func (f *Fleet) Health() []MemberHealth { return f.prober.snapshot() }

// RunPoints runs every expanded point to a settled SweepLine, sharded
// across the fleet. Index/Name/Report match the local -grid stream so
// the reassembled NDJSON is byte-identical line for line. rawAgg
// carries a daemon's own aggregate line verbatim only when a single
// shard delivered the whole sweep cleanly on the first round (the
// single-daemon -remote case); it is nil whenever the stream was
// reassembled across shards or rounds.
//
// The returned error is non-nil only for permanent failures: a 4xx
// rejection or context cancellation. Per-point errors that survive the
// retry budget are reported in their lines' Error fields.
func (f *Fleet) RunPoints(ctx context.Context, points []*spec.Spec) (lines []service.SweepLine, rawAgg []byte, err error) {
	if len(points) == 0 {
		return nil, nil, errors.New("sweepclient: sweep has no points")
	}
	hashes := make([]string, len(points))
	for i, p := range points {
		h, herr := p.CanonicalHash()
		if herr != nil {
			return nil, nil, &permanentError{fmt.Errorf("sweepclient: hash point %d: %w", i, herr)}
		}
		hashes[i] = h
	}

	got := make([]*service.SweepLine, len(points))
	lastErr := make(map[int]string)

	// Resume: points the journal marks completed are restored from the
	// fleet store, never re-submitted. A journaled point the store no
	// longer holds (aged out, store lost) simply re-runs — the journal
	// is an optimization witness, not the source of truth.
	restored := 0
	if f.journal != nil && f.journal.Len() > 0 {
		for i := range points {
			if !f.journal.Has(hashes[i]) {
				continue
			}
			if body, ok := f.lookup(ctx, hashes[i]); ok {
				f.fill(got, points, hashes, i, body)
				restored++
			}
		}
		f.logf("sweepclient: fleet resume: restored %d of %d journaled point(s) from the store", restored, f.journal.Len())
	}

	attempt := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		missing := missingIndexes(got)
		if len(missing) == 0 {
			break
		}
		// After any failure, a "missing" point may in fact be complete: a
		// shard can die after the store write-through but before its line
		// reached us. Probe the store first; only true gaps re-submit.
		if attempt > 0 {
			for _, oi := range missing {
				if body, ok := f.lookup(ctx, hashes[oi]); ok {
					f.fill(got, points, hashes, oi, body)
				}
			}
			if missing = missingIndexes(got); len(missing) == 0 {
				break
			}
		}

		members := f.prober.healthy()
		roundAgg, roundErr := f.runRound(ctx, points, hashes, missing, members, got, lastErr)
		if permanent(roundErr) {
			return nil, nil, roundErr
		}
		// Journal every completion before deciding anything else — a kill
		// from here on resumes past these points.
		if f.journal != nil {
			for i := range got {
				if got[i] == nil {
					continue
				}
				if jerr := f.journal.Record(hashes[i]); jerr != nil {
					f.logf("sweepclient: journal: %v", jerr)
				}
			}
		}
		missingNow := missingIndexes(got)
		if len(missingNow) == 0 {
			if attempt == 0 && restored == 0 && roundErr == nil {
				rawAgg = roundAgg
			}
			break
		}
		if roundErr == nil {
			roundErr = fmt.Errorf("%d point(s) failed", len(missingNow))
		}
		if attempt >= f.retries {
			f.logf("sweepclient: fleet giving up after %d round(s): %v", attempt+1, roundErr)
			break
		}
		delay := backoffDelay(f.base, f.max, attempt, roundErr)
		f.logf("sweepclient: fleet round %d/%d: %d point(s) unfinished (%v); rebalancing in %v",
			attempt+1, f.retries+1, len(missingNow), roundErr, delay)
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-time.After(delay):
		}
		// Refresh membership synchronously so the next ring reflects
		// evictions/recoveries even with a long probe interval.
		f.prober.probeAll()
		attempt++
	}

	return settleLines(points, got, lastErr), rawAgg, nil
}

// runRound shards the missing points across the healthy members and
// runs every shard in parallel, folding clean lines into got and error
// messages into lastErr. It returns the daemon's verbatim aggregate
// line when the round ran as exactly one clean shard (nil otherwise)
// and the round's representative error: permanent if any shard was
// rejected permanently, transient if any shard or point failed, nil on
// a fully clean round.
func (f *Fleet) runRound(ctx context.Context, points []*spec.Spec, hashes []string, missing []int, members []MemberHealth, got []*service.SweepLine, lastErr map[int]string) ([]byte, error) {
	if len(members) == 0 {
		f.prober.probeAll()
		return nil, errors.New("sweepclient: no healthy daemons in the fleet")
	}
	urls := make([]string, len(members))
	for i, m := range members {
		urls[i] = m.URL
	}
	ring, rerr := NewRing(urls, DefaultRingReplicas, DefaultLoadFactor)
	if rerr != nil {
		return nil, &permanentError{rerr}
	}
	missingHashes := make([]string, len(missing))
	for bi, oi := range missing {
		missingHashes[bi] = hashes[oi]
	}
	assign := ring.Assign(missingHashes, f.capsFor(ring, members, len(missing)))
	if len(assign) > 1 {
		f.logf("sweepclient: fleet sharding %d point(s) across %d daemon(s)", len(missing), len(assign))
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		permErr  error
		agg      []byte
	)
	single := len(assign) == 1
	for url, bidx := range assign {
		oidx := make([]int, len(bidx))
		for i, bi := range bidx {
			oidx[i] = missing[bi]
		}
		wg.Add(1)
		go func(url string, oidx []int) {
			defer wg.Done()
			// Shards write disjoint got slots, so only the bookkeeping
			// below needs the lock.
			shardErr := make(map[int]string)
			shardAgg, aerr := postShard(ctx, f.http, url, points, oidx, got, shardErr)
			mu.Lock()
			defer mu.Unlock()
			for oi, msg := range shardErr {
				lastErr[oi] = msg
			}
			switch {
			case aerr == nil:
				f.prober.reportSuccess(url)
				if single {
					agg = shardAgg
				}
				if len(shardErr) > 0 && firstErr == nil {
					firstErr = fmt.Errorf("sweepclient: %s: %d point(s) failed", url, len(shardErr))
				}
			case permanent(aerr):
				permErr = aerr
			default:
				f.prober.reportFailure(url, aerr)
				if firstErr == nil {
					firstErr = aerr
				}
			}
		}(url, oidx)
	}
	wg.Wait()
	if permErr != nil {
		return nil, permErr
	}
	return agg, firstErr
}

// capsFor computes per-member load caps for Assign, aligned with
// ring.Members(): the uniform bounded-load cap, halved for members
// whose last probe reported queue saturation.
func (f *Fleet) capsFor(ring *Ring, members []MemberHealth, n int) []int {
	saturated := make(map[string]bool, len(members))
	any := false
	for _, m := range members {
		if m.Saturated {
			saturated[m.URL] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	sorted := ring.Members()
	base := int(math.Ceil(DefaultLoadFactor * float64(n) / float64(len(sorted))))
	if base < 1 {
		base = 1
	}
	caps := make([]int, len(sorted))
	for i, u := range sorted {
		caps[i] = -1
		if saturated[u] {
			caps[i] = base / 2
			if caps[i] < 1 {
				caps[i] = 1
			}
		}
	}
	return caps
}

// lookup probes the fleet store for a completed point's canonical
// report bytes via GET /v1/results/{hash}, lightly-loaded members
// first. A 404 is a healthy "not here" and moves on to the next member
// (a partitioned fleet may not share one store); transport errors count
// against the member's health.
func (f *Fleet) lookup(ctx context.Context, hash string) (json.RawMessage, bool) {
	for _, m := range f.prober.healthy() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/results/"+hash, nil)
		if err != nil {
			return nil, false
		}
		resp, err := f.http.Do(req)
		if err != nil {
			f.prober.reportFailure(m.URL, err)
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && rerr == nil && len(body) > 0:
			f.prober.reportSuccess(m.URL)
			return json.RawMessage(body), true
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotFound:
			f.prober.reportSuccess(m.URL)
		}
	}
	return nil, false
}

// fill completes a point from store-held canonical report bytes,
// journaling it like any other completion. The spliced line is shaped
// exactly like a streamed one, so bit-identity holds.
func (f *Fleet) fill(got []*service.SweepLine, points []*spec.Spec, hashes []string, i int, body json.RawMessage) {
	got[i] = &service.SweepLine{Index: i, Name: points[i].Name, Hash: hashes[i], Report: body}
	if f.journal != nil {
		if err := f.journal.Record(hashes[i]); err != nil {
			f.logf("sweepclient: journal: %v", err)
		}
	}
}
