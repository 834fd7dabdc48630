package sweepclient

// shard.go — one shard's round trip on coemud's /v1/sweep wire
// protocol, and the pieces every round shares: transient/permanent
// error classification, backoff with Retry-After, settling abandoned
// points, and writing the reassembled NDJSON stream.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// Defaults for the zero FleetOptions values.
const (
	DefaultRetries     = 8
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// ErrRetriesExhausted marks points that failed every round within the
// retry budget.
var ErrRetriesExhausted = errors.New("sweepclient: retries exhausted")

// settleLines turns the per-point state of a finished run into the
// final line slice: received lines verbatim, and for points the retry
// budget abandoned, an error line shaped like a daemon-side failure.
func settleLines(points []*spec.Spec, got []*service.SweepLine, lastErr map[int]string) []service.SweepLine {
	out := make([]service.SweepLine, len(points))
	for i := range points {
		if got[i] != nil {
			out[i] = *got[i]
			continue
		}
		line := service.SweepLine{Index: i, Name: points[i].Name}
		if h, herr := points[i].CanonicalHash(); herr == nil {
			line.Hash = h
		}
		if msg, ok := lastErr[i]; ok {
			line.Error = msg
		} else {
			line.Error = ErrRetriesExhausted.Error()
		}
		out[i] = line
	}
	return out
}

// missingIndexes lists the points that still need a clean line.
func missingIndexes(got []*service.SweepLine) []int {
	var idx []int
	for i, ln := range got {
		if ln == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// permanentError wraps rejections that retrying cannot fix.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

func permanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// retryAfterError carries a 503's Retry-After hint through to backoff.
type retryAfterError struct {
	err   error
	delay time.Duration
}

func (r *retryAfterError) Error() string { return r.err.Error() }
func (r *retryAfterError) Unwrap() error { return r.err }

// postShard posts the points at idx as a {"specs": [...]} batch to the
// daemon at url and folds the streamed lines into got. Clean lines
// stick (their Index remapped from batch position to grid position);
// error lines only record lastErr so the point is retried. When the
// stream completes it returns the daemon's raw aggregate line. A
// transport error, 5xx status or truncated stream returns a transient
// error; lines received before the cut are kept. Any other non-200
// status is permanent.
func postShard(ctx context.Context, hc *http.Client, url string, points []*spec.Spec, idx []int, got []*service.SweepLine, lastErr map[int]string) (aggLine []byte, err error) {
	specs := make([]json.RawMessage, len(idx))
	for bi, oi := range idx {
		b, merr := json.Marshal(points[oi])
		if merr != nil {
			return nil, &permanentError{fmt.Errorf("sweepclient: encode point %d: %w", oi, merr)}
		}
		specs[bi] = b
	}
	body, merr := json.Marshal(map[string]any{"specs": specs})
	if merr != nil {
		return nil, &permanentError{fmt.Errorf("sweepclient: encode batch: %w", merr)}
	}

	req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if rerr != nil {
		return nil, &permanentError{rerr}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, derr := hc.Do(req)
	if derr != nil {
		return nil, fmt.Errorf("sweepclient: %s: %w", url, derr)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := fmt.Errorf("sweepclient: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			if d := parseRetryAfter(resp.Header.Get("Retry-After")); d > 0 {
				return nil, &retryAfterError{err: serr, delay: d}
			}
			return nil, serr
		case resp.StatusCode >= 500:
			return nil, serr
		default:
			return nil, &permanentError{serr}
		}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"aggregate"`)) {
			aggLine = append([]byte(nil), line...)
			return append(aggLine, '\n'), nil
		}
		var ln service.SweepLine
		if uerr := json.Unmarshal(line, &ln); uerr != nil {
			return nil, fmt.Errorf("sweepclient: %s: bad line: %w", url, uerr)
		}
		if ln.Index < 0 || ln.Index >= len(idx) {
			return nil, fmt.Errorf("sweepclient: %s: point index %d outside batch of %d", url, ln.Index, len(idx))
		}
		oi := idx[ln.Index]
		if ln.Error != "" {
			lastErr[oi] = ln.Error
			continue
		}
		ln.Index = oi
		got[oi] = &ln
	}
	if serr := sc.Err(); serr != nil {
		return nil, fmt.Errorf("sweepclient: %s: stream cut: %w", url, serr)
	}
	return nil, fmt.Errorf("sweepclient: %s: stream ended before the aggregate line", url)
}

// backoffDelay computes a pre-retry delay: exponential from base,
// capped at max, with jitter in [delay/2, delay) so simultaneous
// clients desynchronize. A Retry-After hint raises the floor but is
// itself capped at max — a misbehaving daemon advertising an hour
// cannot stall the sweep past the configured ceiling.
func backoffDelay(base, max time.Duration, attempt int, cause error) time.Duration {
	delay := base << uint(attempt)
	if delay > max || delay <= 0 {
		delay = max
	}
	delay = delay/2 + rand.N(delay/2+1)
	var ra *retryAfterError
	if errors.As(cause, &ra) {
		hint := ra.delay
		if hint > max {
			hint = max
		}
		if hint > delay {
			delay = hint
		}
	}
	return delay
}

// parseRetryAfter reads both RFC 7231 forms of Retry-After:
// delta-seconds and HTTP-date (the latter converted to a delay against
// the local clock; a date in the past means "now", i.e. no delay).
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// WriteNDJSON writes the reassembled sweep stream: one line per point
// in point order, then the aggregate. rawAgg (from RunPoints) is
// relayed verbatim when present, carrying the daemon's cache and store
// hit counts. Otherwise the stream is rebuilt with
// service.SweepAggregator — the code coemud's /v1/sweep and local
// -grid runs use — so it matches theirs byte for byte; a rebuilt
// aggregate cannot see the daemons' provenance, so its hit counters
// are zero.
func WriteNDJSON(w io.Writer, lines []service.SweepLine, rawAgg []byte) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	agg := service.NewSweepAggregator(len(lines))
	for _, ln := range lines {
		pr := service.PointResult{Index: ln.Index, Name: ln.Name, Hash: ln.Hash}
		if ln.Error != "" {
			pr.Err = errors.New(ln.Error)
		} else {
			pr.Result = &service.Result{JSON: ln.Report}
		}
		if err := enc.Encode(agg.Add(pr)); err != nil {
			return err
		}
	}
	if rawAgg != nil {
		if _, err := bw.Write(rawAgg); err != nil {
			return err
		}
	} else if err := enc.Encode(agg.Line()); err != nil {
		return err
	}
	return bw.Flush()
}
