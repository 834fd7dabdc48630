// Package metrics is a dependency-free instrumentation library with
// Prometheus text exposition (version 0.0.4): counters, gauges,
// fixed-bucket histograms and label-keyed families, collected into a
// Registry whose WritePrometheus output a Prometheus server scrapes
// directly.
//
// The package exists so the daemon can expose the quantities the
// paper's claims rest on — misprediction rates, rollback depth,
// batch-commit coverage, channel traffic, job and queue latency —
// without pulling a client library into a module that is deliberately
// free of external dependencies.
//
// Concurrency: every instrument is safe for concurrent use. Counter
// and Gauge are single atomic words; Histogram takes a mutex per
// Observe (it is fed from per-run aggregation and request paths, not
// from the engine's per-cycle hot loop, which stays instrumentation
// free).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is an instrument's Prometheus metric type.
type Kind string

// Prometheus metric types used in TYPE lines.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter's value. It exists for mirrored counters
// — instruments that republish a snapshot of a counter maintained
// elsewhere (service.Counters) at collect time. The source must itself
// be monotone or the exposition will show a counter reset.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// set at construction and never change, so exposition is deterministic.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []int64   // one per bound, non-cumulative
	inf    int64     // observations above the last bound
	sum    float64
	n      int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v in one step — the bulk
// form used when re-binning an already-aggregated distribution (e.g. a
// run report's rollback-depth histogram).
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v * float64(n)
	h.n += n
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.inf += n
}

// Count returns the total observation count.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, the sum and the count.
func (h *Histogram) snapshot() (cum []int64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.bounds)+1)
	var acc int64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	cum[len(h.bounds)] = acc + h.inf
	return cum, h.sum, h.n
}

// instrument is one exposed series: an optional label pairing plus the
// concrete collector.
type instrument struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric family (HELP + TYPE + its series).
type family struct {
	name string
	help string
	kind Kind

	mu          sync.Mutex
	series      []*instrument
	byLabels    map[string]*instrument
	labelNames  []string
	histBuckets []float64
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families expose in registration-name order, so
// output shape is deterministic.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnCollect registers a hook invoked at the start of every
// WritePrometheus call — the place to refresh mirrored instruments
// (gauges and snapshot counters) right before exposition.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// register adds a family, panicking on duplicate or invalid names —
// metric registration is program structure, not runtime input.
func (r *Registry) register(name, help string, kind Kind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, kind: kind, byLabels: make(map[string]*instrument)}
	r.byName[name] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(i, j int) bool { return r.families[i].name < r.families[j].name })
	return f
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, KindCounter)
	c := &Counter{}
	f.series = append(f.series, &instrument{c: c})
	return c
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge)
	g := &Gauge{}
	f.series = append(f.series, &instrument{g: g})
	return g
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	f := r.register(name, help, KindHistogram)
	f.histBuckets = append([]float64(nil), buckets...)
	h := &Histogram{bounds: f.histBuckets, counts: make([]int64, len(buckets))}
	f.series = append(f.series, &instrument{h: h})
	return h
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.register(name, help, KindCounter)
	f.labelNames = validLabelNames(name, labelNames)
	return &CounterVec{f: f}
}

// With returns the counter for the given label values (one per label
// name, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.withLabels(values).c
}

// withLabels resolves (or creates) the series for one label-value set.
// A new series gets its counter or gauge under the family lock, so
// concurrent first uses share one instrument and write never sees a
// half-built series.
func (f *family) withLabels(values []string) *instrument {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := renderLabels(f.labelNames, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ins, ok := f.byLabels[key]; ok {
		return ins
	}
	ins := &instrument{labels: key, c: &Counter{}}
	f.byLabels[key] = ins
	f.series = append(f.series, ins)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return ins
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// invoking the collect hooks first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	families := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	var b strings.Builder
	for _, f := range families {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family: HELP, TYPE, then every series in sorted
// label order.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	series := append([]*instrument{}, f.series...)
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, ins := range series {
		switch {
		case ins.c != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, ins.labels, ins.c.Value())
		case ins.g != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, ins.labels, formatFloat(ins.g.Value()))
		case ins.h != nil:
			cum, sum, n := ins.h.snapshot()
			for i, bound := range f.histBuckets {
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, mergeLabels(ins.labels, "le", formatFloat(bound)), cum[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, mergeLabels(ins.labels, "le", "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, ins.labels, formatFloat(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, ins.labels, n)
		}
	}
}

// Handler returns an http.Handler serving the registry in text
// exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The response is already streaming; nothing to do but drop.
			return
		}
	})
}

// formatFloat renders a float the Prometheus way: integral values
// without an exponent, specials as +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels builds the {k="v",...} suffix for a label-value set.
func renderLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels inserts one extra label pair (the histogram "le" bound)
// into an already-rendered label set.
func mergeLabels(rendered, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelNames validates a label-name list at registration time.
func validLabelNames(metric string, names []string) []string {
	for _, n := range names {
		if !validName(n) || strings.Contains(n, ":") {
			panic(fmt.Sprintf("metrics: metric %q: invalid label name %q", metric, n))
		}
	}
	return append([]string(nil), names...)
}
