package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Label is one constant name/value pair attached to a labeled gauge.
// Values are escaped for the Prometheus exposition at registration.
type Label struct {
	Key   string
	Value string
}

// labeledGauge is one registered gauge instance of a labeled family:
// the labels, their pre-rendered `{k="v",...}` suffix (Prometheus
// escaping applied once), and the sampling function.
type labeledGauge struct {
	labels []Label
	suffix string
	fn     func() int64
}

// Registry is a named collection of counters, gauges, and histograms.
// Registration is get-or-create and mutex-protected; the metrics
// themselves are atomic, so updates never contend on the registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	labeled  map[string][]labeledGauge
	hists    map[string]*Histogram
	// gen counts registrations, so samplers holding a cached view of
	// the metric set (the time-series collector) can detect new metrics
	// with one comparison instead of re-walking the maps every tick.
	gen int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		labeled:  make(map[string][]labeledGauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.gen++
	}
	return c
}

// Gauge registers a function sampled at snapshot time (e.g. store
// size). Registering a name again replaces the previous function.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	r.gauges[name] = fn
}

// GaugeWith registers a gauge carrying constant labels, e.g.
// alert_firing{rule="p99_latency"}. All instances of one name form a
// family sharing a single # TYPE line in the Prometheus exposition; in
// the JSON snapshot each instance appears under the rendered
// name{k="v",...} key. Re-registering the same name and label set
// replaces the sampling function.
func (r *Registry) GaugeWith(name string, labels []Label, fn func() int64) {
	suffix := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, lg := range r.labeled[name] {
		if lg.suffix == suffix {
			r.labeled[name][i].fn = fn
			r.gen++
			return
		}
	}
	r.labeled[name] = append(r.labeled[name], labeledGauge{labels: labels, suffix: suffix, fn: fn})
	r.gen++
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.gen++
	}
	return h
}

// Snapshot returns every metric's current value keyed by name
// (counters and gauges as integers, histograms as HistogramSnapshot).
// json.Marshal of the result emits keys in sorted order.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	labeled := make(map[string][]labeledGauge, len(r.labeled))
	for k, v := range r.labeled {
		labeled[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]any, len(counters)+len(gauges)+len(hists))
	for k, c := range counters {
		out[k] = c.Value()
	}
	for k, fn := range gauges {
		out[k] = fn()
	}
	for k, lgs := range labeled {
		for _, lg := range lgs {
			out[k+lg.suffix] = lg.fn()
		}
	}
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return out
}

// ObserveTrace folds a finished query trace into per-operator totals:
// op.<OP>.count executions and op.<OP>.wallNs cumulative wall time for
// every span of the tree.
func (r *Registry) ObserveTrace(tr *Trace) {
	if tr == nil || tr.Root == nil {
		return
	}
	tr.Root.Visit(func(s *Span) {
		r.Counter("op." + s.Op + ".count").Inc()
		r.Counter("op." + s.Op + ".wallNs").Add(int64(s.Wall))
	})
}

// ServeHTTP is the /metrics handler. The default response is the JSON
// snapshot; a request whose Accept header names text/plain (and not
// JSON first) — a Prometheus scraper — gets the text exposition format
// of WritePrometheus instead.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req != nil {
		accept := req.Header.Get("Accept")
		if strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.WritePrometheus(w)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}

// publishMu serializes expvar publication; expvar.Publish panics on
// duplicate names, so Publish registers each name at most once per
// process.
var (
	publishMu   sync.Mutex
	publishSeen = make(map[string]bool)
)

// Publish exposes the registry's snapshot as one expvar variable, so it
// appears under /debug/vars next to cmdline and memstats. Publishing
// the same name twice (e.g. from tests) keeps the first registration.
func (r *Registry) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if publishSeen[name] {
		return
	}
	publishSeen[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
