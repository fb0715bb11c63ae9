package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Time-series collection over the metrics registry: every counter,
// gauge, and histogram is sampled on a fixed tick into fixed-size ring
// buffers at multiple resolutions (e.g. 1s×5m → 10s×1h → 1m×12h), so
// rates, deltas, and windowed histogram quantiles are queryable over
// any recent window at near-zero steady-state cost.
//
// Samples are cumulative: a counter ring stores the counter's running
// total at each tick, and a histogram ring stores the full cumulative
// bucket array. That makes downsampling trivially correct — a coarse
// level is just every Nth tick of the fine level (stride sampling), so
// a windowed rate or quantile computed at any level diffs two cumulative
// samples and is exact for the window those samples span. Nothing is
// averaged, so no level can disagree with a full-resolution recompute
// over the same endpoints.
//
// The tick path is allocation-free at steady state: the set of metrics
// to sample is cached in a sorted slice and rebuilt only when the
// registry's generation counter changes (a new metric was registered),
// and ring slots are preallocated. Lock order is TimeSeries.mu →
// Registry.mu; the registry never calls into the time series.

// Resolution is one level of the downsampling ladder: samples Step
// apart retained in a ring of Size slots.
type Resolution struct {
	Step time.Duration `json:"stepNs"`
	Size int           `json:"size"`
}

// Retention is how far back this level reaches (Step × Size).
func (r Resolution) Retention() time.Duration {
	return r.Step * time.Duration(r.Size)
}

// NewLadder builds the default downsampling ladder for a base tick and
// total retention: tick×300 (5 minutes at 1s), 10·tick×360 (1 hour),
// and 60·tick×(retention/60·tick) clamped to [60, 1440] slots. Levels
// whose predecessor already covers the retention are dropped, so a
// short retention yields a short ladder.
func NewLadder(tick, retention time.Duration) []Resolution {
	if tick <= 0 {
		tick = time.Second
	}
	if retention <= 0 {
		retention = 12 * time.Hour
	}
	ladder := []Resolution{{Step: tick, Size: 300}}
	if ladder[0].Retention() < retention {
		ladder = append(ladder, Resolution{Step: 10 * tick, Size: 360})
	}
	if ladder[len(ladder)-1].Retention() < retention {
		step := 60 * tick
		size := int(retention / step)
		if size < 60 {
			size = 60
		}
		if size > 1440 {
			size = 1440
		}
		ladder = append(ladder, Resolution{Step: step, Size: size})
	}
	return ladder
}

// MetricKind tags what a series was sampled from.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// sampledMetric is one cached entry of the per-tick sampling pass.
type sampledMetric struct {
	name string
	kind MetricKind
	c    *Counter
	g    func() int64
	h    *Histogram
}

// histSample is one cumulative histogram observation: total count, sum,
// and the octave bucket counts as of the sample instant.
type histSample struct {
	count   int64
	sumNs   int64
	buckets [octaveBuckets]int64
}

// quantile is the q-quantile in milliseconds of a window's difference
// of two samples. A window has no exact max, so the octave ceiling caps
// it.
func (d *histSample) quantile(q float64) float64 {
	return octave.quantile(d.buckets[:], d.count, q, float64(octave.high(octaveBuckets-1))/1000)
}

// tsRing is one fixed-size ring of samples at a single resolution.
// stride is the level's step expressed in base ticks; a sample is
// pushed only on ticks divisible by it.
type tsRing struct {
	step   time.Duration
	stride uint64
	t      []int64      // unix ms per slot
	v      []float64    // scalar samples (counters cumulative, gauges raw)
	h      []histSample // histogram samples (nil for scalar series)
	head   int          // slot of the most recent sample
	n      int          // samples currently held (≤ len(t))
}

// idx maps k ∈ [0, n) with 0 = oldest retained sample to a slot index.
func (rg *tsRing) idx(k int) int {
	return (rg.head - rg.n + 1 + k + 2*len(rg.t)) % len(rg.t)
}

func (rg *tsRing) push(tMs int64, v float64) {
	rg.head = (rg.head + 1) % len(rg.t)
	rg.t[rg.head] = tMs
	rg.v[rg.head] = v
	if rg.n < len(rg.t) {
		rg.n++
	}
}

func (rg *tsRing) pushHist(tMs int64, hs histSample) {
	rg.head = (rg.head + 1) % len(rg.t)
	rg.t[rg.head] = tMs
	rg.h[rg.head] = hs
	if rg.n < len(rg.t) {
		rg.n++
	}
}

// tsSeries is one metric's rings, one per ladder level.
type tsSeries struct {
	kind  MetricKind
	rings []*tsRing
}

func newSeries(kind MetricKind, ladder []Resolution) *tsSeries {
	s := &tsSeries{kind: kind}
	base := ladder[0].Step
	for _, res := range ladder {
		rg := &tsRing{step: res.Step, stride: uint64(res.Step / base), t: make([]int64, res.Size)}
		if kind == KindHistogram {
			rg.h = make([]histSample, res.Size)
		} else {
			rg.v = make([]float64, res.Size)
		}
		s.rings = append(s.rings, rg)
	}
	return s
}

// TimeSeries samples a Registry on a fixed tick into multi-resolution
// ring buffers and answers windowed queries over the history.
type TimeSeries struct {
	reg    *Registry
	ladder []Resolution

	// OnTick, when set before Start, runs after every sampling pass
	// (outside the series lock) — the alert evaluator hooks in here so
	// rules are re-evaluated exactly once per fresh sample.
	OnTick func(now time.Time)

	mu      sync.Mutex
	now     func() time.Time
	tickN   uint64
	series  map[string]*tsSeries
	sampled []sampledMetric
	gen     int64
}

// NewTimeSeries builds a collector over reg. A nil ladder gets the
// default NewLadder(1s, 12h). Sampling starts when Start is called (or
// per explicit Tick in tests).
func NewTimeSeries(reg *Registry, ladder []Resolution) *TimeSeries {
	if len(ladder) == 0 {
		ladder = NewLadder(time.Second, 12*time.Hour)
	}
	return &TimeSeries{
		reg:    reg,
		ladder: ladder,
		now:    time.Now,
		series: make(map[string]*tsSeries),
		gen:    -1,
	}
}

// Ladder returns the resolution ladder.
func (ts *TimeSeries) Ladder() []Resolution { return ts.ladder }

// Tick returns the base sampling interval (the finest ladder step).
func (ts *TimeSeries) Tick() time.Duration { return ts.ladder[0].Step }

// SetNow installs a clock for deterministic tests.
func (ts *TimeSeries) SetNow(fn func() time.Time) {
	ts.mu.Lock()
	ts.now = fn
	ts.mu.Unlock()
}

// Start launches the sampling goroutine at the base tick and returns a
// stop function (idempotent).
func (ts *TimeSeries) Start() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(ts.ladder[0].Step)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ts.Sample()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Sample runs one sampling pass over the registry — every ring whose
// stride divides the current tick number gets one cumulative sample —
// then invokes OnTick outside the lock.
func (ts *TimeSeries) Sample() {
	ts.mu.Lock()
	now := ts.now()
	ts.sampleLocked(now)
	cb := ts.OnTick
	ts.mu.Unlock()
	if cb != nil {
		cb(now)
	}
}

func (ts *TimeSeries) sampleLocked(now time.Time) {
	ts.refreshSampledLocked()
	tMs := now.UnixMilli()
	tick := ts.tickN
	ts.tickN++
	for i := range ts.sampled {
		m := &ts.sampled[i]
		s := ts.series[m.name]
		switch m.kind {
		case KindCounter:
			v := float64(m.c.Value())
			for _, rg := range s.rings {
				if tick%rg.stride == 0 {
					rg.push(tMs, v)
				}
			}
		case KindGauge:
			v := float64(m.g())
			for _, rg := range s.rings {
				if tick%rg.stride == 0 {
					rg.push(tMs, v)
				}
			}
		case KindHistogram:
			hs := m.h.octaveSample()
			for _, rg := range s.rings {
				if tick%rg.stride == 0 {
					rg.pushHist(tMs, hs)
				}
			}
		}
	}
}

// refreshSampledLocked rebuilds the cached metric list iff the registry
// generation moved — one int comparison per tick at steady state.
func (ts *TimeSeries) refreshSampledLocked() {
	r := ts.reg
	r.mu.Lock()
	if r.gen == ts.gen {
		r.mu.Unlock()
		return
	}
	ts.gen = r.gen
	sampled := make([]sampledMetric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		sampled = append(sampled, sampledMetric{name: k, kind: KindCounter, c: c})
	}
	for k, fn := range r.gauges {
		sampled = append(sampled, sampledMetric{name: k, kind: KindGauge, g: fn})
	}
	for k, lgs := range r.labeled {
		for _, lg := range lgs {
			sampled = append(sampled, sampledMetric{name: k + lg.suffix, kind: KindGauge, g: lg.fn})
		}
	}
	for k, h := range r.hists {
		sampled = append(sampled, sampledMetric{name: k, kind: KindHistogram, h: h})
	}
	r.mu.Unlock()
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].name < sampled[j].name })
	ts.sampled = sampled
	for i := range sampled {
		if _, ok := ts.series[sampled[i].name]; !ok {
			ts.series[sampled[i].name] = newSeries(sampled[i].kind, ts.ladder)
		}
	}
}

// pickRing returns the finest ring whose retention covers window,
// falling back to the coarsest. Early in a process's life a coarse
// ring may not have accumulated two samples yet (its stride only
// lands every Nth tick) while a finer ring already has a usable
// history; prefer the finer ring then — partial data beats none.
func (s *tsSeries) pickRing(window time.Duration) *tsRing {
	var best *tsRing
	for _, rg := range s.rings {
		if best == nil && rg.n >= 2 {
			best = rg
		}
		if rg.step*time.Duration(len(rg.t)) >= window {
			if rg.n >= 2 || best == nil {
				return rg
			}
			return best
		}
	}
	if last := s.rings[len(s.rings)-1]; last.n >= 2 || best == nil {
		return last
	}
	return best
}

// firstAtOrAfter returns the k-index of the oldest retained sample with
// timestamp ≥ cutoff, clamped to the available data (0 when everything
// predates cutoff has been evicted, n-2 at most so an interval exists).
func (rg *tsRing) firstAtOrAfter(cutoffMs int64) int {
	k0 := 0
	for k := 0; k < rg.n; k++ {
		if rg.t[rg.idx(k)] >= cutoffMs {
			k0 = k
			break
		}
	}
	if k0 > rg.n-2 {
		k0 = rg.n - 2
	}
	return k0
}

// SeriesPoint is one (unix-ms, value) sample.
type SeriesPoint struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SeriesData is one metric's windowed view: raw samples (cumulative for
// counters and histogram counts, instantaneous for gauges) plus derived
// per-interval rates and quantiles.
type SeriesData struct {
	Name   string        `json:"name"`
	Kind   MetricKind    `json:"kind"`
	StepMs int64         `json:"stepMs"`
	Points []SeriesPoint `json:"points,omitempty"`
	Rate   []SeriesPoint `json:"rate,omitempty"` // counters & histograms: events/sec per interval
	P50    []SeriesPoint `json:"p50,omitempty"`  // histograms: per-interval quantile, ms
	P99    []SeriesPoint `json:"p99,omitempty"`
}

// TimeSeriesSnapshot is the /timeseries response shape.
type TimeSeriesSnapshot struct {
	NowMs    int64        `json:"nowMs"`
	TickMs   int64        `json:"tickMs"`
	WindowMs int64        `json:"windowMs"`
	Ladder   []Resolution `json:"ladder"`
	Series   []SeriesData `json:"series"`
}

// Query returns every series whose name contains nameFilter (all when
// empty) over the trailing window, read from the finest ladder level
// covering it and coarsened to at most one point per step (step ≤ 0
// keeps the level's native resolution).
func (ts *TimeSeries) Query(nameFilter string, window, step time.Duration) TimeSeriesSnapshot {
	if window <= 0 {
		window = 5 * time.Minute
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	now := ts.now()
	snap := TimeSeriesSnapshot{
		NowMs:    now.UnixMilli(),
		TickMs:   ts.ladder[0].Step.Milliseconds(),
		WindowMs: window.Milliseconds(),
		Ladder:   ts.ladder,
	}
	names := make([]string, 0, len(ts.series))
	for name := range ts.series {
		if nameFilter != "" && !strings.Contains(name, nameFilter) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	cutoff := now.UnixMilli() - window.Milliseconds()
	for _, name := range names {
		s := ts.series[name]
		rg := s.pickRing(window)
		if rg.n == 0 {
			continue
		}
		stride := 1
		if step > rg.step {
			stride = int(step / rg.step)
		}
		sd := SeriesData{Name: name, Kind: s.kind, StepMs: (rg.step * time.Duration(stride)).Milliseconds()}
		// Oldest in-window sample, then every stride-th sample after it.
		k0 := 0
		for k := 0; k < rg.n; k++ {
			if rg.t[rg.idx(k)] >= cutoff {
				k0 = k
				break
			}
		}
		var prevT int64
		var prevV float64
		var prevH *histSample
		for k := k0; k < rg.n; k += stride {
			i := rg.idx(k)
			tMs := rg.t[i]
			switch s.kind {
			case KindHistogram:
				hs := &rg.h[i]
				sd.Points = append(sd.Points, SeriesPoint{T: tMs, V: float64(hs.count)})
				if prevH != nil && tMs > prevT {
					dtSec := float64(tMs-prevT) / 1000
					d := diffHist(prevH, hs)
					sd.Rate = append(sd.Rate, SeriesPoint{T: tMs, V: float64(d.count) / dtSec})
					sd.P50 = append(sd.P50, SeriesPoint{T: tMs, V: d.quantile(0.50)})
					sd.P99 = append(sd.P99, SeriesPoint{T: tMs, V: d.quantile(0.99)})
				}
				prevH = hs
			default:
				v := rg.v[i]
				sd.Points = append(sd.Points, SeriesPoint{T: tMs, V: v})
				if s.kind == KindCounter && k > k0 && tMs > prevT {
					dv := v - prevV
					if dv < 0 {
						dv = 0
					}
					sd.Rate = append(sd.Rate, SeriesPoint{T: tMs, V: dv / (float64(tMs-prevT) / 1000)})
				}
				prevV = v
			}
			prevT = tMs
		}
		snap.Series = append(snap.Series, sd)
	}
	return snap
}

// diffHist subtracts two cumulative samples, clamping at zero.
func diffHist(a, b *histSample) histSample {
	d := histSample{count: max(b.count-a.count, 0), sumNs: max(b.sumNs-a.sumNs, 0)}
	for i := range d.buckets {
		d.buckets[i] = max(b.buckets[i]-a.buckets[i], 0)
	}
	return d
}

// scalarWindowLocked returns the first/last in-window samples of a
// scalar (counter or gauge) series, clamping the window to retained
// data. ok is false with fewer than two samples.
func (ts *TimeSeries) scalarWindowLocked(name string, window time.Duration) (v0, v1 float64, t0, t1 int64, ok bool) {
	s := ts.series[name]
	if s == nil || s.kind == KindHistogram {
		return
	}
	rg := s.pickRing(window)
	if rg.n < 2 {
		return
	}
	cutoff := ts.now().UnixMilli() - window.Milliseconds()
	k0 := rg.firstAtOrAfter(cutoff)
	i0, i1 := rg.idx(k0), rg.idx(rg.n-1)
	return rg.v[i0], rg.v[i1], rg.t[i0], rg.t[i1], true
}

// CounterDelta returns the named counter's increase over the trailing
// window (clamped to retained data; ok is false with <2 samples).
func (ts *TimeSeries) CounterDelta(name string, window time.Duration) (delta float64, dt time.Duration, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	v0, v1, t0, t1, ok := ts.scalarWindowLocked(name, window)
	if !ok || t1 <= t0 {
		return 0, 0, false
	}
	delta = v1 - v0
	if delta < 0 {
		delta = 0
	}
	return delta, time.Duration(t1-t0) * time.Millisecond, true
}

// CounterRate returns the named counter's per-second rate over the
// trailing window.
func (ts *TimeSeries) CounterRate(name string, window time.Duration) (perSec float64, ok bool) {
	delta, dt, ok := ts.CounterDelta(name, window)
	if !ok || dt <= 0 {
		return 0, false
	}
	return delta / dt.Seconds(), true
}

// Ratio returns Δnum/Δden over the trailing window — e.g. shed rate as
// Ratio("queries_shed_total", "queries_total", 1m). ok is false when
// either series lacks samples or the denominator didn't move.
func (ts *TimeSeries) Ratio(num, den string, window time.Duration) (float64, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n0, n1, _, _, ok := ts.scalarWindowLocked(num, window)
	if !ok {
		return 0, false
	}
	d0, d1, _, _, ok := ts.scalarWindowLocked(den, window)
	if !ok || d1-d0 <= 0 {
		return 0, false
	}
	dn := n1 - n0
	if dn < 0 {
		dn = 0
	}
	return dn / (d1 - d0), true
}

// HistQuantileOver returns the q-quantile in milliseconds of the named
// histogram's observations within the trailing window, by diffing the
// cumulative bucket arrays at the window edges. ok is false with <2
// samples or zero observations in the window.
func (ts *TimeSeries) HistQuantileOver(name string, q float64, window time.Duration) (ms float64, count int64, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.series[name]
	if s == nil || s.kind != KindHistogram {
		return 0, 0, false
	}
	rg := s.pickRing(window)
	if rg.n < 2 {
		return 0, 0, false
	}
	cutoff := ts.now().UnixMilli() - window.Milliseconds()
	k0 := rg.firstAtOrAfter(cutoff)
	d := diffHist(&rg.h[rg.idx(k0)], &rg.h[rg.idx(rg.n-1)])
	if d.count <= 0 {
		return 0, 0, false
	}
	return d.quantile(q), d.count, true
}

// Last returns the most recent sample of a scalar series.
func (ts *TimeSeries) Last(name string) (float64, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.series[name]
	if s == nil || s.kind == KindHistogram {
		return 0, false
	}
	rg := s.rings[0]
	if rg.n == 0 {
		return 0, false
	}
	return rg.v[rg.head], true
}

// parseWindowParam reads a duration query parameter, accepting Go
// duration syntax ("5m", "90s") or a bare integer second count.
func parseWindowParam(r *http.Request, key string, def time.Duration) time.Duration {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def
	}
	if d, err := time.ParseDuration(raw); err == nil && d > 0 {
		return d
	}
	if secs, err := strconv.Atoi(raw); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return def
}

// TimeSeriesHandler serves the /timeseries JSON API. Parameters:
// window (default 5m), step (coarsening interval), name (substring
// filter).
func TimeSeriesHandler(ts *TimeSeries) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		window := parseWindowParam(r, "window", 5*time.Minute)
		step := parseWindowParam(r, "step", 0)
		snap := ts.Query(r.URL.Query().Get("name"), window, step)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	}
}
