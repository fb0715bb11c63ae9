package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/qb4olap"
	"repro/internal/store"
)

// env is the serving side of one run: a real loopback listener in this
// process whose handler can be pointed at a fresh store (enrich-3k
// starts every session from a freshly loaded one), and the HTTP client
// the single closed-loop driver sends through.
type env struct {
	st      *store.Store
	srv     *endpoint.Server
	hs      *http.Server
	served  chan struct{}
	handler atomic.Pointer[http.Handler]
	rem     *endpoint.Remote
}

func newEnv() (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listening on loopback: %w", err)
	}
	e := &env{served: make(chan struct{})}
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*e.handler.Load()).ServeHTTP(w, r)
	})}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	e.rem = endpoint.NewRemote("http://" + ln.Addr().String())
	// A transport of its own, so close() can drop the keep-alive
	// connection; Remote's zero resilience settings mean one attempt,
	// so a shed or timed-out request surfaces as an unverified op.
	e.rem.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return e, nil
}

// serve points the listener at a new protocol server over st, with
// every server and engine option at the library default.
func (e *env) serve(st *store.Store) {
	e.st = st
	e.srv = endpoint.NewServer(st)
	h := e.srv.Handler()
	e.handler.Store(&h)
}

// close stops the listener and waits for the serving goroutine.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.served
	e.rem.HTTPClient.CloseIdleConnections()
}

// op is one request of a workload's fixed list.
type op struct {
	kind string // op kind, e.g. "mary/direct"; ops of a kind do the same work
	req  string // canonical request text, hashed into the stream hash
	// prepare runs untimed before the op (enrich-3k loads a fresh store).
	prepare func(t *tracer) error
	// run is the timed call through the public API, as a user makes it.
	run func(c endpoint.SPARQLClient) (any, error)
	// step is the traced variant: the same work, one public call per
	// span. Nil when run is already a single call on the client.
	step func(c *tracedClient) (any, error)
	// check is the untimed oracle over run's (or step's) result; it may
	// query the served state through c.
	check func(c endpoint.SPARQLClient, t *tracer, result any) error
}

// run holds one benchmark run of one workload.
type run struct {
	w      *workload
	seed   int64
	rng    *rand.Rand
	tr     *tracer // nil on the untraced set-ups
	env    *env
	client endpoint.SPARQLClient // env.rem, or its traced decorator during traced set-up
	// schema is the served cube's QB4OLAP schema: the set-up's for the
	// cube workloads, the last verified session's for enrich-3k.
	schema *qb4olap.CubeSchema

	ops []op
	// reset restores the served state after a round, untimed, so every
	// round sends the same requests against the same state.
	reset func() error
}

// sample is what the harness records around one timed op.
type sample struct {
	kind   string
	ms     float64
	cpuS   float64
	allocB float64
	err    error // nil when the op returned and matched its oracle
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative bytes allocated on the heap.
func heapAllocated() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// liveHeapMB is the heap still reachable after two collections (the
// second frees what finalizers of the first released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// doOp runs one op untraced: prepare and the oracle check are outside
// the timed interval, the CPU and allocation counters are read
// immediately around it.
func (r *run) doOp(o *op) sample {
	s := sample{kind: o.kind}
	if o.prepare != nil {
		if s.err = o.prepare(nil); s.err != nil {
			return s
		}
	}
	cpu0, alloc0, t0 := cpuSeconds(), heapAllocated(), time.Now()
	res, err := o.run(r.env.rem)
	s.ms = ms(time.Since(t0))
	s.cpuS = cpuSeconds() - cpu0
	s.allocB = heapAllocated() - alloc0
	if err == nil {
		err = o.check(r.env.rem, nil, res)
	}
	s.err = err
	return s
}

// round runs the op list once and then restores the served state.
func (r *run) round() ([]sample, error) {
	out := make([]sample, 0, len(r.ops))
	for i := range r.ops {
		out = append(out, r.doOp(&r.ops[i]))
	}
	if r.reset != nil {
		if err := r.reset(); err != nil {
			return out, fmt.Errorf("bench: resetting %s after a round: %w", r.w.name, err)
		}
	}
	return out, nil
}

// minOps is the fewest timed ops a run may report on: with 100, the
// nearest-rank p90 has ten samples beyond it.
const minOps = 100

// measured is the outcome of the untraced measured phase.
type measured struct {
	samples []sample
	rounds  [][]sample
	heapMB  float64
}

// measure is the untraced measured phase: one untimed warm-up round
// over every op kind, a collection, then whole rounds of the identical
// request list, with a collection between rounds outside any timed
// interval, until both the time budget and the minimum op count are
// met. A traced run passes between, which runs the same list step by
// step after every untraced round, so the two are compared seconds,
// not minutes, apart: this sandbox's cores drift by 10 % and more
// over a run.
func (r *run) measure(seconds float64, atLeast int, between func() error) (*measured, error) {
	warm, err := r.round()
	if err != nil {
		return nil, err
	}
	for _, s := range warm {
		if s.err != nil {
			return nil, fmt.Errorf("bench: %s warm-up op %s unverified: %w", r.w.name, s.kind, s.err)
		}
	}
	runtime.GC()

	m := &measured{}
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(m.samples) < atLeast {
		rs, err := r.round()
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, rs)
		m.samples = append(m.samples, rs...)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
	}
	m.heapMB = liveHeapMB()
	return m, nil
}

// roundPercentile is the median over rounds of each round's own
// nearest-rank percentile. Every round sends the same requests, so each
// gives one estimate of the same number, and the median of them ignores
// the spells of a second or more in which this shared host runs
// everything slower; a percentile over all ops pooled moves as soon as a
// tenth of the run falls into one.
func (m *measured) roundPercentile(p float64) float64 {
	per := make([]float64, len(m.rounds))
	for i, rs := range m.rounds {
		per[i] = nearestRank(latencies(rs), p)
	}
	return median(per)
}

// latencies is the sorted latencies of the given samples.
func latencies(samples []sample) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.ms
	}
	sort.Float64s(lat)
	return lat
}

// p50 is the nearest-rank median latency of all timed ops pooled: what
// the traced run's budget sets against the traced ops, pooled likewise.
func (m *measured) p50() float64 { return nearestRank(latencies(m.samples), 50) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the order the end-to-end metrics are printed in;
// units and bounds live in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"verified_ratio", "ratio"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// endToEndMetrics folds the samples into the eight end-to-end metrics,
// percentiles and rates alike as the median over rounds of each round's
// own value. It refuses a run whose ops, pooled, would leave fewer than
// ten samples beyond the p90.
func (m *measured) endToEndMetrics(setupS float64) (map[string]metric, error) {
	verified := 0
	for _, s := range m.samples {
		if s.err == nil {
			verified++
		}
	}
	if _, err := percentile(latencies(m.samples), 90); err != nil {
		return nil, err
	}
	p50, p90 := m.roundPercentile(50), m.roundPercentile(90)
	var rate, cpu, alloc []float64
	for _, rs := range m.rounds {
		var t, c, a float64
		for _, s := range rs {
			t += s.ms
			c += s.cpuS
			a += s.allocB
		}
		n := float64(len(rs))
		rate = append(rate, n/(t/1000))
		cpu = append(cpu, c/n)
		alloc = append(alloc, a/n/(1<<20))
	}
	vals := []float64{setupS, p50, p90, median(rate),
		float64(verified) / float64(len(m.samples)), median(cpu), median(alloc), m.heapMB}
	out := make(map[string]metric, len(endToEnd))
	for i, e := range endToEnd {
		out[e.name] = metric{Value: vals[i], Unit: e.unit}
	}
	return out, nil
}

// streamHash identifies the request stream of one round: two runs with
// one seed must send byte-identical requests.
func streamHash(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s\x00%s\x00", o.kind, o.req)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pooledLine renders the nearest-rank percentiles over all timed ops
// pooled, beside which the reported medians over rounds can be read.
func (m *measured) pooledLine() string {
	lat := latencies(m.samples)
	return fmt.Sprintf("over all %d untraced ops pooled: p50 %.3f ms, p90 %.3f ms", len(lat), nearestRank(lat, 50), nearestRank(lat, 90))
}

// kindLines renders the sample count and median latency of each op
// kind, fastest first: where p50 and p90 fall among the kinds is what
// decides whether they sit on a cliff.
func (m *measured) kindLines() []string {
	byKind := make(map[string][]float64)
	for _, s := range m.samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	kinds := make([]string, 0, len(byKind))
	med := make(map[string]float64, len(byKind))
	for k, xs := range byKind {
		kinds = append(kinds, k)
		med[k] = median(xs)
	}
	sort.Slice(kinds, func(i, j int) bool { return med[kinds[i]] < med[kinds[j]] })
	for i, k := range kinds {
		kinds[i] = fmt.Sprintf("%-34s n=%-4d median %10.3f ms", k, len(byKind[k]), med[k])
	}
	return kinds
}
