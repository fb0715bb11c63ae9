// Command bench is the repository's benchmark: four fixed request
// lists on the serving path (QL or SPARQL → endpoint.Remote → HTTP on a
// loopback listener in this process → endpoint.Server → sparql → store),
// driven by one closed-loop client, every answer checked against an
// oracle. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench -workload olap-20k -seed 1 -seconds 16
//	go run ./bench -workload all -seed 1 -trace 1
//	go run ./bench -workload refresh-20k -repeat 5
//	go run ./bench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/store"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median. A single set-up of about a second was the noisiest
// number of the rejected first benchmark.
const setupRepeats = 5

// tracedRounds is the fewest pairs of an untraced and a step-by-step
// round a traced run makes. One round gives each op kind a single
// sample; three steady the per-layer medians.
const tracedRounds = 3

// report is what one run prints: the contract's four keys, plus the
// run's identity and sample counts under -json.
type report struct {
	Workload   string            `json:"workload,omitempty"`
	Seed       int64             `json:"seed,omitempty"`
	Traced     bool              `json:"traced,omitempty"`
	Rounds     int               `json:"rounds,omitempty"`
	StreamHash string            `json:"stream_hash,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`

	order  []string // metric names in print order
	kinds  []string // one line per op kind: count and median latency
	pooled string   // the percentiles over all ops pooled, for comparison
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the data, the op order and every query constant (2 is the hold-out)")
		seconds = flag.Float64("seconds", 16, "least wall time of the measured phase; it always runs whole rounds and at least 100 ops")
		trace   = flag.Int("trace", 0, "1 = also run one round step by step and report the per-layer metrics instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 1, "run each workload this many times and print each metric's median, quartiles and range")
		list    = flag.Bool("list", false, "print the workload and metric names and exit")
		asJSON  = flag.Bool("json", false, "add workload, seed, rounds and request-stream hash to each printed object")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		printList()
		return
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}

	start := time.Now()
	ok := true
	for _, w := range selected {
		var reps []*report
		for i := 0; i < *repeat; i++ {
			rep, err := runWorkload(w, *seed, *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			rep.print(os.Stderr)
			reps = append(reps, rep)
			ok = ok && rep.Correct
			runtime.GC()
		}
		if *repeat > 1 {
			printSpread(w.name, reps)
		}
		last := reps[len(reps)-1]
		if !*asJSON {
			last = &report{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics}
		}
		if err := json.NewEncoder(os.Stdout).Encode(last); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time %.1f s\n", time.Since(start).Seconds())
	if !ok {
		os.Exit(1)
	}
}

// setUp brings one workload up on a fresh listener and times it.
func setUp(w *workload, seed int64, tr *tracer) (*run, float64, error) {
	e, err := newEnv()
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, seed: seed, rng: rand.New(rand.NewSource(seed)), tr: tr, env: e, client: e.rem}
	if tr != nil {
		r.client = &tracedClient{inner: e.rem, tr: tr, env: e}
	}
	start := time.Now()
	if err := w.setup(r); err != nil {
		e.close()
		return nil, 0, err
	}
	return r, time.Since(start).Seconds(), nil
}

// runWorkload is one benchmark run: set-up (five times untraced, once
// traced) and the measured phase; with traced set every untraced round
// is followed by the same round step by step, and the probes and the
// per-layer budget end the run.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) (*report, error) {
	var tr *tracer
	repeats := setupRepeats
	if traced {
		tr, repeats = newTracer(), 1
	}
	var r *run
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.env.close()
			r = nil
			runtime.GC()
		}
		var s float64
		var err error
		if r, s, err = setUp(w, seed, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	defer r.env.close()

	rep := &report{Workload: w.name, Seed: seed, Traced: traced, StreamHash: streamHash(r.ops)}
	atLeast, between := minOps, func() error { return nil }
	if traced {
		tc := r.client.(*tracedClient)
		atLeast = tracedRounds * len(r.ops)
		between = func() error {
			failed, err := r.traceRound(tc)
			rep.Attempted += len(r.ops)
			rep.Failed += failed
			return err
		}
	}
	m, err := r.measure(seconds, atLeast, between)
	if err != nil {
		return nil, err
	}
	rep.Rounds = len(m.rounds)
	rep.Attempted += len(m.samples)
	rep.kinds = m.kindLines()
	rep.pooled = m.pooledLine()
	for _, s := range m.samples {
		if s.err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s: op %s unverified: %v\n", w.name, s.kind, s.err)
		}
	}
	rep.Correct = rep.Failed == 0

	if !traced {
		if rep.Metrics, err = m.endToEndMetrics(median(setupS)); err != nil {
			return nil, err
		}
		for _, e := range endToEnd {
			rep.order = append(rep.order, e.name)
		}
		return rep, nil
	}
	if err := r.finishTrace(r.client.(*tracedClient), m.p50()); err != nil {
		return nil, err
	}
	rep.Metrics = make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		rep.Metrics[lm.name] = metric{Value: lm.value(tr), Unit: lm.unit}
		rep.order = append(rep.order, lm.name)
	}
	path := "bench/out/trace-" + w.name + ".jsonl"
	if err := tr.writeFile(path); err != nil {
		return nil, fmt.Errorf("bench: writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	return rep, nil
}

// traceRound runs the op list once step by step, one span per public
// call, and returns how many ops were unverified.
func (r *run) traceRound(c *tracedClient) (failed int, err error) {
	t := c.tr
	for i := range r.ops {
		o := &r.ops[i]
		if o.prepare != nil {
			if err := o.prepare(t); err != nil {
				return failed, err
			}
		}
		t.op = len(t.opMs) + 1
		aside := t.aside
		id := t.begin("op." + o.kind)
		step := o.step
		if step == nil {
			step = func(c *tracedClient) (any, error) { return o.run(c) }
		}
		res, err := step(c)
		t.opMs = append(t.opMs, ms(t.end(id)-(t.aside-aside)))
		t.op = 0
		if err == nil {
			err = o.check(c, t, res)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s: traced op %s unverified: %v\n", r.w.name, o.kind, err)
		}
	}
	if r.reset != nil {
		return failed, r.reset()
	}
	return failed, nil
}

// finishTrace ends a traced run: the probes for layers the workload's
// own requests did not reach, the store's footprint, and the per-layer
// budget against the p50 of the untraced rounds run in between.
func (r *run) finishTrace(c *tracedClient, untracedP50 float64) error {
	t := c.tr
	t.add("store.triples", float64(r.env.st.TotalLen()))
	if err := r.probeLayers(c); err != nil {
		return err
	}
	// What the store and the server over it hold per triple: the live
	// heap with them minus the live heap once they are dropped (the
	// harness's own data stays). Nothing is served after this point.
	with, triples := liveHeapMB(), float64(r.env.st.TotalLen())
	r.reset = nil // the only other reference to the store
	r.env.serve(store.New())
	t.add("store.bytes_per_triple", (with-liveHeapMB())*(1<<20)/triples)
	t.budget(r.w.name, untracedP50)
	return nil
}

// print writes every metric by name with its unit.
func (rep *report) print(w *os.File) {
	kind := "end-to-end"
	if rep.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d: %s metrics over %d ops in %d rounds, %d unverified\n",
		rep.Workload, rep.Seed, kind, rep.Attempted, rep.Rounds, rep.Failed)
	for _, name := range rep.order {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintln(w, " ", rep.pooled)
	fmt.Fprintln(w, "  untraced latency by op kind, fastest first:")
	for _, line := range rep.kinds {
		fmt.Fprintln(w, "   ", line)
	}
}

// printSpread summarizes repeated runs of one workload: each metric's
// median, quartiles (as the contract computes them) and range.
func printSpread(name string, reps []*report) {
	fmt.Fprintf(os.Stderr, "\n%s: spread over %d runs\n", name, len(reps))
	fmt.Fprintf(os.Stderr, "  %-30s %12s %12s %12s %10s %12s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, metricName := range reps[0].order {
		var xs []float64
		for _, rep := range reps {
			xs = append(xs, rep.Metrics[metricName].Value)
		}
		s := sortedCopy(xs)
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(os.Stderr, "  %-30s %12.6g %12.6g %12.6g %9.2f%% %11.2f%%\n",
			metricName, med, q1, q3, 100*(q3-q1)/med, 100*(s[len(s)-1]-s[0])/med)
	}
	fmt.Fprintln(os.Stderr)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (every workload, -trace 0):")
	for _, e := range endToEnd {
		fmt.Printf("  %-30s %s\n", e.name, e.unit)
	}
	fmt.Println("per-layer metrics (every workload, -trace 1):")
	for _, m := range layerMetrics {
		fmt.Printf("  %-30s %s\n", m.name, m.unit)
	}
}
