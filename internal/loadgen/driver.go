package loadgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Driver runs one workload against an executor. Construct with New,
// run with Run; a Driver is single-use.
type Driver struct {
	classes []Class
	exec    Executor
	opts    Options

	states   []*classState
	inflight atomic.Int64
	slow     slowList
	bm       *benchMetrics
}

// benchMetrics mirrors the per-request accounting into a metrics
// registry (Options.Metrics), one counter per outcome plus the latency
// histogram, so a time-series sampler can watch the run live.
type benchMetrics struct {
	sent, ok, errs, shed, timeouts, canceled *obs.Counter
	lat                                      *obs.Histogram
}

// classState is the per-class accumulator shared by all workers.
type classState struct {
	sent, ok, errs, shed, timeouts, canceled atomic.Int64
	lat                                      obs.Histogram // intended-based in open loop, service time in closed
	svc                                      obs.Histogram // service time (open loop only)
}

// New validates the workload and returns a driver. Every class must
// have a positive weight and a non-empty corpus (drop empty classes
// before calling); ModeOpen requires a positive Rate; at least one of
// Requests and Duration must bound the run.
func New(classes []Class, exec Executor, opts Options) (*Driver, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("loadgen: no traffic classes")
	}
	for _, c := range classes {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: class %q has non-positive weight", c.Name)
		}
		if len(c.Requests) == 0 {
			return nil, fmt.Errorf("loadgen: class %q has an empty corpus", c.Name)
		}
	}
	switch opts.Mode {
	case ModeClosed:
	case ModeOpen:
		if opts.Rate <= 0 {
			return nil, fmt.Errorf("loadgen: open-loop mode requires a positive rate")
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %q", opts.Mode)
	}
	if opts.Requests <= 0 && opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: bound the run with a request budget or a duration")
	}
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.SlowestK <= 0 {
		opts.SlowestK = 5
	}
	d := &Driver{classes: classes, exec: exec, opts: opts}
	d.states = make([]*classState, len(classes))
	for i := range d.states {
		d.states[i] = &classState{}
	}
	d.slow.k = opts.SlowestK
	if reg := opts.Metrics; reg != nil {
		d.bm = &benchMetrics{
			sent:     reg.Counter("bench_sent_total"),
			ok:       reg.Counter("bench_ok_total"),
			errs:     reg.Counter("bench_errors_total"),
			shed:     reg.Counter("bench_shed_total"),
			timeouts: reg.Counter("bench_timeouts_total"),
			canceled: reg.Counter("bench_canceled_total"),
			lat:      reg.Histogram("bench_latency"),
		}
		reg.Gauge("bench_inflight", d.inflight.Load)
	}
	return d, nil
}

// Run executes the workload and returns its report. It blocks until
// the request budget is spent, the duration elapses, or ctx ends —
// whichever comes first; in-flight requests are drained before the
// report is built. An early ctx cancel is not an error: the report
// covers what ran.
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx := ctx
	var cancel context.CancelFunc
	if d.opts.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, d.opts.Duration)
		defer cancel()
	}
	sched := newSchedule(d.classes, d.opts.Seed, d.opts.Requests, d.openRate())

	ph := d.opts.Progress.Phase("bench")
	if d.opts.Requests > 0 {
		ph.Grow(int64(d.opts.Requests))
	}

	start := time.Now()
	stopSnap := d.startSnapshots(start)

	var wg sync.WaitGroup
	if d.opts.Mode == ModeClosed {
		for w := 0; w < d.opts.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					o, ok := sched.take()
					if !ok {
						return
					}
					d.execute(runCtx, o, time.Time{}, ph)
				}
			}()
		}
	} else {
		// Open loop: one dispatcher walks the arrival schedule and
		// fires each request in its own goroutine at (or as soon as
		// possible after) its intended instant. Concurrency is
		// unbounded by design — capping it would reintroduce the
		// coordinated omission the intended-time measurement exists
		// to expose.
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			if !timer.Stop() {
				<-timer.C
			}
			for runCtx.Err() == nil {
				o, ok := sched.take()
				if !ok {
					return
				}
				intended := start.Add(o.arrival)
				if wait := time.Until(intended); wait > 0 {
					timer.Reset(wait)
					select {
					case <-runCtx.Done():
						return
					case <-timer.C:
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.execute(runCtx, o, intended, ph)
				}()
			}
		}()
	}
	wg.Wait()
	stopSnap()
	elapsed := time.Since(start)
	ph.Done()
	return d.buildReport(elapsed), nil
}

func (d *Driver) openRate() float64 {
	if d.opts.Mode == ModeOpen {
		return d.opts.Rate
	}
	return 0
}

// execute runs one scheduled request and accounts for it. In open
// loop, intended is the scheduled send instant and latency is measured
// from it; in closed loop intended is zero and latency is service
// time.
func (d *Driver) execute(ctx context.Context, o op, intended time.Time, ph *obs.Phase) {
	cs := d.states[o.class]
	req := d.classes[o.class].Requests[o.req]
	cs.sent.Add(1)
	d.inflight.Add(1)

	if d.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.opts.Timeout)
		defer cancel()
	}

	traced := false
	var traceID string
	var err error
	sendStart := time.Now()
	if te, ok := d.exec.(TracedExecutor); ok && d.opts.TraceEvery > 0 && o.seq%d.opts.TraceEvery == 0 {
		traced = true
		traceID, err = te.DoTraced(ctx, req)
	} else {
		err = d.exec.Do(ctx, req)
	}
	end := time.Now()
	d.inflight.Add(-1)

	service := end.Sub(sendStart)
	latency := service
	if !intended.IsZero() {
		latency = end.Sub(intended)
		cs.svc.Observe(service)
	}
	cs.lat.Observe(latency)

	outcome := Classify(err)
	switch outcome {
	case obs.OutcomeOK:
		cs.ok.Add(1)
	case obs.OutcomeShed:
		cs.shed.Add(1)
	case obs.OutcomeTimeout:
		cs.timeouts.Add(1)
	case obs.OutcomeCanceled:
		cs.canceled.Add(1)
	default:
		cs.errs.Add(1)
	}
	if bm := d.bm; bm != nil {
		bm.sent.Inc()
		bm.lat.Observe(latency)
		switch outcome {
		case obs.OutcomeOK:
			bm.ok.Inc()
		case obs.OutcomeShed:
			bm.shed.Inc()
		case obs.OutcomeTimeout:
			bm.timeouts.Inc()
		case obs.OutcomeCanceled:
			bm.canceled.Inc()
		default:
			bm.errs.Inc()
		}
	}
	ph.Add(1)

	// Only traced requests enter the slowest list when tracing is on:
	// those are the ones `qb2olap trace` can drill into. With tracing
	// off every request is a candidate (with an empty trace ID).
	if traced || d.opts.TraceEvery <= 0 {
		d.slow.add(SlowRequest{
			Class:     d.classes[o.class].Name,
			Request:   req.Name,
			Seq:       o.seq,
			LatencyMs: float64(latency) / float64(time.Millisecond),
			TraceID:   traceID,
		})
	}
}

// startSnapshots launches the live snapshot ticker; the returned stop
// function emits one final snapshot so short runs still report.
func (d *Driver) startSnapshots(start time.Time) (stop func()) {
	if d.opts.OnSnapshot == nil || d.opts.SnapshotInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(d.opts.SnapshotInterval)
		defer t.Stop()
		var prev Snapshot
		for {
			select {
			case <-done:
				return
			case <-t.C:
				cur := d.snapshot(start, prev)
				d.opts.OnSnapshot(cur)
				prev = cur
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			d.opts.OnSnapshot(d.snapshot(start, Snapshot{}))
		})
	}
}

// Snapshot is one live observation of the run, streamed to OnSnapshot.
// Interval rates are computed against the previous snapshot; the final
// snapshot (prev zeroed) carries whole-run rates.
type Snapshot struct {
	ElapsedMs float64 `json:"elapsedMs"`
	Sent      int64   `json:"sent"`
	OK        int64   `json:"ok"`
	Errors    int64   `json:"errors"`
	Shed      int64   `json:"shed"`
	Timeouts  int64   `json:"timeouts"`
	Canceled  int64   `json:"canceled"`
	Retries   int64   `json:"retries"`
	InFlight  int64   `json:"inFlight"`
	// ThroughputPerSec is completions per second since the previous
	// snapshot.
	ThroughputPerSec float64 `json:"throughputPerSec"`
	// P50Ms/P99Ms are cumulative latency quantiles across all classes
	// (intended-based in open loop).
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`
}

func (d *Driver) snapshot(start time.Time, prev Snapshot) Snapshot {
	var s Snapshot
	s.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	merged := &obs.Histogram{}
	for _, cs := range d.states {
		s.Sent += cs.sent.Load()
		s.OK += cs.ok.Load()
		s.Errors += cs.errs.Load()
		s.Shed += cs.shed.Load()
		s.Timeouts += cs.timeouts.Load()
		s.Canceled += cs.canceled.Load()
		merged.Merge(&cs.lat)
	}
	if rc, ok := d.exec.(RetryCounter); ok {
		s.Retries = rc.RetryCount()
	}
	s.InFlight = d.inflight.Load()
	done := s.OK + s.Errors + s.Shed + s.Timeouts + s.Canceled
	prevDone := prev.OK + prev.Errors + prev.Shed + prev.Timeouts + prev.Canceled
	if dt := s.ElapsedMs - prev.ElapsedMs; dt > 0 {
		s.ThroughputPerSec = float64(done-prevDone) / (dt / 1000)
	}
	lat := merged.Snapshot()
	s.P50Ms, s.P99Ms = lat.P50Ms, lat.P99Ms
	return s
}

// slowList keeps the K slowest candidate requests seen so far.
type slowList struct {
	mu sync.Mutex
	k  int
	v  []SlowRequest
}

func (l *slowList) add(r SlowRequest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.v = append(l.v, r)
	sort.Slice(l.v, func(i, j int) bool { return l.v[i].LatencyMs > l.v[j].LatencyMs })
	if len(l.v) > l.k {
		l.v = l.v[:l.k]
	}
}

func (l *slowList) list() []SlowRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowRequest, len(l.v))
	copy(out, l.v)
	return out
}
