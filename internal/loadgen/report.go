package loadgen

import (
	"time"

	"repro/internal/obs"
)

// Report is the machine-readable result of one run: the configuration
// that produced it, whole-run totals, per-class breakdowns, and the
// slowest requests with their trace IDs. `qb2olap bench -report` writes
// it as JSON and `benchjson -slo` gates on it.
type Report struct {
	Mode    string  `json:"mode"`
	Clients int     `json:"clients"`
	Rate    float64 `json:"rate,omitempty"` // open loop only
	Seed    int64   `json:"seed"`

	DurationMs       float64 `json:"durationMs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`
	Retries          int64   `json:"retries,omitempty"`

	// Total aggregates every class; global SLO thresholds check it.
	Total   ClassReport   `json:"total"`
	Classes []ClassReport `json:"classes"`

	// Slowest lists the slowest observed requests (traced ones when
	// trace sampling was on), slowest first, for `qb2olap trace`
	// drill-down via their trace IDs.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// ClassReport is the per-class (or total) slice of a report.
type ClassReport struct {
	Class    string `json:"class"`
	Weight   int    `json:"weight,omitempty"`
	Sent     int64  `json:"sent"`
	OK       int64  `json:"ok"`
	Errors   int64  `json:"errors"`
	Shed     int64  `json:"shed"`
	Timeouts int64  `json:"timeouts"`
	Canceled int64  `json:"canceled"`

	// Latency is measured from the intended send instant in open-loop
	// mode (queueing included) and equals service time in closed-loop.
	Latency obs.HistogramSnapshot `json:"latency"`
	// Service is the naive send-to-completion time, reported in
	// open-loop mode so the coordinated-omission gap is visible.
	Service *obs.HistogramSnapshot `json:"service,omitempty"`
}

// SlowRequest cross-links one slow request to its trace.
type SlowRequest struct {
	Class     string  `json:"class"`
	Request   string  `json:"request,omitempty"`
	Seq       int     `json:"seq"`
	LatencyMs float64 `json:"latencyMs"`
	TraceID   string  `json:"traceId,omitempty"`
}

func (d *Driver) buildReport(elapsed time.Duration) *Report {
	rep := &Report{
		Mode:    string(d.opts.Mode),
		Clients: d.opts.Clients,
		Seed:    d.opts.Seed,
	}
	if d.opts.Mode == ModeOpen {
		rep.Rate = d.opts.Rate
	}
	rep.DurationMs = float64(elapsed) / float64(time.Millisecond)
	open := d.opts.Mode == ModeOpen
	totalLat, totalSvc := &obs.Histogram{}, &obs.Histogram{}
	for i, c := range d.classes {
		cs := d.states[i]
		cr := ClassReport{
			Class:    c.Name,
			Weight:   c.Weight,
			Sent:     cs.sent.Load(),
			OK:       cs.ok.Load(),
			Errors:   cs.errs.Load(),
			Shed:     cs.shed.Load(),
			Timeouts: cs.timeouts.Load(),
			Canceled: cs.canceled.Load(),
			Latency:  cs.lat.Snapshot(),
		}
		totalLat.Merge(&cs.lat)
		if open {
			svc := cs.svc.Snapshot()
			cr.Service = &svc
			totalSvc.Merge(&cs.svc)
		}
		rep.Total.Sent += cr.Sent
		rep.Total.OK += cr.OK
		rep.Total.Errors += cr.Errors
		rep.Total.Shed += cr.Shed
		rep.Total.Timeouts += cr.Timeouts
		rep.Total.Canceled += cr.Canceled
		rep.Classes = append(rep.Classes, cr)
	}
	rep.Total.Class = "all"
	rep.Total.Latency = totalLat.Snapshot()
	if open {
		svc := totalSvc.Snapshot()
		rep.Total.Service = &svc
	}
	if elapsed > 0 {
		done := rep.Total.OK + rep.Total.Errors + rep.Total.Shed + rep.Total.Timeouts + rep.Total.Canceled
		rep.ThroughputPerSec = float64(done) / elapsed.Seconds()
	}
	if rc, ok := d.exec.(RetryCounter); ok {
		rep.Retries = rc.RetryCount()
	}
	rep.Slowest = d.slow.list()
	return rep
}

// Canonical returns the deterministic view of a report for golden
// tests: timings, rates, and the slowest list vary run to run and are
// dropped; the configuration and every outcome count survive, because
// a seeded budgeted run replays the identical request stream.
func (r *Report) Canonical() *Report {
	c := *r
	c.DurationMs = 0
	c.ThroughputPerSec = 0
	c.Retries = 0
	c.Slowest = nil
	c.Total = r.Total.canonical()
	c.Classes = make([]ClassReport, len(r.Classes))
	for i, cr := range r.Classes {
		c.Classes[i] = cr.canonical()
	}
	return &c
}

func (cr ClassReport) canonical() ClassReport {
	c := cr
	c.Latency = obs.HistogramSnapshot{Count: cr.Latency.Count}
	if cr.Service != nil {
		c.Service = &obs.HistogramSnapshot{Count: cr.Service.Count}
	}
	return c
}
