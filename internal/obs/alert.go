package obs

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Burn-rate alerting over the time-series rings. A rule is a threshold
// on a windowed value — a latency quantile or a counter ratio — checked
// over a fast window and a slow window each evaluation (one per tick,
// via TimeSeries.OnTick). The rule FIRES only when both windows violate
// the threshold: the slow window proves the violation is sustained, the
// fast window proves it is still happening. It RESOLVES as soon as the
// fast window recovers, so a drained incident clears quickly even while
// the slow window still remembers it. A window with too little data
// (fewer than two samples, or a zero denominator / zero observations)
// is not evaluable and causes no state change in either direction.
//
// Rule state is held in atomics so the registry's labeled gauges and
// the /alerts handler read it without taking the evaluation lock —
// the sampling pass holds TimeSeries.mu while reading gauges, and the
// evaluator calls back into TimeSeries, so sharing a mutex between
// those two paths would deadlock.

// RuleKind selects how an AlertRule derives its windowed value.
type RuleKind string

const (
	// RuleQuantile checks a histogram quantile (ms) over the window.
	RuleQuantile RuleKind = "quantile"
	// RuleRatio checks Δnum/Δden of two counters over the window.
	RuleRatio RuleKind = "ratio"
)

// AlertRule is one threshold evaluated continuously.
type AlertRule struct {
	Name   string   `json:"name"`
	Kind   RuleKind `json:"kind"`
	Metric string   `json:"metric,omitempty"` // quantile: histogram name
	Q      float64  `json:"q,omitempty"`      // quantile: e.g. 0.99
	Num    string   `json:"num,omitempty"`    // ratio: numerator counter
	Den    string   `json:"den,omitempty"`    // ratio: denominator counter
	Max    float64  `json:"max"`              // firing threshold (exclusive)
}

// alertState is one rule's live state, atomically readable.
type alertState struct {
	firing      atomic.Bool
	sinceMs     atomic.Int64 // transition time of the current state
	transitions atomic.Int64
	fastBits    atomic.Uint64 // last fast-window value (Float64bits)
	slowBits    atomic.Uint64
	fastOK      atomic.Bool // was the fast window evaluable last eval
	slowOK      atomic.Bool
}

// Alerts evaluates a rule set against a TimeSeries.
type Alerts struct {
	ts     *TimeSeries
	rules  []AlertRule
	fast   time.Duration
	slow   time.Duration
	logger *slog.Logger

	fired    *Counter
	resolved *Counter

	evalMu sync.Mutex
	state  []*alertState
}

// NewAlerts builds an evaluator over ts and registers its exposition
// in reg: alert_firing{rule="…"} per rule, the alerts_firing count, and
// alerts_fired_total / alerts_resolved_total transition counters. The
// window pair is the reach of ts's ladder levels: fast is level 0's,
// slow is level 1's, or level 0's again on a one-level ladder — 5m and
// 1h for NewLadder at a 1s tick. Transitions are logged to logger when
// non-nil. Hook Eval into ts.OnTick to evaluate once per sampling tick.
func NewAlerts(ts *TimeSeries, reg *Registry, rules []AlertRule, logger *slog.Logger) *Alerts {
	ladder := ts.Ladder()
	fast := ladder[0].Retention()
	slow := fast
	if len(ladder) > 1 {
		slow = ladder[1].Retention()
	}
	a := &Alerts{
		ts:       ts,
		rules:    rules,
		fast:     fast,
		slow:     slow,
		logger:   logger,
		fired:    reg.Counter("alerts_fired_total"),
		resolved: reg.Counter("alerts_resolved_total"),
		state:    make([]*alertState, len(rules)),
	}
	for i := range rules {
		st := &alertState{}
		a.state[i] = st
		reg.GaugeWith("alert_firing", []Label{{Key: "rule", Value: rules[i].Name}}, func() int64 {
			if st.firing.Load() {
				return 1
			}
			return 0
		})
	}
	reg.Gauge("alerts_firing", func() int64 {
		n := int64(0)
		for _, st := range a.state {
			if st.firing.Load() {
				n++
			}
		}
		return n
	})
	return a
}

// evalRule computes one rule's value over a window.
func (a *Alerts) evalRule(r *AlertRule, window time.Duration) (v float64, ok bool) {
	switch r.Kind {
	case RuleQuantile:
		ms, _, ok := a.ts.HistQuantileOver(r.Metric, r.Q, window)
		return ms, ok
	case RuleRatio:
		return a.ts.Ratio(r.Num, r.Den, window)
	}
	return 0, false
}

// Eval re-evaluates every rule as of now, applying fire/resolve
// transitions. Safe for concurrent use with the handlers and the
// registry's gauges; evaluations themselves are serialized.
func (a *Alerts) Eval(now time.Time) {
	a.evalMu.Lock()
	defer a.evalMu.Unlock()
	for i := range a.rules {
		r := &a.rules[i]
		st := a.state[i]
		fastV, fastOK := a.evalRule(r, a.fast)
		slowV, slowOK := a.evalRule(r, a.slow)
		st.fastBits.Store(math.Float64bits(fastV))
		st.slowBits.Store(math.Float64bits(slowV))
		st.fastOK.Store(fastOK)
		st.slowOK.Store(slowOK)
		if !st.firing.Load() {
			if fastOK && slowOK && fastV > r.Max && slowV > r.Max {
				st.firing.Store(true)
				st.sinceMs.Store(now.UnixMilli())
				st.transitions.Add(1)
				a.fired.Inc()
				if a.logger != nil {
					a.logger.Warn("alert firing", "rule", r.Name,
						"fast", fastV, "slow", slowV, "max", r.Max)
				}
			}
		} else if fastOK && fastV <= r.Max {
			st.firing.Store(false)
			st.sinceMs.Store(now.UnixMilli())
			st.transitions.Add(1)
			a.resolved.Inc()
			if a.logger != nil {
				a.logger.Info("alert resolved", "rule", r.Name,
					"fast", fastV, "max", r.Max)
			}
		}
	}
}

// AlertStatus is one rule's state in the /alerts response.
type AlertStatus struct {
	Name        string   `json:"name"`
	Kind        RuleKind `json:"kind"`
	Max         float64  `json:"max"`
	Firing      bool     `json:"firing"`
	SinceMs     int64    `json:"sinceMs,omitempty"`
	FastValue   float64  `json:"fastValue"`
	SlowValue   float64  `json:"slowValue"`
	FastOK      bool     `json:"fastOk"`
	SlowOK      bool     `json:"slowOk"`
	Transitions int64    `json:"transitions"`
}

// AlertsSnapshot is the /alerts response shape.
type AlertsSnapshot struct {
	FastWindowMs int64         `json:"fastWindowMs"`
	SlowWindowMs int64         `json:"slowWindowMs"`
	Firing       int           `json:"firing"`
	Rules        []AlertStatus `json:"rules"`
}

// Snapshot returns the current state of every rule.
func (a *Alerts) Snapshot() AlertsSnapshot {
	snap := AlertsSnapshot{
		FastWindowMs: a.fast.Milliseconds(),
		SlowWindowMs: a.slow.Milliseconds(),
		Rules:        make([]AlertStatus, 0, len(a.rules)),
	}
	for i := range a.rules {
		r := &a.rules[i]
		st := a.state[i]
		firing := st.firing.Load()
		if firing {
			snap.Firing++
		}
		snap.Rules = append(snap.Rules, AlertStatus{
			Name:        r.Name,
			Kind:        r.Kind,
			Max:         r.Max,
			Firing:      firing,
			SinceMs:     st.sinceMs.Load(),
			FastValue:   math.Float64frombits(st.fastBits.Load()),
			SlowValue:   math.Float64frombits(st.slowBits.Load()),
			FastOK:      st.fastOK.Load(),
			SlowOK:      st.slowOK.Load(),
			Transitions: st.transitions.Load(),
		})
	}
	return snap
}

// AlertsHandler serves the /alerts JSON API.
func AlertsHandler(a *Alerts) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Snapshot())
	}
}
