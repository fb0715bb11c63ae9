package obs

import (
	"fmt"
	"html"
	"math"
	"net/http"
	"strings"
	"time"
)

// /debug/dash: a zero-dependency single-file HTML dashboard over the
// time-series rings. No external JS or CSS — the page is fully
// server-rendered with inline SVG sparklines and stat tiles, and
// refreshes itself with a <meta http-equiv=refresh> tag, so it works
// from nothing but a browser pointed at the endpoint. Colors follow
// the repo's chart conventions: series hues are reserved for marks,
// text wears ink tokens, status colors only ever mean status, and the
// dark theme is its own stepped palette (selected via
// prefers-color-scheme), not an automatic inversion.

// DashConfig names the registry metrics the dashboard's tiles read.
// Separating this from the handler lets sparqld and qb2olap bench share
// one dashboard over differently-named metric sets.
type DashConfig struct {
	Title          string
	QueriesCounter string   // q/s tile + throughput chart
	LatencyHist    string   // p50/p99 tiles + latency chart
	FailedCounter  string   // error-rate tile (ratio vs QueriesCounter)
	ShedCounter    string   // shed-rate tile (ratio vs QueriesCounter)
	InflightGauge  string   // in-flight tile
	Extra          []string // extra gauges tiled as-is (heap, goroutines)
}

// DefaultDashConfig is the sparqld metric set.
func DefaultDashConfig() DashConfig {
	return DashConfig{
		Title:          "sparqld",
		QueriesCounter: "queries_total",
		LatencyHist:    "query_latency",
		FailedCounter:  "queries_failed_total",
		ShedCounter:    "queries_shed_total",
		InflightGauge:  "queries_inflight",
		Extra:          []string{"go_heap_inuse_bytes", "go_goroutines"},
	}
}

// BenchDashConfig is the qb2olap bench metric set.
func BenchDashConfig() DashConfig {
	return DashConfig{
		Title:          "qb2olap bench",
		QueriesCounter: "bench_sent_total",
		LatencyHist:    "bench_latency",
		FailedCounter:  "bench_errors_total",
		ShedCounter:    "bench_shed_total",
		InflightGauge:  "bench_inflight",
		Extra:          []string{"go_heap_inuse_bytes", "go_goroutines"},
	}
}

// dashCSS holds the palette tokens: light values on .viz-root, dark
// values under both the OS media query and an explicit data-theme
// scope. Series colors are reserved for marks; status colors for the
// alert banner only.
const dashCSS = `
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --status-good: #0ca30c; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926;
}
body.viz-root {
  margin: 0; padding: 16px; background: var(--page); color: var(--text-primary);
  font: 14px/1.4 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; }
.sub { color: var(--text-muted); font-size: 12px; margin-bottom: 12px; }
.sub a { color: var(--text-secondary); text-decoration: none; margin-right: 8px; }
.sub a.on { color: var(--text-primary); font-weight: 600; }
.banner { border-radius: 6px; padding: 8px 12px; margin-bottom: 12px;
  border: 1px solid var(--border); background: var(--surface-1); }
.banner .dot { display: inline-block; width: 10px; height: 10px; border-radius: 5px;
  margin-right: 8px; vertical-align: baseline; }
.banner.ok .dot { background: var(--status-good); }
.banner.bad .dot { background: var(--status-critical); }
.banner.bad { border-color: var(--status-critical); }
.banner small { color: var(--text-secondary); }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(240px, 1fr)); gap: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 12px; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.tile .v { font-size: 26px; font-weight: 600; margin: 2px 0 6px; }
.tile .v small { font-size: 13px; font-weight: 400; color: var(--text-muted); }
.tile .mm { color: var(--text-muted); font-size: 11px;
  font-variant-numeric: tabular-nums; display: flex; justify-content: space-between; }
.tile.wide { grid-column: span 2; }
.nodata { color: var(--text-muted); font-size: 12px; padding: 12px 0; }
.lbl { font-size: 11px; fill: var(--text-secondary); }
svg polyline { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
svg .s1 { stroke: var(--series-1); }
svg .s2 { stroke: var(--series-2); }
svg .base { stroke: var(--grid); stroke-width: 1; }
`

// sparkSVG renders one or two series as an inline sparkline. Two series
// share one y-scale anchored at a zero baseline; labels name them
// directly in secondary ink (text never wears the series color).
func sparkSVG(s1, s2 []SeriesPoint, l1, l2 string) string {
	const w, h = 220.0, 42.0
	if len(s1) < 2 && len(s2) < 2 {
		return `<div class="nodata">no data yet</div>`
	}
	all := append(append([]SeriesPoint{}, s1...), s2...)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range all {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	if lo > 0 {
		lo = 0
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	scale := func(pts []SeriesPoint) string {
		if len(pts) < 2 {
			return ""
		}
		t0, t1 := pts[0].T, pts[len(pts)-1].T
		dt := float64(t1 - t0)
		if dt <= 0 {
			dt = 1
		}
		var b strings.Builder
		for i, p := range pts {
			x := float64(p.T-t0) / dt * w
			y := h - (p.V-lo)/span*h
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.1f,%.1f", x, y)
		}
		return b.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" height="%g" role="img">`, w, h+14, h+14)
	fmt.Fprintf(&b, `<line class="base" x1="0" y1="%g" x2="%g" y2="%g"/>`, h, w, h)
	if p := scale(s1); p != "" {
		fmt.Fprintf(&b, `<polyline class="s1" points="%s"/>`, p)
	}
	if p := scale(s2); p != "" {
		fmt.Fprintf(&b, `<polyline class="s2" points="%s"/>`, p)
	}
	if l1 != "" && len(s2) >= 2 {
		// Direct labels only when two series share the plot; a single
		// series is named by its tile heading.
		fmt.Fprintf(&b, `<text class="lbl" x="2" y="%g">%s</text>`, h+12, html.EscapeString(l1))
		fmt.Fprintf(&b, `<text class="lbl" x="%g" y="%g" text-anchor="end">%s</text>`, w-2, h+12, html.EscapeString(l2))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// fmtVal renders a tile value with a magnitude suffix.
func fmtVal(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av >= 100 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// DashHandler serves /debug/dash. alerts may be nil (no banner rules).
func DashHandler(ts *TimeSeries, alerts *Alerts, cfg DashConfig) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		window := parseWindowParam(r, "window", 5*time.Minute)
		snap := ts.Query("", window, 0)
		byName := make(map[string]*SeriesData, len(snap.Series))
		for i := range snap.Series {
			byName[snap.Series[i].Name] = &snap.Series[i]
		}
		series := func(name string) *SeriesData {
			if sd, ok := byName[name]; ok {
				return sd
			}
			return &SeriesData{}
		}

		var b strings.Builder
		b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">`)
		b.WriteString(`<meta http-equiv="refresh" content="2">`)
		fmt.Fprintf(&b, `<title>%s dashboard</title><style>%s</style></head><body class="viz-root">`,
			html.EscapeString(cfg.Title), dashCSS)
		fmt.Fprintf(&b, `<h1>%s</h1>`, html.EscapeString(cfg.Title))
		b.WriteString(`<div class="sub">window `)
		for _, opt := range []struct {
			d time.Duration
			l string
		}{{5 * time.Minute, "5m"}, {time.Hour, "1h"}, {12 * time.Hour, "12h"}} {
			cls := ""
			if opt.d == window {
				cls = ` class="on"`
			}
			fmt.Fprintf(&b, `<a href="?window=%s"%s>%s</a>`, opt.l, cls, opt.l)
		}
		fmt.Fprintf(&b, `· tick %dms · refreshed %s</div>`,
			snap.TickMs, time.UnixMilli(snap.NowMs).UTC().Format("15:04:05Z"))

		if alerts != nil {
			as := alerts.Snapshot()
			if as.Firing > 0 {
				var names []string
				for _, ru := range as.Rules {
					if ru.Firing {
						names = append(names, fmt.Sprintf("%s (%.3g > %.3g)", ru.Name, ru.FastValue, ru.Max))
					}
				}
				fmt.Fprintf(&b, `<div class="banner bad"><span class="dot"></span><b>%d alert(s) firing:</b> %s <small><a href="/alerts">details</a></small></div>`,
					as.Firing, html.EscapeString(strings.Join(names, ", ")))
			} else {
				fmt.Fprintf(&b, `<div class="banner ok"><span class="dot"></span>all %d alert rules quiet <small><a href="/alerts">details</a></small></div>`,
					len(as.Rules))
			}
		}

		b.WriteString(`<div class="grid">`)
		tile := func(wide bool, label, value, unit, svg string) {
			cls := "tile"
			if wide {
				cls = "tile wide"
			}
			fmt.Fprintf(&b, `<div class="%s"><div class="k">%s</div><div class="v">%s`,
				cls, html.EscapeString(label), value)
			if unit != "" {
				fmt.Fprintf(&b, ` <small>%s</small>`, html.EscapeString(unit))
			}
			fmt.Fprintf(&b, `</div>%s</div>`, svg)
		}

		// Throughput: windowed rate headline + per-interval rate spark.
		qsd := series(cfg.QueriesCounter)
		if rate, ok := ts.CounterRate(cfg.QueriesCounter, window); ok {
			tile(false, "throughput", fmtVal(rate), "q/s", sparkSVG(qsd.Rate, nil, "", ""))
		} else {
			tile(false, "throughput", "–", "q/s", sparkSVG(qsd.Rate, nil, "", ""))
		}

		// Latency: windowed p50/p99 headline + two-series chart.
		lsd := series(cfg.LatencyHist)
		p50, _, ok50 := ts.HistQuantileOver(cfg.LatencyHist, 0.50, window)
		p99, _, ok99 := ts.HistQuantileOver(cfg.LatencyHist, 0.99, window)
		lv := "–"
		if ok50 && ok99 {
			lv = fmt.Sprintf(`%s <small>p50</small> / %s`, html.EscapeString(fmtVal(p50)), html.EscapeString(fmtVal(p99)))
		}
		tile(true, "latency p50 / p99", lv, "ms p99", sparkSVG(lsd.P50, lsd.P99, "p50", "p99"))

		rateTile := func(label, num string) {
			nsd := series(num)
			if ratio, ok := ts.Ratio(num, cfg.QueriesCounter, window); ok {
				tile(false, label, fmt.Sprintf("%.2f", ratio*100), "%", sparkSVG(nsd.Rate, nil, "", ""))
			} else {
				tile(false, label, "–", "%", sparkSVG(nsd.Rate, nil, "", ""))
			}
		}
		rateTile("error rate", cfg.FailedCounter)
		rateTile("shed rate", cfg.ShedCounter)

		gaugeTile := func(label, name, unit string, scale float64) {
			sd := series(name)
			if v, ok := ts.Last(name); ok {
				tile(false, label, fmtVal(v/scale), unit, sparkSVG(sd.Points, nil, "", ""))
			} else {
				tile(false, label, "–", unit, sparkSVG(sd.Points, nil, "", ""))
			}
		}
		gaugeTile("in flight", cfg.InflightGauge, "", 1)
		for _, name := range cfg.Extra {
			unit, scale := "", 1.0
			label := name
			if strings.Contains(name, "bytes") {
				unit, scale = "MiB", 1<<20
			}
			gaugeTile(label, name, unit, scale)
		}

		b.WriteString(`</div></body></html>`)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(b.String()))
	}
}
