package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic time seam: each Advance moves the
// sampler's notion of now.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestNewLadder(t *testing.T) {
	full := NewLadder(time.Second, 12*time.Hour)
	if len(full) != 3 {
		t.Fatalf("ladder levels = %d, want 3", len(full))
	}
	wantSteps := []time.Duration{time.Second, 10 * time.Second, time.Minute}
	for i, res := range full {
		if res.Step != wantSteps[i] {
			t.Errorf("level %d step = %s, want %s", i, res.Step, wantSteps[i])
		}
	}
	if got := full[2].Retention(); got != 12*time.Hour {
		t.Errorf("coarsest retention = %s, want 12h", got)
	}
	// A retention the finest level already covers keeps one level.
	if short := NewLadder(time.Second, 2*time.Minute); len(short) != 1 {
		t.Errorf("short ladder levels = %d, want 1", len(short))
	}
	// Defaults kick in for non-positive arguments.
	if def := NewLadder(0, 0); def[0].Step != time.Second || len(def) != 3 {
		t.Errorf("default ladder = %+v", def)
	}
}

// TestDownsamplingOracle checks the stride-sampling invariant: because
// samples are cumulative, every coarse-level point must equal the
// fine-level point taken at the same tick, and a windowed rate
// computed at the coarse level must match a full-resolution recompute
// over the same endpoints.
func TestDownsamplingOracle(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs")
	h := reg.Histogram("lat")
	ladder := []Resolution{{Step: time.Second, Size: 600}, {Step: 10 * time.Second, Size: 60}}
	ts := NewTimeSeries(reg, ladder)
	clock := newFakeClock()
	ts.SetNow(clock.Now)

	// 120 ticks of deterministic traffic: tick i adds i+1 requests and
	// observes one latency of (i%20+1) ms.
	for i := 0; i < 120; i++ {
		c.Add(int64(i + 1))
		h.Observe(time.Duration(i%20+1) * time.Millisecond)
		ts.Sample()
		clock.Advance(time.Second)
	}

	fine := ts.Query("reqs", 10*time.Minute, 0).Series[0]
	coarse := ts.Query("reqs", 10*time.Minute, 10*time.Second).Series[0]
	if len(coarse.Points) == 0 {
		t.Fatal("no coarse points")
	}
	fineByT := map[int64]float64{}
	for _, p := range fine.Points {
		fineByT[p.T] = p.V
	}
	for _, p := range coarse.Points {
		fv, ok := fineByT[p.T]
		if !ok {
			t.Fatalf("coarse point at t=%d has no fine-level counterpart", p.T)
		}
		if fv != p.V {
			t.Errorf("coarse point at t=%d = %v, fine = %v", p.T, p.V, fv)
		}
	}

	// Windowed counter delta vs oracle: cumulative diff over the window
	// endpoints recomputed from the fine series.
	window := 60 * time.Second
	delta, _, ok := ts.CounterDelta("reqs", window)
	if !ok {
		t.Fatal("CounterDelta not ok")
	}
	cutoff := clock.Now().UnixMilli() - window.Milliseconds()
	var first, last float64
	found := false
	for _, p := range fine.Points {
		if p.T >= cutoff && !found {
			first, found = p.V, true
		}
		last = p.V
	}
	if want := last - first; delta != want {
		t.Errorf("CounterDelta = %v, oracle = %v", delta, want)
	}

	// Windowed histogram quantile vs direct recompute over the same
	// observations: ticks in the window observed (i%20+1)ms each.
	ms, count, ok := ts.HistQuantileOver("lat", 0.99, window)
	if !ok {
		t.Fatal("HistQuantileOver not ok")
	}
	var oracle Histogram
	// The window [cutoff, now] clamps to samples: first in-window
	// sample is tick 60 (its pre-observation state), so observations
	// 61..119 land between the endpoints.
	for i := 61; i < 120; i++ {
		oracle.Observe(time.Duration(i%20+1) * time.Millisecond)
	}
	// The series sample the octave view, so the oracle folds to octaves
	// before taking the quantile.
	snap := oracle.octaveSample()
	if count != snap.count {
		t.Fatalf("windowed count = %d, oracle = %d", count, snap.count)
	}
	if want := snap.quantile(0.99); ms != want {
		t.Errorf("windowed p99 = %v, oracle = %v", ms, want)
	}
}

func TestTimeSeriesGaugeAndRingWrap(t *testing.T) {
	reg := NewRegistry()
	v := int64(0)
	reg.Gauge("depth", func() int64 { return v })
	ts := NewTimeSeries(reg, []Resolution{{Step: time.Second, Size: 8}})
	clock := newFakeClock()
	ts.SetNow(clock.Now)
	for i := 0; i < 20; i++ {
		v = int64(i)
		ts.Sample()
		clock.Advance(time.Second)
	}
	sd := ts.Query("depth", time.Minute, 0).Series[0]
	if len(sd.Points) != 8 {
		t.Fatalf("ring held %d points, want 8", len(sd.Points))
	}
	if sd.Points[0].V != 12 || sd.Points[7].V != 19 {
		t.Errorf("ring window = [%v..%v], want [12..19]", sd.Points[0].V, sd.Points[7].V)
	}
	if last, ok := ts.Last("depth"); !ok || last != 19 {
		t.Errorf("Last = %v,%v want 19,true", last, ok)
	}
}

func TestRatioAndInsufficientData(t *testing.T) {
	reg := NewRegistry()
	shed := reg.Counter("shed")
	total := reg.Counter("total")
	ts := NewTimeSeries(reg, []Resolution{{Step: time.Second, Size: 60}})
	clock := newFakeClock()
	ts.SetNow(clock.Now)

	if _, ok := ts.Ratio("shed", "total", time.Minute); ok {
		t.Error("Ratio with no samples should not be ok")
	}
	ts.Sample()
	clock.Advance(time.Second)
	if _, ok := ts.Ratio("shed", "total", time.Minute); ok {
		t.Error("Ratio with one sample should not be ok")
	}
	// Denominator unmoved → not evaluable.
	ts.Sample()
	clock.Advance(time.Second)
	if _, ok := ts.Ratio("shed", "total", time.Minute); ok {
		t.Error("Ratio with zero denominator delta should not be ok")
	}
	total.Add(10)
	shed.Add(4)
	ts.Sample()
	clock.Advance(time.Second)
	r, ok := ts.Ratio("shed", "total", time.Minute)
	if !ok || r != 0.4 {
		t.Errorf("Ratio = %v,%v want 0.4,true", r, ok)
	}
}

// TestTimeSeriesHandler exercises the JSON API parameters.
func TestTimeSeriesHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(5)
	reg.Counter("b_total").Add(7)
	ts := NewTimeSeries(reg, []Resolution{{Step: time.Second, Size: 60}})
	clock := newFakeClock()
	ts.SetNow(clock.Now)
	for i := 0; i < 5; i++ {
		ts.Sample()
		clock.Advance(time.Second)
	}
	h := TimeSeriesHandler(ts)

	req := httptest.NewRequest("GET", "/timeseries?window=30s&name=a_", nil)
	rr := httptest.NewRecorder()
	h(rr, req)
	var snap TimeSeriesSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if snap.WindowMs != 30_000 {
		t.Errorf("windowMs = %d, want 30000", snap.WindowMs)
	}
	if len(snap.Series) != 1 || snap.Series[0].Name != "a_total" {
		t.Fatalf("name filter returned %+v", snap.Series)
	}
	if snap.Series[0].Kind != KindCounter || len(snap.Series[0].Points) != 5 {
		t.Errorf("series = kind %s with %d points", snap.Series[0].Kind, len(snap.Series[0].Points))
	}
}

// TestTimeSeriesConcurrency races ticks, observations, registrations,
// and queries; run under -race this is the data-race check the tick
// path's locking discipline is accountable to.
func TestTimeSeriesConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h")
	ts := NewTimeSeries(reg, []Resolution{{Step: time.Millisecond, Size: 128}, {Step: 10 * time.Millisecond, Size: 32}})
	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopObs:
					return
				default:
				}
				c.Inc()
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				if i%100 == 0 && i < 100*64 {
					// Late registration forces sampler-cache rebuilds
					// concurrent with ticks. Capped: every registered
					// counter makes Sample slower, so on a loaded host
					// unbounded registration outruns the 200 samples
					// below and the test never ends.
					reg.Counter(fmt.Sprintf("late_%d_%d", w, i))
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		ts.Sample()
		if i%10 == 0 {
			ts.Query("", time.Minute, 0)
			ts.CounterRate("c", time.Second)
			ts.HistQuantileOver("h", 0.99, time.Second)
		}
	}
	close(stopObs)
	wg.Wait()
}

// TestStartStop covers the real ticker path (wall clock).
func TestStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	ts := NewTimeSeries(reg, []Resolution{{Step: 5 * time.Millisecond, Size: 64}})
	ticked := make(chan struct{}, 1)
	ts.OnTick = func(time.Time) {
		select {
		case ticked <- struct{}{}:
		default:
		}
	}
	stop := ts.Start()
	select {
	case <-ticked:
	case <-time.After(2 * time.Second):
		t.Fatal("sampler never ticked")
	}
	stop()
	stop() // idempotent
}
