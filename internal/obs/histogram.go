package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// layout is a log-linear bucket scheme over microseconds. Values below
// 2^subBits get one exact unit bucket each; every power-of-two range
// [2^e, 2^(e+1)) above them is cut into 2^subBits equal sub-buckets, so
// a bucket spans at most 2^-subBits of its values. Values from
// 2^ceilBits µs up share the top bucket. With subBits 0 the scheme is
// plain log2: bucket i holds the values of bit length i.
type layout struct{ subBits, ceilBits int }

const (
	// histCeilBits is the ceiling both layouts share: 2^29 µs, about
	// nine minutes.
	histCeilBits = 29
	fineSubBits  = 5
	// fineBuckets is the Histogram's bucket count: 32 unit buckets,
	// then 32 sub-buckets (~3.1 % wide) per power of two up to the
	// ceiling — 800 in all.
	fineBuckets = (histCeilBits - fineSubBits + 1) << fineSubBits
	// octaveBuckets is the log2 view's bucket count; bucket i's upper
	// bound is 2^i µs.
	octaveBuckets = histCeilBits + 1
)

var (
	fine   = layout{fineSubBits, histCeilBits}
	octave = layout{0, histCeilBits}
)

// index maps a microsecond value to its bucket.
func (l layout) index(us int64) int {
	if us < 1<<l.subBits {
		return int(max(us, 0))
	}
	exp := bits.Len64(uint64(us)) - 1 // us in [2^exp, 2^(exp+1))
	if exp >= l.ceilBits {
		return (l.ceilBits-l.subBits+1)<<l.subBits - 1
	}
	shift := exp - l.subBits
	return shift<<l.subBits + int(us>>shift)
}

// low returns the lowest microsecond value of bucket i.
func (l layout) low(i int) int64 {
	n := 1 << l.subBits
	if i < n {
		return int64(i)
	}
	return int64(n+i&(n-1)) << (i>>l.subBits - 1)
}

// high returns the exclusive upper bound of bucket i; the top bucket's
// is the ceiling.
func (l layout) high(i int) int64 { return l.low(i + 1) }

// quantile returns the q-quantile (0 < q <= 1), in milliseconds, of
// total observations spread over counts: the landing bucket is found by
// cumulative rank and the value interpolated linearly inside it, capped
// at maxMs, the largest value known to be recorded.
func (l layout) quantile(counts []int64, total int64, q, maxMs float64) float64 {
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= target {
			lo, hi := float64(l.low(i))/1000, float64(l.high(i))/1000
			frac := min(max((target-float64(cum))/float64(c), 0), 1)
			return min(lo+frac*(hi-lo), maxMs)
		}
		cum += c
	}
	return maxMs
}

// Histogram is a lock-free latency histogram over the fine layout, so
// every quantile estimate carries a bounded relative error (~3.1 %),
// and an exact max. Observe is three atomic adds plus one atomic max,
// cheap enough for per-request use on hot paths and safe from any
// number of goroutines. The zero Histogram is ready to use; Observe,
// Merge and Snapshot are safe on a nil receiver. Merge is associative
// and commutative, so per-worker histograms combine in any order.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [fineBuckets]atomic.Int64
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	d = max(d, 0)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	storeMax(&h.maxNs, int64(d))
	h.buckets[fine.index(d.Microseconds())].Add(1)
}

// Merge folds other into h bucket by bucket. Concurrent Observes on
// either side may skew totals by the in-flight observations; merging
// quiescent histograms is exact.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	h.count.Add(other.count.Load())
	h.sumNs.Add(other.sumNs.Load())
	storeMax(&h.maxNs, other.maxNs.Load())
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// octaveSample is the histogram's cumulative state in the octave
// layout: the time series' sample, and the snapshot's buckets. The fold
// is exact: octave o is the run of fine buckets from the one holding its
// lowest value to the one holding its highest.
func (h *Histogram) octaveSample() histSample {
	s := histSample{count: h.count.Load(), sumNs: h.sumNs.Load()}
	for o := range s.buckets {
		run := h.buckets[fine.index(octave.low(o)) : fine.index(octave.high(o)-1)+1]
		n := int64(0)
		for i := range run {
			n += run[i].Load()
		}
		s.buckets[o] = n
	}
	return s
}

// HistogramSnapshot is the JSON-friendly point-in-time view of a
// Histogram: totals, interpolated quantiles and the exact max in
// milliseconds, and the non-empty buckets of the octave view.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumMs   float64           `json:"sumMs"`
	AvgMs   float64           `json:"avgMs"`
	P50Ms   float64           `json:"p50Ms"`
	P90Ms   float64           `json:"p90Ms"`
	P95Ms   float64           `json:"p95Ms"`
	P99Ms   float64           `json:"p99Ms"`
	MaxMs   float64           `json:"maxMs"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty octave: the count of observations
// below the upper bound LeMs and at or above the previous one.
type HistogramBucket struct {
	LeMs  float64 `json:"leMs"`
	Count int64   `json:"count"`
}

// Quantiles renders the headline quantiles as one human-readable line
// (used by the sparqld shutdown summary).
func (s HistogramSnapshot) Quantiles() string {
	return fmt.Sprintf("count=%d avg=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms",
		s.Count, s.AvgMs, s.P50Ms, s.P95Ms, s.P99Ms)
}

// Snapshot returns a consistent-enough view for reporting (buckets are
// read without a global lock; concurrent Observe calls may skew totals
// by a few in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumMs = float64(h.sumNs.Load()) / float64(time.Millisecond)
	if s.Count > 0 {
		s.AvgMs = s.SumMs / float64(s.Count)
	}
	s.MaxMs = float64(h.maxNs.Load()) / float64(time.Millisecond)
	var counts [fineBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.P50Ms = fine.quantile(counts[:], total, 0.50, s.MaxMs)
	s.P90Ms = fine.quantile(counts[:], total, 0.90, s.MaxMs)
	s.P95Ms = fine.quantile(counts[:], total, 0.95, s.MaxMs)
	s.P99Ms = fine.quantile(counts[:], total, 0.99, s.MaxMs)
	for i, n := range h.octaveSample().buckets {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LeMs: float64(octave.high(i)) / 1000, Count: n})
		}
	}
	return s
}
