package obs

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the oracle: the nearest-rank quantile of a sorted
// sample, the definition the histogram approximates.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// TestRecorderQuantileAccuracy draws seeded samples from three latency
// shapes (uniform, log-normal, bimodal-with-tail) and asserts every
// headline quantile of a Histogram is within its design bound — the
// sub-bucket relative error (~3.1%) plus interpolation slack — of the
// exact sorted-sample oracle.
func TestRecorderQuantileAccuracy(t *testing.T) {
	const relBound = 0.05 // 1/32 bucket width + interpolation slack
	shapes := map[string]func(r *rand.Rand) time.Duration{
		"uniform": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(200 * time.Millisecond)))
		},
		"lognormal": func(r *rand.Rand) time.Duration {
			return time.Duration(math.Exp(r.NormFloat64()*1.2+10)) * time.Microsecond
		},
		"bimodal": func(r *rand.Rand) time.Duration {
			if r.Float64() < 0.05 {
				return time.Duration(1+r.Int63n(4)) * time.Second // slow tail
			}
			return time.Duration(1+r.Int63n(10)) * time.Millisecond
		},
	}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var rec Histogram
			samples := make([]time.Duration, 0, 20000)
			for i := 0; i < 20000; i++ {
				d := draw(rng)
				samples = append(samples, d)
				rec.Observe(d)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			snap := rec.Snapshot()
			for q, got := range map[float64]float64{0.50: snap.P50Ms, 0.90: snap.P90Ms, 0.95: snap.P95Ms, 0.99: snap.P99Ms} {
				want := float64(exactQuantile(samples, q)) / float64(time.Millisecond)
				if want == 0 {
					continue
				}
				if rel := math.Abs(got-want) / want; rel > relBound {
					t.Errorf("q%.2f: histogram %.4fms vs oracle %.4fms (relative error %.1f%% > %.0f%%)",
						q, got, want, rel*100, relBound*100)
				}
			}
			// Max is exact, not bucketed.
			wantMax := float64(samples[len(samples)-1]) / float64(time.Millisecond)
			if got := snap.MaxMs; math.Abs(got-wantMax) > 1e-9 {
				t.Errorf("max: got %.6fms want %.6fms", got, wantMax)
			}
		})
	}
}

// TestRecorderMergeAssociative checks (A ∪ B) ∪ C == A ∪ (B ∪ C) and
// that the merged view equals recording every sample into one Histogram
// directly — the property that makes per-worker histograms combinable.
func TestRecorderMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]*Histogram, 3)
	var all Histogram
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 5000; j++ {
			d := time.Duration(rng.Int63n(int64(3 * time.Second)))
			parts[i].Observe(d)
			all.Observe(d)
		}
	}
	// left: ((A+B)+C), right: (A+(B+C)); merge into fresh histograms so
	// the parts stay intact.
	var left, right, bc Histogram
	left.Merge(parts[0])
	left.Merge(parts[1])
	left.Merge(parts[2])
	bc.Merge(parts[1])
	bc.Merge(parts[2])
	right.Merge(parts[0])
	right.Merge(&bc)

	ls, rs, as := left.Snapshot(), right.Snapshot(), all.Snapshot()
	if !reflect.DeepEqual(ls, rs) {
		t.Errorf("merge not associative:\nleft  %+v\nright %+v", ls, rs)
	}
	if !reflect.DeepEqual(ls, as) {
		t.Errorf("merged differs from direct recording:\nmerged %+v\ndirect %+v", ls, as)
	}
}

// TestRecorderConcurrentObserve hammers one Histogram from several
// goroutines (the load driver's worker shape) and checks totals; -race
// guards the memory model.
func TestRecorderConcurrentObserve(t *testing.T) {
	var rec Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				rec.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	s := rec.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.P50Ms <= 0 || s.P99Ms < s.P50Ms || s.MaxMs < s.P99Ms {
		t.Fatalf("implausible snapshot: %+v", s)
	}
}

// TestRecorderZeroAndNil covers the Histogram's nil-safe and empty
// paths.
func TestRecorderZeroAndNil(t *testing.T) {
	var nilRec *Histogram
	nilRec.Observe(time.Second) // must not panic
	nilRec.Merge(&Histogram{})
	if s := nilRec.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
	var empty Histogram
	if s := empty.Snapshot(); !reflect.DeepEqual(s, HistogramSnapshot{}) {
		t.Fatalf("empty snapshot: %+v", s)
	}
	empty.Observe(-time.Second) // clamps, not panics
	if s := empty.Snapshot(); s.Count != 1 || s.P50Ms != 0 {
		t.Fatalf("negative observation mishandled: %+v", empty.Snapshot())
	}
}

// TestHistogramQuantilesWithinObservedRange pins the interpolation to
// what was recorded: 100 observations of exactly 0.5 ms must report
// every quantile within one sub-bucket (~3.1 %) of 0.5 ms and none above
// the max, in the snapshot and in the Prometheus summary.
func TestHistogramQuantilesWithinObservedRange(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.Observe(500 * time.Microsecond)
	}
	s := h.Snapshot()
	for name, v := range map[string]float64{"p50": s.P50Ms, "p90": s.P90Ms, "p95": s.P95Ms, "p99": s.P99Ms} {
		if math.Abs(v-0.5)/0.5 > 1.0/32 || v > s.MaxMs {
			t.Errorf("%s = %vms, want within 3.1%% of 0.5ms and <= max %vms", name, v, s.MaxMs)
		}
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	const prefix = `lat_seconds{quantile="0.99"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			if p99, err := strconv.ParseFloat(v, 64); err != nil || p99 > 0.0005 {
				t.Errorf("%s: want <= 0.0005 (err %v)", line, err)
			}
			return
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, b.String())
}

// TestOctaveFoldIsLog2 checks that folding the fine layout to octaves
// reproduces the log2 buckets the time series have always sampled:
// every value's fine bucket folds to min(bit length, 29), so does the
// histogram's octave sample, and octave i's upper bound is 2^i µs.
func TestOctaveFoldIsLog2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	var want [octaveBuckets]int64
	for n := 0; n <= 40; n++ {
		for k := 0; k < 200; k++ {
			us := int64(0)
			if n > 0 {
				us = 1<<(n-1) | rng.Int63n(1<<(n-1)) // bit length n
			}
			log2 := min(bits.Len64(uint64(us)), histCeilBits)
			if got := octave.index(fine.low(fine.index(us))); got != log2 {
				t.Fatalf("us=%d: octave %d, want %d", us, got, log2)
			}
			h.Observe(time.Duration(us) * time.Microsecond)
			want[log2]++
		}
	}
	if got := h.octaveSample().buckets; got != want {
		t.Errorf("octave sample = %v, want %v", got, want)
	}
	for i := 0; i < octaveBuckets; i++ {
		if got := octave.high(i); got != 1<<i {
			t.Errorf("octave.high(%d) = %d, want %d", i, got, int64(1)<<i)
		}
	}
}
