package obs

import (
	"fmt"
	"math/rand/v2"
)

// TraceID identifies one end-to-end query trace: 16 random bytes in
// lower-case hex (32 characters), the format of the trace-id field of a
// W3C traceparent header. The same ID names the trace in every process
// that contributes spans to it, in exported JSONL, in the slow-query
// log, and in the access log, so records from all of those surfaces can
// be joined.
type TraceID string

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	return TraceID(fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64()))
}

// NewSpanID returns a fresh random 8-byte span ID in hex (the parent-id
// field of a traceparent header).
func NewSpanID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// Sampler decides which traces are recorded, so tracing can stay
// enabled in production: unsampled queries skip span allocation
// entirely and cost one hash of the trace ID.
//
// The decision is a deterministic function of the trace ID (sample iff
// hash(id) falls below rate·2^64), so every process seeing the same
// trace ID independently reaches the same verdict — though in the
// cross-process protocol the caller's verdict additionally travels in
// the traceparent sampled flag and wins.
//
// A nil *Sampler samples everything, which preserves the pre-sampling
// behaviour of a Tracer-equipped endpoint. Immutable, so safe for
// concurrent use.
type Sampler struct {
	rate      float64
	threshold uint64 // below rate 1, sample iff fnv64a(id) < threshold
}

// NewSampler returns a sampler recording the given fraction of traces
// (clamped to [0, 1]). Rate 1 samples everything, rate 0 nothing.
func NewSampler(rate float64) *Sampler {
	s := &Sampler{rate: min(max(rate, 0), 1)}
	if s.rate < 1 {
		s.threshold = uint64(s.rate * float64(1<<63) * 2)
	}
	return s
}

// Rate reports the configured sampling fraction (1 for a nil sampler).
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 1
	}
	return s.rate
}

// fnv64a is FNV-1a over the trace ID bytes: cheap, allocation-free, and
// uniform enough over random IDs for threshold sampling.
func fnv64a(id TraceID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// Sample reports whether the trace identified by id should be recorded.
// Nil-safe: a nil sampler samples everything.
func (s *Sampler) Sample(id TraceID) bool {
	return s == nil || s.rate >= 1 || fnv64a(id) < s.threshold
}
