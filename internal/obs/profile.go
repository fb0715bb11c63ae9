package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// Profiler captures pprof profiles into a size-bounded rotating
// directory when a trigger fires — the continuous-profiling half of the
// resource-accounting layer. Filenames carry the trigger, a
// millisecond timestamp, and the trace ID of the query that tripped
// the threshold, so a profile joins back to its trace in the JSONL
// archive:
//
//	heap_slow_1699999999123_4bf92f3577b34da6a3ce929d0e0e4736.pprof
//
// Captures are rate-limited (MinInterval) so a sustained overload
// yields a sampled timeline instead of a capture per request, and the
// directory is pruned oldest-first past MaxBytes — the same bounded
// retention idiom as the trace exporter's file rotation. All methods
// are nil-safe.
type Profiler struct {
	dir string

	// MaxBytes bounds the directory; oldest profiles are removed first
	// (<= 0 selects DefaultProfileMaxBytes).
	MaxBytes int64

	// MinInterval is the minimum spacing between captures
	// (<= 0 selects DefaultProfileInterval).
	MinInterval time.Duration

	lastCapture atomic.Int64 // unix nanos of the last capture
	captured    atomic.Int64
	skipped     atomic.Int64
}

// DefaultProfileMaxBytes bounds the profile directory (64 MB, matching
// the trace exporter's default rotation budget).
const DefaultProfileMaxBytes int64 = 64 << 20

// DefaultProfileInterval spaces threshold-triggered captures.
const DefaultProfileInterval = 30 * time.Second

// NewProfiler creates dir if needed and returns a profiler writing into
// it.
func NewProfiler(dir string) (*Profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	return &Profiler{dir: dir}, nil
}

// Dir returns the profile directory. Nil-safe.
func (p *Profiler) Dir() string {
	if p == nil {
		return ""
	}
	return p.dir
}

// Captured returns how many profiles were written. Nil-safe.
func (p *Profiler) Captured() int64 {
	if p == nil {
		return 0
	}
	return p.captured.Load()
}

// Skipped returns how many triggers were dropped by rate limiting.
// Nil-safe.
func (p *Profiler) Skipped() int64 {
	if p == nil {
		return 0
	}
	return p.skipped.Load()
}

// MaybeCapture records a heap profile if the rate limit allows,
// returning its path when one was written. trigger names the threshold
// that fired ("slow", "mem"); id is the trace of the offending query
// (may be empty). Nil-safe.
func (p *Profiler) MaybeCapture(trigger string, id TraceID) (string, bool) {
	if p == nil {
		return "", false
	}
	min := p.MinInterval
	if min <= 0 {
		min = DefaultProfileInterval
	}
	now := time.Now()
	last := p.lastCapture.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < min {
		p.skipped.Add(1)
		return "", false
	}
	if !p.lastCapture.CompareAndSwap(last, now.UnixNano()) {
		p.skipped.Add(1) // another trigger won the race
		return "", false
	}
	tid := string(id)
	if tid == "" {
		tid = "untraced"
	}
	heapPath := filepath.Join(p.dir, fmt.Sprintf("heap_%s_%d_%s.pprof", trigger, now.UnixMilli(), tid))
	if err := p.writeHeap(heapPath); err != nil {
		return "", false
	}
	p.captured.Add(1)
	p.enforceCap()
	return heapPath, true
}

func (p *Profiler) writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

// enforceCap prunes the oldest profiles until the directory fits
// MaxBytes.
func (p *Profiler) enforceCap() {
	max := p.MaxBytes
	if max <= 0 {
		max = DefaultProfileMaxBytes
	}
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	type finfo struct {
		path string
		mod  time.Time
		size int64
	}
	var files []finfo
	var total int64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".pprof" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, finfo{filepath.Join(p.dir, e.Name()), info.ModTime(), info.Size()})
		total += info.Size()
	}
	if total <= max {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		if total <= max {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}
