// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON map on stdout (or -o file): benchmark name →
// ns/op, B/op, allocs/op. It exists so `make bench-json` can snapshot
// benchmark results (BENCH_PR3.json) without any tooling beyond the Go
// toolchain.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem . | benchjson -o BENCH.json
//	benchjson -compare [-threshold 0.10] OLD.json NEW.json
//	benchjson -ablation planner [-threshold 0.10] BENCH.json
//	benchjson -slo slo.json REPORT.json
//
// The GOMAXPROCS suffix (-8) is stripped from names so snapshots
// diff cleanly across machines; sub-benchmark paths are kept. When a
// name repeats (go test -count N) the fastest sample is kept, so N is
// best-of-N.
//
// -compare diffs two snapshots benchmark by benchmark and exits
// non-zero when any benchmark's ns/op regressed by more than
// -threshold (a fraction; default 0.10 = 10%). Added and removed
// benchmarks are reported but never fail the comparison.
//
// -slo FILE gates a `qb2olap bench -report` run report against the
// SLO thresholds in FILE (p50/p99 latency, error rate, shed rate —
// globally and per traffic class) and exits non-zero when any
// threshold is violated. `make bench-slo` uses this to fail the build
// when a short mixed workload against the fixture server breaks the
// checked-in slo.json.
//
// -ablation KEY gates an on/off ablation within a single snapshot: for
// every benchmark whose sub-benchmark path ends in "/KEY=on", the
// sibling ending in "/KEY=off" is looked up and the comparison exits
// non-zero when the on arm is slower than the off arm by more than
// -threshold. `make bench-compare` uses this to pin the cost-based
// planner (planner=on) to within the threshold of the planner-off
// baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

// Result is one benchmark's measurements. Zero-valued fields were not
// reported (e.g. -benchmem missing).
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// benchLine matches "BenchmarkName-8   10   123 ns/op   45 B/op   6 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procSuffix is the trailing GOMAXPROCS marker on the name (Go appends
// it once, at the very end of the full sub-benchmark path).
var procSuffix = regexp.MustCompile(`-\d+$`)

func parse(lines *bufio.Scanner) (map[string]Result, error) {
	out := make(map[string]Result)
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := Result{Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		// A name repeated by -count N keeps its fastest sample: the
		// least disturbed run is the one a later snapshot can repeat.
		if prev, ok := out[name]; !ok || r.NsPerOp < prev.NsPerOp {
			out[name] = r
		}
	}
	return out, lines.Err()
}

// loadSnapshot reads a JSON snapshot previously written by this tool.
func loadSnapshot(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// fmtNs renders a ns/op value as a human duration (µs/ms/s) without
// losing sub-microsecond precision for fast benchmarks.
func fmtNs(ns float64) string {
	if ns < 1000 {
		return fmt.Sprintf("%.0fns", ns)
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// compareSnapshots diffs old→new and writes a report. It returns the
// names of benchmarks whose ns/op grew by more than threshold;
// benchmarks present in only one snapshot are listed but never count
// as regressions (a new PR legitimately adds and retires benchmarks).
func compareSnapshots(oldRes, newRes map[string]Result, threshold float64, w io.Writer) []string {
	names := make([]string, 0, len(oldRes)+len(newRes))
	seen := make(map[string]bool)
	for n := range oldRes {
		names, seen[n] = append(names, n), true
	}
	for n := range newRes {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var regressions, added, removed []string
	fmt.Fprintf(w, "%-64s %12s %12s %9s\n", "BENCHMARK", "OLD", "NEW", "DELTA")
	for _, n := range names {
		o, inOld := oldRes[n]
		nw, inNew := newRes[n]
		short := strings.TrimPrefix(n, "Benchmark")
		switch {
		case !inOld:
			added = append(added, n)
			fmt.Fprintf(w, "%-64s %12s %12s %9s\n", short, "-", fmtNs(nw.NsPerOp), "added")
		case !inNew:
			removed = append(removed, n)
			fmt.Fprintf(w, "%-64s %12s %12s %9s\n", short, fmtNs(o.NsPerOp), "-", "removed")
		case o.NsPerOp <= 0:
			fmt.Fprintf(w, "%-64s %12s %12s %9s\n", short, fmtNs(o.NsPerOp), fmtNs(nw.NsPerOp), "n/a")
		default:
			delta := (nw.NsPerOp - o.NsPerOp) / o.NsPerOp
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressions = append(regressions, n)
			}
			fmt.Fprintf(w, "%-64s %12s %12s %+8.1f%%%s\n", short, fmtNs(o.NsPerOp), fmtNs(nw.NsPerOp), delta*100, mark)
		}
	}
	fmt.Fprintf(w, "\n%d compared, %d added, %d removed, %d regression(s) beyond %.0f%%\n",
		len(names)-len(added)-len(removed), len(added), len(removed), len(regressions), threshold*100)
	return regressions
}

// compareAblation gates the KEY=on arms of one snapshot against their
// KEY=off siblings and returns the names of on-arms slower than off by
// more than threshold. On-arms without an off sibling are reported but
// never fail (a benchmark may legitimately run only one arm).
func compareAblation(res map[string]Result, key string, threshold float64, w io.Writer) []string {
	onSuffix, offSuffix := "/"+key+"=on", "/"+key+"=off"
	names := make([]string, 0, len(res))
	for n := range res {
		if strings.HasSuffix(n, onSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var regressions []string
	unpaired := 0
	fmt.Fprintf(w, "%-64s %12s %12s %9s\n", "BENCHMARK ("+key+" ablation)", "ON", "OFF", "DELTA")
	for _, n := range names {
		on := res[n]
		off, ok := res[strings.TrimSuffix(n, onSuffix)+offSuffix]
		short := strings.TrimPrefix(strings.TrimSuffix(n, onSuffix), "Benchmark")
		switch {
		case !ok:
			unpaired++
			fmt.Fprintf(w, "%-64s %12s %12s %9s\n", short, fmtNs(on.NsPerOp), "-", "unpaired")
		case off.NsPerOp <= 0:
			fmt.Fprintf(w, "%-64s %12s %12s %9s\n", short, fmtNs(on.NsPerOp), fmtNs(off.NsPerOp), "n/a")
		default:
			delta := (on.NsPerOp - off.NsPerOp) / off.NsPerOp
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressions = append(regressions, n)
			}
			fmt.Fprintf(w, "%-64s %12s %12s %+8.1f%%%s\n", short, fmtNs(on.NsPerOp), fmtNs(off.NsPerOp), delta*100, mark)
		}
	}
	fmt.Fprintf(w, "\n%d pair(s) compared, %d unpaired, %d regression(s) beyond %.0f%%\n",
		len(names)-unpaired, unpaired, len(regressions), threshold*100)
	return regressions
}

// gateSLO checks a `qb2olap bench` run report against an SLO file and
// writes a verdict line per checked scope. It returns the violations.
func gateSLO(sloPath, reportPath string, w io.Writer) ([]loadgen.Violation, error) {
	slo, err := loadgen.LoadSLO(sloPath)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", reportPath, err)
	}
	if rep.Total.Sent == 0 {
		return nil, fmt.Errorf("%s: report has no requests — nothing to gate", reportPath)
	}
	violations := loadgen.CheckSLO(&rep, slo)
	fmt.Fprintf(w, "SLO gate: %s vs %s (%s, %d requests, p99 %.1fms, errors %d, shed %d)\n",
		reportPath, sloPath, rep.Mode, rep.Total.Sent, rep.Total.Latency.P99Ms,
		rep.Total.Errors+rep.Total.Timeouts, rep.Total.Shed)
	if len(violations) == 0 {
		fmt.Fprintln(w, "PASS: all thresholds met")
		return nil, nil
	}
	for _, v := range violations {
		fmt.Fprintf(w, "FAIL: %s\n", v)
	}
	return violations, nil
}

func main() {
	outPath := flag.String("o", "-", "output file (- for stdout)")
	compare := flag.Bool("compare", false, "compare two snapshot files (OLD.json NEW.json) instead of reading bench output")
	ablation := flag.String("ablation", "", "gate KEY=on vs KEY=off sub-benchmarks within one snapshot file (e.g. -ablation planner BENCH.json)")
	sloPath := flag.String("slo", "", "gate a `qb2olap bench` run report (REPORT.json) against this SLO file")
	threshold := flag.Float64("threshold", 0.10, "with -compare or -ablation: fail on ns/op regressions beyond this fraction")
	flag.Parse()

	if *sloPath != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -slo wants exactly one run report file: REPORT.json")
			os.Exit(2)
		}
		violations, err := gateSLO(*sloPath, flag.Arg(0), os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d SLO violation(s)\n", len(violations))
			os.Exit(1)
		}
		return
	}

	if *ablation != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -ablation wants exactly one snapshot file: BENCH.json")
			os.Exit(2)
		}
		res, err := loadSnapshot(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		regressions := compareAblation(res, *ablation, *threshold, os.Stdout)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d %s=on arm(s) beyond %.0f%% of their off baseline: %s\n",
				len(regressions), *ablation, *threshold*100, strings.Join(regressions, ", "))
			os.Exit(1)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two snapshot files: OLD.json NEW.json")
			os.Exit(2)
		}
		oldRes, err := loadSnapshot(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		newRes, err := loadSnapshot(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		regressions := compareSnapshots(oldRes, newRes, *threshold, os.Stdout)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%: %s\n",
				len(regressions), *threshold*100, strings.Join(regressions, ", "))
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	// Sorted keys make committed snapshots diff cleanly.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(&b, "  %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")

	if *outPath == "-" {
		os.Stdout.WriteString(b.String())
		return
	}
	if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *outPath)
}
